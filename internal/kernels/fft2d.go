package kernels

import (
	"math"
	"sync"

	"fxnet/internal/dsp"
	"fxnet/internal/fx"
)

const fftTagBase = 100000

// fftFlops is the standard 5·N·log2(N) operation count for one length-N
// complex FFT.
func fftFlops(n int) float64 {
	return 5 * float64(n) * math.Log2(float64(n))
}

// rowScratch recycles fftRow's complex128 working rows. A run
// transforms thousands of rows, and workers on different partitions may
// transform concurrently.
var rowScratch = sync.Pool{New: func() any { return new([]complex128) }}

// fftRow transforms one row of complex64 data in place via the complex128
// FFT, rounding back to COMPLEX*8 as the Fx program stores it. The
// sequential references use the same helper, so results match exactly.
func fftRow(row []complex64) {
	buf := rowScratch.Get().(*[]complex128)
	if cap(*buf) < len(row) {
		*buf = make([]complex128, len(row))
	}
	tmp := (*buf)[:len(row)]
	for i, v := range row {
		tmp[i] = complex128(v)
	}
	dsp.FFTInPlace(tmp)
	for i, v := range tmp {
		row[i] = complex64(v)
	}
	rowScratch.Put(buf)
}

// initComplex is the deterministic 2DFFT input.
func initComplex(i, j, n int) complex64 {
	return complex64(complex(initValue(i, j, n), initValue(j, i, n)-0.5))
}

// FFT2D runs the data-parallel two-dimensional FFT: local row FFTs, an
// all-to-all redistribution from block-rows to block-columns, then local
// column FFTs. It returns the worker's owned columns of the final
// iteration (each column of length p.N). This is the paper's all-to-all
// kernel: every rank sends an O((N/P)²)-element block to every other
// rank, every iteration.
func FFT2D(w *fx.Worker, p Params) [][]complex64 {
	checkRank(w, "2dfft", 2)
	n := p.N
	rlo, rhi := fx.BlockRange(n, w.P, w.Rank)
	clo, chi := rlo, rhi // column distribution mirrors the row distribution
	myCols := chi - clo

	var result [][]complex64
	for it := 0; it < p.Iters; it++ {
		// Fresh input each iteration (the kernel benchmark re-runs the
		// same transform; Fx's test harness does the same).
		rows := make([][]complex64, rhi-rlo)
		for r := range rows {
			rows[r] = make([]complex64, n)
			for j := 0; j < n; j++ {
				rows[r][j] = initComplex(rlo+r, j, n)
			}
		}

		// Phase 1: local FFT over each owned row.
		for _, row := range rows {
			fftRow(row)
		}
		w.Compute("fft.flop", float64(len(rows))*fftFlops(n))

		// Communication phase: all-to-all transpose. Part q carries, for
		// each owned row, the slice of columns rank q will own.
		parts := make([][]byte, w.P)
		for q := 0; q < w.P; q++ {
			qlo, qhi := fx.BlockRange(n, w.P, q)
			block := make([]complex64, 0, len(rows)*(qhi-qlo))
			for _, row := range rows {
				block = append(block, row[qlo:qhi]...)
			}
			parts[q] = fx.EncodeComplex64s(block)
		}
		got := w.AllToAll(fftTagBase+it*w.P, parts)

		// Assemble owned columns: cols[c][i] = element (row i, col clo+c).
		cols := make([][]complex64, myCols)
		for c := range cols {
			cols[c] = make([]complex64, n)
		}
		for q := 0; q < w.P; q++ {
			qlo, qhi := fx.BlockRange(n, w.P, q)
			block := fx.DecodeComplex64s(got[q])
			idx := 0
			for i := qlo; i < qhi; i++ {
				for c := 0; c < myCols; c++ {
					cols[c][i] = block[idx]
					idx++
				}
			}
		}

		// Phase 2: local FFT over each owned column.
		for _, col := range cols {
			fftRow(col)
		}
		w.Compute("fft.flop", float64(myCols)*fftFlops(n))
		result = cols
	}
	return result
}

// FFT2DSequential computes the same transform single-process, with the
// same complex64 rounding discipline, returning the full matrix as
// columns (result[c][i] = element (i, c)).
func FFT2DSequential(p Params) [][]complex64 {
	n := p.N
	rows := make([][]complex64, n)
	for i := range rows {
		rows[i] = make([]complex64, n)
		for j := 0; j < n; j++ {
			rows[i][j] = initComplex(i, j, n)
		}
	}
	for _, row := range rows {
		fftRow(row)
	}
	cols := make([][]complex64, n)
	for c := range cols {
		cols[c] = make([]complex64, n)
		for i := 0; i < n; i++ {
			cols[c][i] = rows[i][c]
		}
		fftRow(cols[c])
	}
	return cols
}
