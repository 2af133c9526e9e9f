// Package dsp implements the signal-processing machinery the paper's
// analysis relies on: a fast Fourier transform (radix-2 with a Bluestein
// fallback for arbitrary lengths), window functions, the periodogram power
// spectrum of the windowed instantaneous bandwidth, and spectral peak
// ("spike") extraction used to build the analytic traffic models of §7.2.
package dsp

import (
	"math"
	"math/bits"
	"math/cmplx"
	"sync"
)

// fftPlan caches the size-dependent precomputation of the radix-2
// transform: the bit-reversal permutation and the forward twiddle factors
// of every stage, packed stage after stage (half(2) + half(4) + … +
// half(n) = n−1 entries). Plans are immutable once built and shared by
// every goroutine transforming that size, so the farm's parallel workers
// pay the trigonometry once per size per process.
type fftPlan struct {
	n    int
	perm []int32      // perm[i] = bit-reverse of i
	tw   []complex128 // exp(−2πi·j/size), packed per stage
}

var planCache sync.Map // int -> *fftPlan

func planFor(n int) *fftPlan {
	if v, ok := planCache.Load(n); ok {
		return v.(*fftPlan)
	}
	p := &fftPlan{n: n, perm: make([]int32, n), tw: make([]complex128, n-1)}
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		p.perm[i] = int32(bits.Reverse64(uint64(i)) >> shift)
	}
	off := 0
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		for j := 0; j < half; j++ {
			p.tw[off+j] = cmplx.Rect(1, -2*math.Pi*float64(j)/float64(size))
		}
		off += half
	}
	v, _ := planCache.LoadOrStore(n, p)
	return v.(*fftPlan)
}

// FFT returns the discrete Fourier transform of x:
//
//	X[k] = Σ_n x[n]·exp(−2πi·kn/N)
//
// The input is not modified. Any length is accepted: powers of two use the
// iterative radix-2 algorithm, other lengths use Bluestein's algorithm.
// An empty input returns an empty slice.
func FFT(x []complex128) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	out := append([]complex128(nil), x...)
	if n&(n-1) == 0 {
		fftRadix2(out, false)
		return out
	}
	return bluestein(out, false)
}

// FFTInPlace overwrites x with its unnormalized DFT — the values FFT
// returns. Power-of-two lengths transform without allocating.
func FFTInPlace(x []complex128) {
	n := len(x)
	switch {
	case n == 0:
	case n&(n-1) == 0:
		fftRadix2(x, false)
	default:
		copy(x, bluestein(x, false))
	}
}

// IFFT returns the inverse DFT of X, normalized by 1/N, so that
// IFFT(FFT(x)) == x up to rounding.
func IFFT(x []complex128) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	out := append([]complex128(nil), x...)
	if n&(n-1) == 0 {
		fftRadix2(out, true)
	} else {
		out = bluestein(out, true)
	}
	inv := complex(1/float64(n), 0)
	for i := range out {
		out[i] *= inv
	}
	return out
}

// fftRadix2 computes an in-place unnormalized DFT (or conjugate DFT when
// inverse is true) of a power-of-two length slice, using the cached plan
// for its size. Inverse twiddles are the conjugates of the cached forward
// table.
func fftRadix2(a []complex128, inverse bool) {
	n := len(a)
	if n == 1 {
		return
	}
	p := planFor(n)
	for i, ji := range p.perm {
		if j := int(ji); j > i {
			a[i], a[j] = a[j], a[i]
		}
	}
	off := 0
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		tw := p.tw[off : off+half]
		off += half
		for start := 0; start < n; start += size {
			for j := 0; j < half; j++ {
				w := tw[j]
				if inverse {
					w = complex(real(w), -imag(w))
				}
				u := a[start+j]
				v := a[start+j+half] * w
				a[start+j] = u + v
				a[start+j+half] = u - v
			}
		}
	}
}

// bluesteinPlan caches the length-dependent precomputation of the
// chirp-z transform: the chirp sequence and the forward FFT of the
// (fixed) b sequence, per direction.
type bluesteinPlan struct {
	m     int
	chirp []complex128
	bHat  []complex128 // FFT of b, computed once
}

var bluesteinCache sync.Map // [n, inverse] -> *bluesteinPlan

func bluesteinPlanFor(n int, inverse bool) *bluesteinPlan {
	key := [2]int{n, 0}
	if inverse {
		key[1] = 1
	}
	if v, ok := bluesteinCache.Load(key); ok {
		return v.(*bluesteinPlan)
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	// chirp[k] = exp(sign·πi·k²/n); k² mod 2n avoids precision loss.
	chirp := make([]complex128, n)
	for k := 0; k < n; k++ {
		kk := (int64(k) * int64(k)) % int64(2*n)
		chirp[k] = cmplx.Rect(1, sign*math.Pi*float64(kk)/float64(n))
	}
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	b := make([]complex128, m)
	for k := 0; k < n; k++ {
		b[k] = cmplx.Conj(chirp[k])
	}
	for k := 1; k < n; k++ {
		b[m-k] = cmplx.Conj(chirp[k])
	}
	fftRadix2(b, false)
	p := &bluesteinPlan{m: m, chirp: chirp, bHat: b}
	v, _ := bluesteinCache.LoadOrStore(key, p)
	return v.(*bluesteinPlan)
}

// bluestein computes a DFT of arbitrary length via the chirp-z transform,
// using two power-of-two FFTs per call (the third, of the fixed b
// sequence, comes from the per-length plan cache).
func bluestein(x []complex128, inverse bool) []complex128 {
	n := len(x)
	p := bluesteinPlanFor(n, inverse)
	a := make([]complex128, p.m)
	for k := 0; k < n; k++ {
		a[k] = x[k] * p.chirp[k]
	}
	fftRadix2(a, false)
	for i := range a {
		a[i] *= p.bHat[i]
	}
	fftRadix2(a, true)
	out := make([]complex128, n)
	scale := complex(1/float64(p.m), 0)
	for k := 0; k < n; k++ {
		out[k] = a[k] * scale * p.chirp[k]
	}
	return out
}

// FFTReal transforms a real-valued signal, returning the full complex
// spectrum of the same length. Power-of-two lengths use the packed
// algorithm: the N reals are packed into an N/2-point complex signal,
// transformed, and unpacked with one twiddle pass — half the butterflies
// of the generic path (see DESIGN.md §8 for the derivation).
func FFTReal(x []float64) []complex128 {
	out := make([]complex128, len(x))
	FFTRealInto(out, x)
	return out
}

// FFTRealInto is FFTReal writing the length-len(x) spectrum into out
// (which must have the same length), allocating only the packed
// half-length scratch for power-of-two inputs.
func FFTRealInto(out []complex128, x []float64) {
	n := len(x)
	if len(out) != n {
		panic("dsp: FFTRealInto length mismatch")
	}
	if n == 0 {
		return
	}
	if n&(n-1) != 0 || n < 4 {
		// Odd or tiny lengths: no packed split; use the generic path.
		for i, v := range x {
			out[i] = complex(v, 0)
		}
		if n&(n-1) == 0 {
			fftRadix2(out, false)
			return
		}
		copy(out, bluestein(out, false))
		return
	}
	h := n / 2
	// Pack x into an h-point complex signal z[k] = x[2k] + i·x[2k+1] and
	// transform it once.
	z := out[:h] // reuse the front half of out as the packed scratch
	for k := 0; k < h; k++ {
		z[k] = complex(x[2*k], x[2*k+1])
	}
	fftRadix2(z, false)
	// Unpack: with E and O the DFTs of the even and odd subsequences,
	//   E[k] = (Z[k] + conj(Z[h−k]))/2
	//   O[k] = −i·(Z[k] − conj(Z[h−k]))/2
	//   X[k] = E[k] + w^k·O[k],  X[k+h] = E[k] − w^k·O[k],  w = e^(−2πi/n)
	// and, by conjugate symmetry, E[h−k] = conj(E[k]), O[h−k] = conj(O[k]).
	// Each {k, h−k} pair is unpacked together so the transform runs in
	// place over out (the pair's reads happen before its writes, and no
	// other pair touches those slots).
	z0 := z[0]
	tw := planFor(n).tw[h-1:] // last stage of the size-n plan: w^0..w^(h−1)
	for k := 1; k <= h/2; k++ {
		zk, zc := z[k], cmplx.Conj(z[h-k])
		e := (zk + zc) * 0.5
		o := (zk - zc) * complex(0, -0.5)
		t := tw[k] * o
		out[k] = e + t
		out[k+h] = e - t
		if k < h-k {
			ec, oc := cmplx.Conj(e), cmplx.Conj(o)
			tc := tw[h-k] * oc
			out[h-k] = ec + tc
			out[h-k+h] = ec - tc
		}
	}
	re, im := real(z0), imag(z0)
	out[0] = complex(re+im, 0)
	out[h] = complex(re-im, 0)
}

// NextPow2 returns the smallest power of two ≥ n (and ≥ 1).
func NextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// FFT2D transforms a dense rows×cols matrix stored row-major: first a DFT
// of each row, then of each column. Used as the sequential reference for
// the 2DFFT and T2DFFT kernels. Power-of-two dimensions transform in
// place in the output with one column scratch; other lengths fall back to
// the allocating Bluestein path.
func FFT2D(m []complex128, rows, cols int) []complex128 {
	if len(m) != rows*cols {
		panic("dsp: FFT2D shape mismatch")
	}
	out := make([]complex128, len(m))
	copy(out, m)
	pow2 := func(n int) bool { return n > 0 && n&(n-1) == 0 }
	for r := 0; r < rows; r++ {
		row := out[r*cols : (r+1)*cols]
		if pow2(cols) {
			fftRadix2(row, false)
		} else {
			copy(row, bluestein(row, false))
		}
	}
	col := make([]complex128, rows)
	for c := 0; c < cols; c++ {
		for r := 0; r < rows; r++ {
			col[r] = out[r*cols+c]
		}
		if pow2(rows) {
			fftRadix2(col, false)
		} else {
			copy(col, bluestein(col, false))
		}
		for r := 0; r < rows; r++ {
			out[r*cols+c] = col[r]
		}
	}
	return out
}
