package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs, interpolating
// linearly between order statistics. It is 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// seconds converts a duration to float seconds.
func seconds(d time.Duration) float64 { return d.Seconds() }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// peakRSSMB reads VmHWM (peak resident set) of a process from /proc, in
// MiB; pid "self" names the calling process.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// Stamp identifies the conditions a measurement was taken under; every
// output the benchmark writes carries one.
type Stamp struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      bool   `json:"trace"`
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seconds    int    `json:"seconds"`
	Started    string `json:"started"`
}

func newStamp(workload string, seed int64, trace bool, secs int) Stamp {
	return Stamp{
		Workload:   workload,
		Seed:       seed,
		Trace:      trace,
		Cores:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commitID("."),
		Seconds:    secs,
		Started:    time.Now().UTC().Format(time.RFC3339),
	}
}

// commitID names the source the benchmark measured: the git commit when
// the checkout is a repository, else "tree:" and a digest of the Go
// sources and module files under root.
func commitID(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err == nil {
		return strings.TrimSpace(string(out))
	}
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries do not change what was built
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return nil
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\n", filepath.ToSlash(path))
		_, _ = io.Copy(h, f)
		return nil
	})
	return "tree:" + hex.EncodeToString(h.Sum(nil))[:16]
}
