package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// quartiles returns the first quartile, median and third quartile of
// xs, by the same rule as Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method), so the spreads printed here are the ones the
// acceptance procedure computes. One sample is its own three quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 { // k-th of 4 cut points
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := float64(k*(n+1) - 4*j) // may leave [0,4] after clamping: extrapolates, as Python does
		return (s[j-1]*(4-d) + s[j]*d) / 4
	}
	return at(1), at(2), at(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// memSnap is the part of runtime.MemStats the benchmark takes deltas of.
type memSnap struct {
	mallocs, bytes uint64
	heapAlloc      uint64
	gcCycles       uint32
	gcPauseNs      uint64
	gcCPUFrac      float64
}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{ms.Mallocs, ms.TotalAlloc, ms.HeapAlloc, ms.NumGC, ms.PauseTotalNs, ms.GCCPUFraction}
}

// memDelta is the allocation work between two snapshots.
type memDelta struct {
	mallocs, bytes float64
	gcCycles       float64
	gcPauseMs      float64
}

func (a memSnap) since(b memSnap) memDelta {
	return memDelta{
		mallocs:   float64(a.mallocs - b.mallocs),
		bytes:     float64(a.bytes - b.bytes),
		gcCycles:  float64(a.gcCycles - b.gcCycles),
		gcPauseMs: float64(a.gcPauseNs-b.gcPauseNs) / 1e6,
	}
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// fingerprint describes the machine and build a result came from.
type fingerprint struct {
	CPU        string
	NProc      int
	GOMAXPROCS int
	Go         string
	GOGC       string
	Git        string
	Seed       int64
}

func newFingerprint(seed int64) fingerprint {
	fp := fingerprint{
		CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), GOGC: os.Getenv("GOGC"), Git: "none", Seed: seed,
	}
	if fp.GOGC == "" {
		fp.GOGC = "100"
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// Stamped by the go tool when the build happens inside a clone; an
	// exported checkout has none.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" && len(kv.Value) >= 7 {
				fp.Git = kv.Value[:7]
			}
		}
	}
	return fp
}

func (fp fingerprint) String() string {
	return fmt.Sprintf("cpu=%q nproc=%d GOMAXPROCS=%d %s GOGC=%s git=%s seed=%d",
		fp.CPU, fp.NProc, fp.GOMAXPROCS, fp.Go, fp.GOGC, fp.Git, fp.Seed)
}
