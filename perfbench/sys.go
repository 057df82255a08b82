package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"
)

// resetPeakRSS resets the kernel's resident high-water mark to the
// current resident size, so a later peakRSSMB reports the peak since
// this call. It reports whether the reset took effect (Linux ≥ 4.0).
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// dropSetup returns what set-up left in the heap to the OS, so set-up's
// own memory does not count against the timed phase.
func dropSetup() {
	runtime.GC()
	debug.FreeOSMemory()
}

// peakRSSMB returns the resident high-water mark (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// gcSample is the part of runtime/metrics the benchmark reports.
type gcSample struct {
	cycles     uint64
	pauseSec   float64
	allocBytes uint64
}

var gcNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/sched/pauses/total/gc:seconds",
	"/gc/heap/allocs:bytes",
}

func readGC() gcSample {
	s := make([]metrics.Sample, len(gcNames))
	for i, n := range gcNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var out gcSample
	if s[0].Value.Kind() == metrics.KindUint64 {
		out.cycles = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64Histogram {
		out.pauseSec = histSum(s[1].Value.Float64Histogram())
	}
	if s[2].Value.Kind() == metrics.KindUint64 {
		out.allocBytes = s[2].Value.Uint64()
	}
	return out
}

// histSum estimates the total of a runtime/metrics histogram from its
// bucket midpoints (the finite edge for the open-ended buckets).
func histSum(h *metrics.Float64Histogram) float64 {
	var sum float64
	for i, c := range h.Counts {
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		mid := (lo + hi) / 2
		switch {
		case lo < -1e300:
			mid = hi
		case hi > 1e300:
			mid = lo
		}
		sum += float64(c) * mid
	}
	return sum
}

// hostProbe times a fixed single-threaded loop over a 512 KiB table.
// It is reported so runs on a fast or slow host period can be
// recognised; it never scales a result.
func hostProbe() float64 {
	const rounds = 5
	times := make([]float64, 0, rounds)
	for r := 0; r < rounds; r++ {
		table := make([]uint64, 1<<16)
		x := uint64(88172645463325252)
		start := time.Now()
		for i := 0; i < 4_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			table[x&(1<<16-1)] += x
		}
		times = append(times, time.Since(start).Seconds()*1e3)
		probeSink += table[x&7]
	}
	return median(times)
}

// probeSink keeps the host probe's loop from being optimised away.
var probeSink uint64

// sourceID names the code under test: the VCS revision the binary was
// stamped with when built inside a git checkout, otherwise a digest of
// the module's Go sources and go.mod under root.
func sourceID(root string) string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		h.Write([]byte(path))
		h.Write(b)
		return nil
	})
	return "src-" + hex.EncodeToString(h.Sum(nil))[:16]
}
