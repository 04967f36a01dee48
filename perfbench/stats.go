package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// percentile returns the p-quantile (0..1) of xs by the nearest-rank
// method; xs need not be sorted and is not modified. 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// windowPercentile splits xs, in order, into as many windows of at least
// size samples as fit and returns the median of each window's
// p-quantile; fewer than size samples give the plain p-quantile.
func windowPercentile(xs []float64, p float64, size int) float64 {
	n := len(xs) / size
	if n < 2 {
		return percentile(xs, p)
	}
	per := make([]float64, n)
	for i := range per {
		lo, hi := i*len(xs)/n, (i+1)*len(xs)/n
		per[i] = percentile(xs[lo:hi], p)
	}
	return median(per)
}

// ms and us convert a duration to fractional milliseconds/microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// mb converts bytes to MiB.
func mb(b uint64) float64 { return float64(b) / (1 << 20) }

// peakRSSMB reads the process's resident-set high-water mark (VmHWM) in
// MiB; 0 where /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// heapSampler tracks the live heap — the bytes the garbage collector
// marked live — after every collection while a run measures. Unlike the
// resident set, it does not depend on when collections happen to run.
type heapSampler struct {
	stop, done chan struct{}

	mu    sync.Mutex
	cycle uint64
	// lives holds the live heap after each collection since the last
	// restart.
	lives []float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			h.sample(false)
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// sample records the live heap once per collection; reset drops the
// earlier records.
func (h *heapSampler) sample(reset bool) {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	h.mu.Lock()
	defer h.mu.Unlock()
	metrics.Read(s)
	if reset {
		h.lives = h.lives[:0]
	}
	if c := s[1].Value.Uint64(); reset || c != h.cycle {
		h.cycle = c
		h.lives = append(h.lives, float64(s[0].Value.Uint64()))
	}
}

// restart collects garbage and restarts the record from the live set, so
// set-up transients before the measured phase do not count.
func (h *heapSampler) restart() {
	runtime.GC()
	h.sample(true)
}

// finish stops the sampler and returns the 95th percentile, over the
// collections, of the live heap in MiB: the peak without the few
// collections that happen to land on a transient burst.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	h.mu.Lock()
	defer h.mu.Unlock()
	return percentile(h.lives, 0.95) / (1 << 20)
}

// allocatedBytes reads the cumulative heap allocation counter.
func allocatedBytes() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// repoRoot finds the repository root from the working directory: the
// benchmark runs from the root, its self-test from perfbench/.
func repoRoot() string {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "perfbench", "go.mod")); err == nil {
			return dir
		}
	}
	return "."
}

// gitCommit reports HEAD when the tree is a git checkout, else "unknown";
// sourceDigest identifies the code either way.
func gitCommit() string {
	out, err := exec.Command("git", "-C", repoRoot(), "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source and module file of the repository
// (paths and contents, in path order), so a result names the exact code
// it measured even outside a git checkout.
func sourceDigest() string {
	root := repoRoot()
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		h.Write([]byte(rel + "\x00"))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
