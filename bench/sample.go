package main

// Process-level sampling (wall, CPU, allocator, GC) and the order
// statistics every reported number goes through.

import (
	"crypto/sha256"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// sample is one reading of the process's cumulative cost counters.
type sample struct {
	at       time.Time
	cpu      time.Duration // user+sys of the whole process (all threads)
	mallocs  uint64
	bytes    uint64 // MemStats.TotalAlloc
	heapHeld uint64 // HeapSys − HeapReleased: heap the process keeps mapped
	gcCycles uint64
	gcCPU    float64 // seconds
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

// takeSample reads the counters. ReadMemStats stops the world, so it is
// only ever called outside or at the edges of a timed region.
func takeSample() sample {
	var ru syscall.Rusage
	// RUSAGE_SELF cannot fail on Linux with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(runtimeSamples)
	return sample{
		at:       time.Now(),
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:  ms.Mallocs,
		bytes:    ms.TotalAlloc,
		heapHeld: ms.HeapSys - ms.HeapReleased,
		gcCycles: runtimeSamples[0].Value.Uint64(),
		gcCPU:    runtimeSamples[1].Value.Float64(),
	}
}

// peakRSSMiB is the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// filesystemOf names the filesystem type under dir (hex magic when it
// is not one of the common ones) — recorded so a result says what
// "disk" meant.
func filesystemOf(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// quartiles is a distribution summary. Q1/Median/Q3 follow Python's
// statistics.quantiles(values, n=4) (exclusive method), the rule the
// acceptance spread is computed with.
type quartiles struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Max    float64 `json:"max"`
}

// summarize computes the summary of vs; a single value is its own
// quartiles, an empty slice is all zeros.
func summarize(vs []float64) quartiles {
	n := len(vs)
	if n == 0 {
		return quartiles{}
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	q := quartiles{N: n, Min: s[0], Max: s[n-1], Q1: s[0], Median: s[0], Q3: s[0]}
	if n == 1 {
		return q
	}
	at := func(k int) float64 { // k-th of 4 cut points, exclusive method
		j := min(max(k*(n+1)/4, 1), n-1)
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	q.Q1, q.Median, q.Q3 = at(1), at(2), at(3)
	return q
}

// spread is the interquartile range as a share of the median (every
// summarized metric is positive).
func (q quartiles) spread() float64 {
	if q.Median == 0 {
		return 0
	}
	return (q.Q3 - q.Q1) / q.Median
}

func median(vs []float64) float64 { return summarize(vs).Median }

// The reference kernel. The box this benchmark runs on changes speed:
// between runs minutes apart, whole workloads — wall and CPU time alike
// — move together by up to 35%, far more than any bound worth having.
// The harness therefore times a fixed piece of work of its own beside
// every operation and reports time in reference seconds: measured time
// × (referenceNominal ÷ the kernel's measured time). The kernel is
// harness-only code that no change to the repository can touch, doing
// what the program does (short-string allocation, map updates, hashing,
// sorting) so that it slows down when the program would. A change to
// the program moves an operation and not the kernel; a change in the
// box's speed moves both and cancels.

// referenceNominal is the kernel's duration on the 2-vCPU reference box
// in its fast state, so reference seconds read like that box's seconds.
const referenceNominal = 100 * time.Millisecond

var kernelSink int

func referenceKernel() time.Duration {
	start := time.Now()
	counts := make(map[string]int, 1<<12)
	var buf []byte
	h := sha256.New()
	for i := 0; i < 200_000; i++ {
		buf = strconv.AppendInt(buf[:0], int64(i)*2654435761%1000003, 36)
		counts[string(buf)] += i
		h.Write(buf)
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	kernelSink += len(keys) + int(h.Sum(nil)[0])
	return time.Since(start)
}

// referenceScale converts a duration measured between two kernel
// timings into reference seconds.
func referenceScale(before, after time.Duration) float64 {
	return 2 * float64(referenceNominal) / float64(before+after)
}
