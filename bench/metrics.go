package main

import (
	"cmp"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one reported number. Samples is the count behind a percentile
// or mean (0 for plain counts); Note carries what the name alone does not
// say, e.g. which percentile the tail is.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	Note    string  `json:"note,omitempty"`
}

// quantileOf returns the q-quantile (nearest rank) of v, zero when v is empty.
func quantileOf[T cmp.Ordered](v []T, q float64) T {
	if len(v) == 0 {
		var zero T
		return zero
	}
	sorted := slices.Clone(v)
	slices.Sort(sorted)
	k := int(math.Ceil(q*float64(len(sorted)))) - 1
	if k < 0 {
		k = 0
	}
	return sorted[k]
}

// series collects durations of one class or stage.
type series []time.Duration

func (s series) quantile(q float64) time.Duration { return quantileOf(s, q) }

func (s series) p50() time.Duration { return quantileOf(s, 0.5) }

func (s series) sum() time.Duration {
	var t time.Duration
	for _, d := range s {
		t += d
	}
	return t
}

// tail returns the highest percentile of the ladder that still has at least
// ten samples beyond it, and its name.
func (s series) tail() (time.Duration, string) {
	ladder := []struct {
		q    float64
		name string
	}{{0.999, "p99.9"}, {0.995, "p99.5"}, {0.99, "p99"}, {0.95, "p95"}, {0.9, "p90"}}
	for _, l := range ladder {
		if float64(len(s))*(1-l.q) >= 10 {
			return s.quantile(l.q), l.name
		}
	}
	return s.quantile(0.5), "p50"
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func msMetric(s series) metric { return metric{Value: ms(s.p50()), Unit: "ms", Samples: len(s)} }
func usMetric(s series) metric { return metric{Value: us(s.p50()), Unit: "us", Samples: len(s)} }
func count(n int64) metric     { return metric{Value: float64(n), Unit: "count"} }

// refKernel is how long the calibration kernel takes on the reference host
// (2 cores of the build container) while nothing else slows it: the p10 of a
// quiet run, which repeats to 0.2 % there.
const refKernel = 39600 * time.Nanosecond

// hostClock measures how much slower than refKernel the host is running
// right now. The benchmark's hosts change speed by 1.5x for seconds at a
// time with no steal reported (a busy sibling hyperthread is invisible to
// the guest); the slowdown moves every time in the process alike, so
// dividing an interval's times by the slowdown measured just before it
// leaves the program's share. Same-seed runs that spread 40 % raw spread 2 %
// so scaled (README.md, "Host speed").
type hostClock struct {
	buf  []float64
	sink float64 // keeps the kernel's result alive
}

func newHostClock() *hostClock {
	h := &hostClock{buf: make([]float64, 32<<10)}
	for i := range h.buf {
		h.buf[i] = float64(i%7) + 0.5
	}
	return h
}

func (h *hostClock) kernel() time.Duration {
	t0 := time.Now()
	var acc float64
	for rep := 0; rep < 2; rep++ {
		for i, v := range h.buf {
			acc += v * float64(i&3)
		}
	}
	h.sink += acc
	return time.Since(t0)
}

// slowdown times the kernel twice and returns the faster over refKernel:
// the faster of two is not hurt by one preemption.
func (h *hostClock) slowdown() float64 {
	a, b := h.kernel(), h.kernel()
	if b < a {
		a = b
	}
	return float64(a) / float64(refKernel)
}

// atRef scales a measured duration to the reference host's speed.
func atRef(d time.Duration, slowdown float64) time.Duration {
	return time.Duration(float64(d) / slowdown)
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap is the heap in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// hostInfo is the diagnostic host record written into every result file, so
// a run the host slowed can be told from a regression. Not a metric.
type hostInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
}

func readHost() hostInfo {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease") // absent off Linux: recorded as ""
	return hostInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     strings.TrimSpace(string(kernel)),
	}
}

// cpuJiffies reads the aggregate line of /proc/stat: steal and total
// jiffies since boot. Both are 0 where the file is absent.
func cpuJiffies() (steal, total uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal [guest guest_nice];
	// guest time is already inside user, so it is left out of the total.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// stealFrac is the share of host CPU time stolen between two readings.
func stealFrac(steal0, total0, steal1, total1 uint64) float64 {
	if total1 <= total0 {
		return 0
	}
	return float64(steal1-steal0) / float64(total1-total0)
}

// disturbedAbove is the steal share beyond which a run is flagged.
const disturbedAbove = 0.05
