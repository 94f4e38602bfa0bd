package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts attempted and failed operations. Every failure keeps its
// reason so the run's log names what went wrong.
type tally struct {
	attempted, failed int64
	reasons           []string
}

// ok records one operation that succeeded.
func (t *tally) ok() { t.attempted++ }

// fail records one failed operation.
func (t *tally) fail(format string, args ...any) {
	t.attempted++
	t.failed++
	if len(t.reasons) < 20 {
		t.reasons = append(t.reasons, fmt.Sprintf(format, args...))
	}
}

// check records one operation that succeeded when err is nil.
func (t *tally) check(err error) {
	if err != nil {
		t.fail("%v", err)
		return
	}
	t.ok()
}

// metricSet collects metrics in insertion order for the human-readable
// table; the JSON line sorts them by name.
type metricSet struct {
	names []string
	m     map[string]metric
}

func newMetricSet() *metricSet { return &metricSet{m: map[string]metric{}} }

func (s *metricSet) set(name, unit string, v float64) {
	if _, ok := s.m[name]; !ok {
		s.names = append(s.names, name)
	}
	// encoding/json cannot represent NaN or Inf; they arise only from a
	// run whose every unit failed, which the failure count already shows.
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	s.m[name] = metric{Value: v, Unit: unit}
}

// emit prints the table, the failure reasons and the JSON result line.
func emit(w io.Writer, workload string, t *tally, ms *metricSet, notes []string) error {
	fmt.Fprintf(w, "workload %s: attempted=%d failed=%d failed_frac=%.6f\n",
		workload, t.attempted, t.failed, frac(t.failed, t.attempted))
	for _, n := range notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	for _, name := range ms.names {
		m := ms.m[name]
		fmt.Fprintf(w, "  %-36s %16s %s\n", name, strconv.FormatFloat(m.Value, 'g', 8, 64), m.Unit)
	}
	for _, r := range t.reasons {
		fmt.Fprintf(os.Stderr, "FAILED: %s\n", r)
	}
	line, err := json.Marshal(result{
		Correct:   t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   ms.m,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func frac(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func secs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// resetPeakRSS restarts the kernel's peak-RSS tracking for this process,
// so the next maxRSSMB covers only what runs after it. Without it (older
// kernels) maxRSSMB stays the process-wide peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// maxRSSMB reads the process's peak resident set (VmHWM) from procfs.
func maxRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// cpuClock reads the runtime's GC and total CPU-time estimates.
type cpuClock struct{ gc, total float64 }

func readCPUClock() cpuClock {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return cpuClock{gc: s[0].Value.Float64(), total: s[1].Value.Float64()}
}

// gcFrac is the share of CPU time the garbage collector took since from.
func (c cpuClock) gcFrac(from cpuClock) float64 {
	if d := c.total - from.total; d > 0 {
		return (c.gc - from.gc) / d
	}
	return 0
}

// splitmix64 derives workload parameters from the seed.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	z := x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// derive returns a deterministic value for (seed, key, i).
func derive(seed int64, key string, i int) uint64 {
	h := uint64(14695981039346656037)
	for j := 0; j < len(key); j++ {
		h ^= uint64(key[j])
		h *= 1099511628211
	}
	return splitmix64(splitmix64(uint64(seed)^h) + uint64(i))
}
