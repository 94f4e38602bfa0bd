// Package perfstat measures the simulator's own execution cost: wall
// clock, events processed, events/sec, heap allocations and GC activity
// across one engine run. Its numbers feed RunResult.Perf (the facade's
// WithPerfStats), the perf.* registry gauges, adaptd's perf.last.*
// gauges and TestGateWorkloadAllocsPerEvent's allocs/event bound. The
// BENCH gate does not read them: it compares simulated output only, and
// host time is measured end to end by perfbench.
//
// Collection is opt-in and near-zero cost when disabled: Start returns a
// nil *Probe, and every method on a nil probe is a no-op, so callers
// thread the probe unconditionally. When enabled, the cost is two
// runtime.ReadMemStats calls per evaluation — microseconds against
// simulations that run for milliseconds to minutes.
//
// The allocation counters are (for a fixed Go toolchain) deterministic:
// the simulation is single-goroutine and allocates the same objects on
// every run, so allocs/event can carry a test bound. Wall-clock derived
// numbers (events/sec) vary with the machine and carry none.
package perfstat

import (
	"runtime"
	"time"

	"adaptmr/internal/obs"
	"adaptmr/internal/sim"
)

// Stat is the telemetry of one measured engine run.
type Stat struct {
	// WallSeconds is the real time the run took.
	WallSeconds float64 `json:"wall_s"`
	// Events is how many simulation events the engine fired.
	Events int64 `json:"events"`
	// EventsPerSec is Events / WallSeconds (0 when the run was too fast
	// to time).
	EventsPerSec float64 `json:"events_per_sec"`

	// Allocs and AllocBytes are the heap allocation deltas
	// (runtime.MemStats Mallocs / TotalAlloc) across the run.
	Allocs     int64 `json:"allocs"`
	AllocBytes int64 `json:"alloc_bytes"`
	// AllocsPerEvent and BytesPerEvent normalise the deltas by Events —
	// the per-event cost of the hot loop, deterministic for a fixed
	// toolchain and therefore strictly gateable.
	AllocsPerEvent float64 `json:"allocs_per_event"`
	BytesPerEvent  float64 `json:"bytes_per_event"`

	// GCCycles and GCPauseMS are the garbage collections completed during
	// the run and their total stop-the-world pause time.
	GCCycles  int64   `json:"gc_cycles"`
	GCPauseMS float64 `json:"gc_pause_ms"`
}

// Probe is an in-flight measurement around one engine run. A nil probe
// (collection disabled) is valid and free: Stop returns nil.
type Probe struct {
	eng     *sim.Engine
	start   time.Time
	events0 uint64
	mem0    runtime.MemStats
}

// Start begins measuring eng. When enabled is false it returns nil,
// which every method accepts — the disabled path costs one nil check.
func Start(enabled bool, eng *sim.Engine) *Probe {
	if !enabled || eng == nil {
		return nil
	}
	p := &Probe{eng: eng, events0: eng.EventsFired()}
	runtime.ReadMemStats(&p.mem0)
	p.start = time.Now() // last, so ReadMemStats cost is outside the window
	return p
}

// Stop ends the measurement and returns the run's Stat (nil for a nil
// probe).
func (p *Probe) Stop() *Stat {
	if p == nil {
		return nil
	}
	wall := time.Since(p.start).Seconds()
	var mem1 runtime.MemStats
	runtime.ReadMemStats(&mem1)
	s := &Stat{
		WallSeconds: wall,
		Events:      int64(p.eng.EventsFired() - p.events0),
		Allocs:      int64(mem1.Mallocs - p.mem0.Mallocs),
		AllocBytes:  int64(mem1.TotalAlloc - p.mem0.TotalAlloc),
		GCCycles:    int64(mem1.NumGC - p.mem0.NumGC),
		GCPauseMS:   float64(mem1.PauseTotalNs-p.mem0.PauseTotalNs) / 1e6,
	}
	if wall > 0 {
		s.EventsPerSec = float64(s.Events) / wall
	}
	if s.Events > 0 {
		s.AllocsPerEvent = float64(s.Allocs) / float64(s.Events)
		s.BytesPerEvent = float64(s.AllocBytes) / float64(s.Events)
	}
	return s
}

// Elapsed returns the wall time since the probe started (0 for nil).
func (p *Probe) Elapsed() time.Duration {
	if p == nil {
		return 0
	}
	return time.Since(p.start)
}

// Publish writes the stat into the registry as perf.* gauges (no-op when
// either argument is nil). The values describe the most recent measured
// run; under Registry.Absorb they fold last-write-wins, matching the
// point-in-time semantics of the other duration gauges.
func Publish(m *obs.Registry, s *Stat) {
	if m == nil || s == nil {
		return
	}
	m.Gauge("perf.wall_s").Set(s.WallSeconds)
	m.Gauge("perf.events").Set(float64(s.Events))
	m.Gauge("perf.events_per_sec").Set(s.EventsPerSec)
	m.Gauge("perf.allocs_per_event").Set(s.AllocsPerEvent)
	m.Gauge("perf.bytes_per_event").Set(s.BytesPerEvent)
	m.Gauge("perf.gc_cycles").Set(float64(s.GCCycles))
	m.Gauge("perf.gc_pause_ms").Set(s.GCPauseMS)
}
