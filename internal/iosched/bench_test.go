package iosched

import (
	"testing"

	"adaptmr/internal/block"
	"adaptmr/internal/obs"
	"adaptmr/internal/sim"
)

// benchCycle drives one steady-state request lifecycle through e — add,
// dispatch (advancing the clock through anticipation and idle waits),
// complete — and returns the advanced clock. It panics if the elevator
// stalls, so a benchmark cannot silently measure an empty loop.
func benchCycle(e block.Elevator, r *block.Request, now sim.Time) sim.Time {
	e.Add(r, now)
	for {
		d, wake := e.Dispatch(now)
		if d != nil {
			now = now.Add(100 * sim.Microsecond) // nominal service time
			e.Completed(d, now)
			return now
		}
		if wake <= now {
			panic("iosched: elevator stalled in benchmark cycle")
		}
		now = wake
	}
}

// benchElevator measures the full add→dispatch→complete cycle of one
// elevator with the decision recorder DISABLED (Params.Decisions nil).
// This is the hot path every uninstrumented simulation runs; it must not
// allocate once warm. A few warm-up cycles populate the per-stream maps
// and list capacities before the timer starts.
func benchElevator(b *testing.B, name string) {
	p := DefaultParams()
	if p.Decisions != nil {
		b.Fatal("default params must not carry a decision recorder")
	}
	e := MustNew(name, p)
	r := block.NewRequest(block.Read, 4096, 8, true, 1)
	now := sim.Time(0)
	for i := 0; i < 64; i++ {
		now = benchCycle(e, r, now)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = benchCycle(e, r, now)
	}
}

func BenchmarkDecisionsDisabledNoop(b *testing.B)         { benchElevator(b, Noop) }
func BenchmarkDecisionsDisabledDeadline(b *testing.B)     { benchElevator(b, Deadline) }
func BenchmarkDecisionsDisabledAnticipatory(b *testing.B) { benchElevator(b, Anticipatory) }
func BenchmarkDecisionsDisabledCFQ(b *testing.B)          { benchElevator(b, CFQ) }

// TestDecisionsDisabledZeroAlloc pins the decision-hook-disabled dispatch
// path of all four elevators at zero allocations per operation, the same
// pattern as block's TestHooksDisabledZeroAlloc: a nil DecisionRecorder
// must cost nothing, so uninstrumented runs pay nothing for the
// provenance machinery.
func TestDecisionsDisabledZeroAlloc(t *testing.T) {
	for _, name := range Names {
		name := name
		t.Run(name, func(t *testing.T) {
			res := testing.Benchmark(func(b *testing.B) { benchElevator(b, name) })
			if a := res.AllocsPerOp(); a != 0 {
				t.Fatalf("%s decisions-disabled cycle allocates %d allocs/op, want 0", name, a)
			}
		})
	}
}

// deepQueued is the elevator backlog the deep benchmark holds: a Dom0
// queue at paper scale keeps hundreds of requests queued, where the merge
// index grows, collides and deletes, unlike benchElevator's single request.
const deepQueued = 256

// deepDevice serves one request at a time, completing it a nominal service
// time later through the engine.
type deepDevice struct {
	eng       *sim.Engine
	cur       *block.Request
	done      func(*block.Request)
	fire      func() // bound once so Service does not allocate a closure
	completed int
}

func (d *deepDevice) Service(r *block.Request, done func(*block.Request)) {
	d.cur, d.done = r, done
	d.eng.Schedule(100*sim.Microsecond, d.fire)
}

// deepBench drives one elevator behind a depth-1 queue with deepQueued
// requests waiting. Eight streams submit in turn: streams 0-3 read, 4-7
// write asynchronously. Within each group one stream issues ascending runs
// of four adjacent extents (back merges), one descending runs (front
// merges), and two stride without ever touching (no merges). Requests
// come from a recycling pool, as in the simulator.
type deepBench struct {
	eng  *sim.Engine
	q    *block.Queue
	dev  *deepDevice
	pool *block.Pool
	next [8]int64 // per-stream request counter
	turn int
}

func newDeepBench(name string) *deepBench {
	eng := sim.New(1)
	dev := &deepDevice{eng: eng}
	dev.fire = func() {
		r := dev.cur
		dev.cur = nil
		dev.completed++
		dev.done(r)
	}
	w := &deepBench{
		eng:  eng,
		q:    block.NewQueue(eng, MustNew(name, DefaultParams()), dev, 1),
		dev:  dev,
		pool: block.NewPool(false, nil),
	}
	for i := 0; i < 8192; i++ {
		w.cycle()
	}
	return w
}

func (w *deepBench) submit() {
	s := w.turn % 8
	w.turn++
	k := w.next[s] % (1 << 18) // keeps each stream inside its own 1<<24-sector region
	w.next[s]++
	op, sync := block.Read, true
	if s >= 4 {
		op, sync = block.Write, false
	}
	sector := int64(s)<<24 + k*64
	switch s % 4 {
	case 0:
		sector = int64(s)<<24 + k/4*64 + k%4*8
	case 1:
		sector = int64(s)<<24 + k/4*64 + (3-k%4)*8
	}
	w.q.Submit(w.pool.Get(op, sector, 8, sync, block.StreamID(s)))
}

// cycle refills the backlog to deepQueued, then runs the engine until one
// request completes (through any anticipation or idle wait).
func (w *deepBench) cycle() {
	for w.q.Elevator().Pending() < deepQueued {
		w.submit()
	}
	n := w.dev.completed
	for w.dev.completed == n {
		if !w.eng.Step() {
			panic("iosched: elevator stalled in deep benchmark cycle")
		}
	}
}

func benchElevatorDeep(b *testing.B, name string) {
	w := newDeepBench(name)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.cycle()
	}
}

func BenchmarkElevatorDeepNoop(b *testing.B)         { benchElevatorDeep(b, Noop) }
func BenchmarkElevatorDeepDeadline(b *testing.B)     { benchElevatorDeep(b, Deadline) }
func BenchmarkElevatorDeepAnticipatory(b *testing.B) { benchElevatorDeep(b, Anticipatory) }
func BenchmarkElevatorDeepCFQ(b *testing.B)          { benchElevatorDeep(b, CFQ) }

// TestDecisionsDisabledZeroAllocDeep pins the warmed-up deep-queue cycle
// of all four elevators at zero allocations: merge-index growth, probe-run
// deletes and fifo/sorted-list churn at deepQueued must reuse memory.
func TestDecisionsDisabledZeroAllocDeep(t *testing.T) {
	for _, name := range Names {
		name := name
		t.Run(name, func(t *testing.T) {
			w := newDeepBench(name)
			if w.q.Stats().MergedRequests == 0 {
				t.Fatalf("%s: deep workload merged nothing", name)
			}
			if a := testing.AllocsPerRun(2000, w.cycle); a != 0 {
				t.Fatalf("%s deep decisions-disabled cycle allocates %v allocs/op, want 0", name, a)
			}
		})
	}
}

// TestDecisionsMetricsOnlyZeroAlloc pins the steady-state cycle of all four
// elevators at zero allocations when the decision recorder feeds only the
// sched.* metrics (no decision log, no tracer) — the recorder every run
// with a metrics registry carries — and checks the counters move.
func TestDecisionsMetricsOnlyZeroAlloc(t *testing.T) {
	for _, name := range Names {
		name := name
		t.Run(name, func(t *testing.T) {
			m := obs.NewRegistry()
			p := DefaultParams()
			p.Decisions = obs.NewDecisionRecorder(obs.Sink{Metrics: m}, 1, obs.TIDDom0, "dom0")
			e := MustNew(name, p)
			r := block.NewRequest(block.Read, 4096, 8, true, 1)
			now := sim.Time(0)
			for i := 0; i < 64; i++ {
				now = benchCycle(e, r, now)
			}
			if a := testing.AllocsPerRun(1000, func() { now = benchCycle(e, r, now) }); a != 0 {
				t.Fatalf("%s metrics-only cycle allocates %v allocs/op, want 0", name, a)
			}
			var counted int64
			for _, n := range m.Snapshot().Counters {
				counted += n
			}
			if want := name == Anticipatory || name == CFQ; (counted > 0) != want {
				t.Fatalf("%s counted %d sched decisions (want nonzero: %v)", name, counted, want)
			}
		})
	}
}

// TestNilRecorderMethodsZeroAlloc pins the recorder call sites themselves:
// invoking every DecisionRecorder method through a nil receiver — exactly
// what an un-instrumented elevator does on every decision — must not
// allocate or panic.
func TestNilRecorderMethodsZeroAlloc(t *testing.T) {
	p := DefaultParams()
	rec := p.Decisions // nil
	allocs := testing.AllocsPerRun(1000, func() {
		rec.Record(0, obs.DecDeadlineBatch)
		rec.RecordStream(0, obs.DecAnticArm, 7)
	})
	if allocs != 0 {
		t.Fatalf("nil recorder dispatch allocates %v allocs/op, want 0", allocs)
	}
}
