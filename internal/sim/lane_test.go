package sim

import (
	"math/rand"
	"testing"
	"time"
)

// calendar is the surface the differential programs drive: the engine
// (heap plus lanes) and refEngine (heap only) both provide it.
type calendar interface {
	Now() Time
	Pending() int
	EventsFired() uint64
	Step() bool
	Run()
	RunUntil(Time)
	// schedule puts fn on the heap; cancel is valid until fn fires.
	schedule(d Duration, fn func()) (cancel func())
	// laneSchedule puts fn on the fixed-delay path for d.
	laneSchedule(d Duration, fn func())
}

type laneEngine struct{ *Engine }

func (e laneEngine) schedule(d Duration, fn func()) func() { return e.Schedule(d, fn).Cancel }
func (e laneEngine) laneSchedule(d Duration, fn func())    { e.Lane(d).Schedule(fn) }

// fireRecord is the calendar state seen from inside one fired callback.
type fireRecord struct {
	id      int
	now     Time
	pending int
	fired   uint64
}

// program is one seeded random schedule run against one calendar. Two
// programs with the same seed make identical choices for as long as their
// calendars fire the same events in the same order.
type program struct {
	cal    calendar
	rng    *rand.Rand
	delays []Duration // lane delays
	budget int        // events created before callbacks stop spawning
	nextID int
	live   []int          // heap events not yet fired or cancelled, by id
	cancel map[int]func() // their cancel handles
	log    []fireRecord
}

func newProgram(cal calendar, seed int64) *program {
	p := &program{cal: cal, rng: rand.New(rand.NewSource(seed)), cancel: map[int]func(){}}
	for n := 1 + p.rng.Intn(3); len(p.delays) < n; {
		d := Duration(0)
		if p.rng.Intn(3) > 0 {
			d = Duration(1 + p.rng.Intn(120))
		}
		p.delays = append(p.delays, d)
	}
	p.budget = 50 + p.rng.Intn(250)
	return p
}

func (p *program) callback(id int, onHeap bool) func() {
	return func() {
		if onHeap {
			p.forget(id)
		}
		p.log = append(p.log, fireRecord{id, p.cal.Now(), p.cal.Pending(), p.cal.EventsFired()})
		// Spawn from inside the callback: lane events re-enter their own
		// lane here, as the ring's completion hop re-enters Service.
		if p.nextID < p.budget {
			for k := p.rng.Intn(3); k > 0; k-- {
				p.spawn()
			}
		}
		if p.rng.Intn(8) == 0 {
			p.cancelOne()
		}
	}
}

// spawn schedules one event: on a lane half the time, else on the heap
// with a delay from a small domain so equal timestamps are common.
func (p *program) spawn() {
	id := p.nextID
	p.nextID++
	if p.rng.Intn(2) == 0 {
		p.cal.laneSchedule(p.delays[p.rng.Intn(len(p.delays))], p.callback(id, false))
		return
	}
	p.cancel[id] = p.cal.schedule(Duration(p.rng.Intn(150)), p.callback(id, true))
	p.live = append(p.live, id)
}

func (p *program) cancelOne() {
	if len(p.live) == 0 {
		return
	}
	id := p.live[p.rng.Intn(len(p.live))]
	p.cancel[id]()
	p.forget(id)
}

func (p *program) forget(id int) {
	delete(p.cancel, id)
	for i, v := range p.live {
		if v == id {
			p.live = append(p.live[:i], p.live[i+1:]...)
			return
		}
	}
}

// op performs one top-level driver action.
func (p *program) op() {
	switch r := p.rng.Intn(20); {
	case r < 8:
		p.cal.Step()
	case r < 11:
		// Cut-offs up to twice the largest delay fall between many lane
		// entries' scheduling and firing.
		p.cal.RunUntil(p.cal.Now().Add(Duration(p.rng.Intn(250))))
	case r < 12:
		p.cal.Run()
	case r < 17:
		p.spawn()
	default:
		p.cancelOne()
	}
}

func sameState(t *testing.T, seed int64, step int, got, want *program) {
	t.Helper()
	g, w := got.cal, want.cal
	if g.Now() != w.Now() || g.Pending() != w.Pending() || g.EventsFired() != w.EventsFired() {
		t.Fatalf("seed %d step %d: state now=%v pending=%d fired=%d, reference now=%v pending=%d fired=%d",
			seed, step, g.Now(), g.Pending(), g.EventsFired(), w.Now(), w.Pending(), w.EventsFired())
	}
	if len(got.log) != len(want.log) {
		t.Fatalf("seed %d step %d: %d events fired, reference %d", seed, step, len(got.log), len(want.log))
	}
	for i := range got.log {
		if got.log[i] != want.log[i] {
			t.Fatalf("seed %d step %d: fire %d = %+v, reference %+v", seed, step, i, got.log[i], want.log[i])
		}
	}
}

// TestLaneMatchesHeapOnlyCalendar drives seeded random programs mixing
// lane events on 1–3 delays (0 included), heap events, cancellations,
// equal timestamps and RunUntil cut-offs against the engine and the heap-only reference, and requires the same
// firing sequence, Now, Pending and EventsFired after every step.
func TestLaneMatchesHeapOnlyCalendar(t *testing.T) {
	programs := 2000
	if testing.Short() {
		programs = 200
	}
	for seed := int64(1); seed <= int64(programs); seed++ {
		got := newProgram(laneEngine{New(seed)}, seed)
		want := newProgram(&refEngine{}, seed)
		for i := 0; i < 4; i++ {
			got.spawn()
			want.spawn()
		}
		step := 0
		for ; step < 200; step++ {
			got.op()
			want.op()
			sameState(t, seed, step, got, want)
		}
		got.cal.Run()
		want.cal.Run()
		sameState(t, seed, step, got, want)
	}
}

// ringShape drives streams in the Xen ring's pattern: a fixed-delay
// forward hop, a variable-delay disk service on the heap, and a
// fixed-delay completion hop whose callback issues the stream's next
// request from inside itself, as the guest queue re-enters Service.
type ringShape struct {
	hop  func(fn func())
	disk func(d Duration, fn func())
	rng  *rand.Rand
	log  *[]int // stream id × 3 + phase, when non-nil
	id   int

	forwardFn, serviceFn, backFn func()
}

const ringHop = 60 * Microsecond

func newRingShape(id int, log *[]int, hop func(func()), disk func(Duration, func())) *ringShape {
	s := &ringShape{hop: hop, disk: disk, rng: rand.New(rand.NewSource(int64(id))), log: log, id: id}
	s.forwardFn, s.serviceFn, s.backFn = s.forward, s.service, s.back
	return s
}

func (s *ringShape) record(phase int) {
	if s.log != nil {
		*s.log = append(*s.log, s.id*3+phase)
	}
}

func (s *ringShape) forward() {
	s.record(0)
	s.disk(Duration(s.rng.Intn(8000))*Microsecond, s.serviceFn)
}

func (s *ringShape) service() {
	s.record(1)
	s.hop(s.backFn)
}

func (s *ringShape) back() {
	s.record(2)
	s.hop(s.forwardFn)
}

// TestLaneReentrantRing runs eight ring-shaped streams on the lane and on
// the heap-only reference and requires the same firing order.
func TestLaneReentrantRing(t *testing.T) {
	const streams, events = 8, 20000
	run := func(c calendar) []int {
		var log []int
		hop := func(fn func()) { c.laneSchedule(ringHop, fn) }
		disk := func(d Duration, fn func()) { c.schedule(d, fn) }
		for i := 0; i < streams; i++ {
			hop(newRingShape(i, &log, hop, disk).forwardFn)
		}
		for c.EventsFired() < events && c.Step() {
		}
		return log
	}
	got, want := run(laneEngine{New(1)}), run(&refEngine{})
	if len(got) != events || len(want) != events {
		t.Fatalf("fired %d lane / %d reference events, want %d", len(got), len(want), events)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("fire %d: lane %d, reference %d", i, got[i], want[i])
		}
	}
}

func TestLaneSharedPerDelay(t *testing.T) {
	e := New(1)
	a, b := e.Lane(ringHop), e.Lane(ringHop)
	if a != b {
		t.Fatal("equal delays returned different lanes")
	}
	if e.Lane(-5) != e.Lane(0) {
		t.Fatal("negative delay not clamped to the zero-delay lane")
	}
	if e.Lane(ringHop+1) == a {
		t.Fatal("different delays share a lane")
	}
}

// TestLaneZeroAlloc pins the steady state: once the ring buffer has grown,
// a lane Schedule plus the Step that fires it allocates nothing.
func TestLaneZeroAlloc(t *testing.T) {
	e := New(1)
	lane := e.Lane(ringHop)
	noop := func() {}
	for i := 0; i < 64; i++ {
		lane.Schedule(noop)
	}
	allocs := testing.AllocsPerRun(10000, func() {
		lane.Schedule(noop)
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("lane Schedule+Step allocates %.2f per event, want 0", allocs)
	}
}

// BenchmarkEngineRingShape times eight ring-shaped streams with both hops
// on the heap (heap-only) and on one lane (lane), in ns per fired event.
func BenchmarkEngineRingShape(b *testing.B) {
	for _, useLane := range []bool{false, true} {
		name := "heap-only"
		if useLane {
			name = "lane"
		}
		b.Run(name, func(b *testing.B) {
			e := New(1)
			disk := func(d Duration, fn func()) { e.Schedule(d, fn) }
			hop := func(fn func()) { e.Schedule(ringHop, fn) }
			if useLane {
				hop = e.Lane(ringHop).Schedule
			}
			for i := 0; i < 8; i++ {
				hop(newRingShape(i, nil, hop, disk).forwardFn)
			}
			b.ReportAllocs()
			b.ResetTimer()
			start := time.Now()
			for e.EventsFired() < uint64(b.N) {
				e.Step()
			}
			b.ReportMetric(float64(time.Since(start).Nanoseconds())/float64(b.N), "ns/event")
		})
	}
}
