package iosched

import (
	"math/rand"
	"testing"
	"testing/quick"

	"adaptmr/internal/block"
	"adaptmr/internal/obs"
	"adaptmr/internal/sim"
)

func req(op block.Op, sector int64, stream block.StreamID) *block.Request {
	return block.NewRequest(op, sector, 8, op == block.Read, stream)
}

// ---------------------------------------------------------------------------
// Noop
// ---------------------------------------------------------------------------

func TestNoopFIFOOrder(t *testing.T) {
	eng := sim.New(1)
	s := NewNoop(DefaultParams())
	sectors := []int64{500, 100, 300, 200}
	for _, sec := range sectors {
		s.Add(req(block.Read, sec, 1), eng.Now())
	}
	got := drain(t, s, eng)
	for i, r := range got {
		if r.Sector != sectors[i] {
			t.Fatalf("noop reordered: got %d at %d", r.Sector, i)
		}
	}
}

func TestNoopStillMerges(t *testing.T) {
	eng := sim.New(1)
	s := NewNoop(DefaultParams())
	s.Add(req(block.Write, 100, 1), eng.Now())
	w2 := block.NewRequest(block.Write, 108, 8, false, 1)
	s.Add(w2, eng.Now())
	if s.Pending() != 1 {
		t.Fatalf("pending = %d, adjacent write not merged", s.Pending())
	}
	got := drain(t, s, eng)
	if len(got) != 1 || got[0].Count != 16 {
		t.Fatalf("merged dispatch wrong: %v", got)
	}
}

// ---------------------------------------------------------------------------
// Deadline
// ---------------------------------------------------------------------------

func TestDeadlineSortsWithinBatch(t *testing.T) {
	eng := sim.New(1)
	s := NewDeadline(DefaultParams())
	for _, sec := range []int64{500, 100, 300} {
		s.Add(req(block.Read, sec, 1), eng.Now())
	}
	got := drain(t, s, eng)
	if got[0].Sector != 100 || got[1].Sector != 300 || got[2].Sector != 500 {
		t.Fatalf("not sector-sorted: %v", got)
	}
}

func TestDeadlinePrefersReads(t *testing.T) {
	eng := sim.New(1)
	s := NewDeadline(DefaultParams())
	s.Add(req(block.Write, 100, 1), eng.Now())
	s.Add(req(block.Read, 900, 2), eng.Now())
	r, _ := s.Dispatch(eng.Now())
	if r.Op != block.Read {
		t.Fatalf("first dispatch = %v, want the read", r)
	}
}

func TestDeadlineWritesNotStarvedForever(t *testing.T) {
	eng := sim.New(1)
	p := DefaultParams()
	s := NewDeadline(p)
	s.Add(req(block.Write, 10_000, 99), eng.Now())
	writeServed := false
	// Keep a read stream saturated; the write must still be dispatched
	// within a bounded number of read batches.
	next := int64(0)
	for i := 0; i < 2000 && !writeServed; i++ {
		s.Add(req(block.Read, next, 1), eng.Now())
		next += 8
		r, _ := s.Dispatch(eng.Now())
		if r == nil {
			t.Fatal("stall")
		}
		if r.Op == block.Write {
			writeServed = true
		}
		s.Completed(r, eng.Now())
		eng.RunUntil(eng.Now().Add(sim.Millisecond))
	}
	if !writeServed {
		t.Fatal("write starved by continuous reads")
	}
}

func TestDeadlineExpiredRequestJumpsQueue(t *testing.T) {
	eng := sim.New(1)
	p := DefaultParams()
	s := NewDeadline(p)
	old := req(block.Read, 900, 1)
	s.Add(old, eng.Now())
	// Let it expire, then add a batch of low-sector reads.
	eng.RunUntil(eng.Now().Add(p.ReadExpire + sim.Millisecond))
	s.Add(req(block.Read, 100, 1), eng.Now())
	r, _ := s.Dispatch(eng.Now())
	if r != old {
		t.Fatalf("expired request not served first: got %v", r)
	}
}

// ---------------------------------------------------------------------------
// Anticipatory
// ---------------------------------------------------------------------------

// withDecisionLog returns p with a Dom0 decision recorder tallying into
// a fresh log.
func withDecisionLog(p Params) (Params, *obs.DecisionLog) {
	log := obs.NewDecisionLog()
	p.Decisions = obs.NewDecisionRecorder(obs.Sink{Decisions: log}, 1, obs.TIDDom0, "dom0")
	return p, log
}

func TestAnticipationHoldsForSameStream(t *testing.T) {
	eng := sim.New(1)
	p, log := withDecisionLog(DefaultParams())
	s := NewAnticipatory(p)
	// Stream 1 read completes; stream 2 has a far request pending.
	r1 := req(block.Read, 100, 1)
	s.Add(r1, eng.Now())
	got, _ := s.Dispatch(eng.Now())
	if got != r1 {
		t.Fatal("dispatch r1")
	}
	s.Add(req(block.Read, 1_000_000, 2), eng.Now())
	s.Completed(r1, eng.Now())
	// Now the elevator should anticipate stream 1 rather than seek to
	// stream 2.
	r, wake := s.Dispatch(eng.Now())
	if r != nil {
		t.Fatalf("dispatched %v during anticipation", r)
	}
	if wake != eng.Now().Add(p.AnticExpire) {
		t.Fatalf("wake = %v, want anticUntil", wake)
	}
	// A close request from stream 1 arrives and is served immediately.
	close1 := req(block.Read, 108, 1)
	s.Add(close1, eng.Now())
	r, _ = s.Dispatch(eng.Now())
	if r != close1 {
		t.Fatalf("close request not served: got %v", r)
	}
	// The awaited read ends the window on arrival, so it is neither a
	// timeout nor a dispatch-time hit.
	if a, h, to := log.Count("dom0", obs.DecAnticArm), log.Count("dom0", obs.DecAnticHit), log.Count("dom0", obs.DecAnticTimeout); a != 1 || h != 0 || to != 0 {
		t.Fatalf("armed/hits/timeouts = %d/%d/%d, want 1/0/0", a, h, to)
	}
}

func TestAnticipationTimeoutFallsBack(t *testing.T) {
	eng := sim.New(1)
	p, log := withDecisionLog(DefaultParams())
	s := NewAnticipatory(p)
	r1 := req(block.Read, 100, 1)
	s.Add(r1, eng.Now())
	s.Dispatch(eng.Now())
	far := req(block.Read, 1_000_000, 2)
	s.Add(far, eng.Now())
	s.Completed(r1, eng.Now())
	_, wake := s.Dispatch(eng.Now())
	eng.RunUntil(wake)
	r, _ := s.Dispatch(eng.Now())
	if r != far {
		t.Fatalf("after timeout got %v, want the far request", r)
	}
	if n := log.Count("dom0", obs.DecAnticTimeout); n != 1 {
		t.Fatalf("timeouts = %d, want 1", n)
	}
}

func TestAnticipationDistrustAfterMisses(t *testing.T) {
	eng := sim.New(1)
	p, log := withDecisionLog(DefaultParams())
	p.AnticMaxMisses = 2
	s := NewAnticipatory(p)
	completed := 0
	for i := 0; i < 4; i++ {
		r := req(block.Read, int64(100+i*1000), 1)
		s.Add(r, eng.Now())
		got, _ := s.Dispatch(eng.Now())
		if got == nil {
			t.Fatal("dispatch")
		}
		s.Completed(got, eng.Now())
		completed++
		// Let every anticipation window time out.
		_, wake := s.Dispatch(eng.Now())
		if wake > eng.Now() {
			eng.RunUntil(wake)
			s.Dispatch(eng.Now())
		}
		// Idle long past the window so trust is not rebuilt.
		eng.RunUntil(eng.Now().Add(sim.Second))
	}
	// Every window times out, so arming stops after AnticMaxMisses windows
	// while the reads themselves keep completing.
	if completed != 4 {
		t.Fatalf("completed %d reads, want 4", completed)
	}
	if a, to := log.Count("dom0", obs.DecAnticArm), log.Count("dom0", obs.DecAnticTimeout); a != int64(p.AnticMaxMisses) || to != a {
		t.Fatalf("armed/timeouts = %d/%d, want %d/%d: the stream kept its trust", a, to, p.AnticMaxMisses, p.AnticMaxMisses)
	}
}

func TestAnticipatoryFarSameStreamWaits(t *testing.T) {
	eng := sim.New(1)
	p := DefaultParams()
	s := NewAnticipatory(p)
	r1 := req(block.Read, 100, 1)
	s.Add(r1, eng.Now())
	s.Dispatch(eng.Now())
	// Same stream, but far beyond AnticCloseSectors.
	far := block.NewRequest(block.Read, 100+p.AnticCloseSectors*4, 8, true, 1)
	s.Add(far, eng.Now())
	s.Completed(r1, eng.Now())
	r, wake := s.Dispatch(eng.Now())
	if r != nil {
		t.Fatalf("far same-stream request broke anticipation: %v", r)
	}
	if wake <= eng.Now() {
		t.Fatal("no wake hint while waiting")
	}
}

func TestAnticipatoryWritesNotAnticipated(t *testing.T) {
	eng := sim.New(1)
	s := NewAnticipatory(DefaultParams())
	w := block.NewRequest(block.Write, 100, 8, false, 1)
	s.Add(w, eng.Now())
	got, _ := s.Dispatch(eng.Now())
	s.Completed(got, eng.Now())
	s.Add(block.NewRequest(block.Write, 5000, 8, false, 2), eng.Now())
	r, _ := s.Dispatch(eng.Now())
	if r == nil {
		t.Fatal("write completion must not arm anticipation")
	}
}

// ---------------------------------------------------------------------------
// CFQ
// ---------------------------------------------------------------------------

func TestCFQRoundRobinFairness(t *testing.T) {
	eng := sim.New(1)
	p := DefaultParams()
	p.SliceIdle = 0
	s := NewCFQ(p)
	// Three streams, interleaved sync reads.
	for i := 0; i < 30; i++ {
		stream := block.StreamID(i%3 + 1)
		s.Add(req(block.Read, int64(i)*1000, stream), eng.Now())
	}
	// Every stream must be served eventually (strict fairness in count
	// emerges over slices; here we check all are visited).
	seen := map[block.StreamID]int{}
	got := drain(t, s, eng)
	for _, r := range got {
		seen[r.Stream]++
	}
	if len(got) != 30 {
		t.Fatalf("drained %d", len(got))
	}
	for st := block.StreamID(1); st <= 3; st++ {
		if seen[st] != 10 {
			t.Fatalf("stream %d served %d times", st, seen[st])
		}
	}
}

func TestCFQSliceStickiness(t *testing.T) {
	eng := sim.New(1)
	s := NewCFQ(DefaultParams())
	// Two streams with several requests each; within a slice, consecutive
	// dispatches come from one stream.
	// Sectors are spaced so requests cannot merge.
	for i := 0; i < 5; i++ {
		s.Add(req(block.Read, int64(i*1000), 1), eng.Now())
		s.Add(req(block.Read, int64(1_000_000+i*1000), 2), eng.Now())
	}
	first, _ := s.Dispatch(eng.Now())
	second, _ := s.Dispatch(eng.Now())
	third, _ := s.Dispatch(eng.Now())
	if first.Stream != second.Stream || second.Stream != third.Stream {
		t.Fatalf("slice not sticky: %v %v %v", first.Stream, second.Stream, third.Stream)
	}
}

func TestCFQIdlingWindow(t *testing.T) {
	eng := sim.New(1)
	p := DefaultParams()
	s := NewCFQ(p)
	r1 := req(block.Read, 100, 1)
	s.Add(r1, eng.Now())
	s.Add(req(block.Read, 1_000_000, 2), eng.Now())
	got, _ := s.Dispatch(eng.Now())
	if got != r1 {
		t.Fatalf("first dispatch %v", got)
	}
	s.Completed(r1, eng.Now())
	// Active sync queue is empty: CFQ idles instead of switching.
	r, wake := s.Dispatch(eng.Now())
	if r != nil {
		t.Fatalf("dispatched %v during slice idle", r)
	}
	if wake != eng.Now().Add(p.SliceIdle) {
		t.Fatalf("idle wake = %v", wake)
	}
	// Same-stream arrival resumes the slice.
	cont := req(block.Read, 108, 1)
	s.Add(cont, eng.Now())
	r, _ = s.Dispatch(eng.Now())
	if r != cont {
		t.Fatalf("idle not broken by same-stream arrival: %v", r)
	}
}

func TestCFQAsyncStarvationBounded(t *testing.T) {
	eng := sim.New(1)
	p := DefaultParams()
	p.SliceIdle = 0
	s := NewCFQ(p)
	s.Add(block.NewRequest(block.Write, 1_000_000, 8, false, 9), eng.Now())
	asyncServed := false
	next := int64(0)
	for i := 0; i < 500 && !asyncServed; i++ {
		s.Add(req(block.Read, next, block.StreamID(i%4+1)), eng.Now())
		next += 8
		r, _ := s.Dispatch(eng.Now())
		if r == nil {
			t.Fatal("stall")
		}
		if !r.IsSyncFull() {
			asyncServed = true
		}
		s.Completed(r, eng.Now())
		eng.RunUntil(eng.Now().Add(20 * sim.Millisecond))
	}
	if !asyncServed {
		t.Fatal("async write starved past the cap")
	}
}

func TestCFQAsyncServedWhenNoSyncWork(t *testing.T) {
	eng := sim.New(1)
	s := NewCFQ(DefaultParams())
	w := block.NewRequest(block.Write, 100, 8, false, 1)
	s.Add(w, eng.Now())
	r, _ := s.Dispatch(eng.Now())
	if r != w {
		t.Fatalf("async write not served on idle disk: %v", r)
	}
}

// ---------------------------------------------------------------------------
// Cross-scheduler properties
// ---------------------------------------------------------------------------

// Property: under a random workload, every scheduler dispatches every
// submitted sector range exactly once (merging may coalesce requests, but
// the union of dispatched extents must equal the union of submitted ones).
func TestQuickSchedulersLoseNothing(t *testing.T) {
	for _, name := range Names {
		name := name
		t.Run(name, func(t *testing.T) {
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				eng := sim.New(seed)
				s := MustNew(name, DefaultParams())
				type ext struct{ a, b int64 }
				var want []ext
				n := 20 + rng.Intn(60)
				submitted := 0
				dispatchedSectors := int64(0)
				wantSectors := int64(0)
				for submitted < n {
					burst := 1 + rng.Intn(4)
					for k := 0; k < burst && submitted < n; k++ {
						op := block.Read
						if rng.Intn(2) == 0 {
							op = block.Write
						}
						sector := int64(rng.Intn(1000)) * 16
						count := int64(8 + rng.Intn(8))
						r := block.NewRequest(op, sector, count, op == block.Read, block.StreamID(rng.Intn(4)))
						want = append(want, ext{sector, sector + count})
						wantSectors += count
						s.Add(r, eng.Now())
						submitted++
					}
					// Service a few.
					for k := 0; k < 1+rng.Intn(3); k++ {
						r, wake := s.Dispatch(eng.Now())
						if r == nil {
							if wake > eng.Now() {
								eng.RunUntil(wake)
							}
							continue
						}
						dispatchedSectors += r.Count
						s.Completed(r, eng.Now())
						eng.RunUntil(eng.Now().Add(sim.Duration(rng.Intn(5)) * sim.Millisecond))
					}
				}
				// Drain the rest.
				for guard := 0; s.Pending() > 0; guard++ {
					if guard > 100000 {
						return false
					}
					r, wake := s.Dispatch(eng.Now())
					if r == nil {
						if wake <= eng.Now() {
							return false
						}
						eng.RunUntil(wake)
						continue
					}
					dispatchedSectors += r.Count
					s.Completed(r, eng.Now())
				}
				return dispatchedSectors == wantSectors
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCFQAsyncStarvationBoundedManyStreams pins the cap against a ring
// wider than maxAsyncStarve: with 40 busy sync streams, the async
// pseudo-queue must still be served within the 16-sync-slice cap instead
// of waiting a full ring rotation. (Before the fix, the cap only fired
// when the scan happened to reach the async queue, so enough sync
// streams starved async writes indefinitely.)
func TestCFQAsyncStarvationBoundedManyStreams(t *testing.T) {
	eng := sim.New(1)
	p := DefaultParams()
	p.SliceIdle = 0
	s := NewCFQ(p)
	const streams = 40
	next := int64(0)
	// Every sync stream has standing work before the async write arrives.
	for i := 0; i < streams; i++ {
		s.Add(req(block.Read, next, block.StreamID(i+1)), eng.Now())
		next += 8
	}
	s.Add(block.NewRequest(block.Write, 1_000_000, 8, false, 99), eng.Now())
	syncSlices := 0
	for i := 0; i < 10_000; i++ {
		r, _ := s.Dispatch(eng.Now())
		if r == nil {
			t.Fatal("stall")
		}
		if !r.IsSyncFull() {
			if syncSlices > 17 {
				t.Fatalf("async write served only after %d sync slices", syncSlices)
			}
			return
		}
		syncSlices++
		// Refill the stream so every queue stays busy.
		s.Add(req(block.Read, next, r.Stream), eng.Now())
		next += 8
		s.Completed(r, eng.Now())
		// Advance past the slice so each dispatch grants a fresh slice.
		eng.RunUntil(eng.Now().Add(p.SliceSync + sim.Millisecond))
	}
	t.Fatal("async write never served")
}

// TestCFQAsyncFifoExpiry pins cfq_check_fifo on the async pseudo-queue:
// a write parked behind the C-SCAN head is bypassed by a continuously
// refilled backlog ahead of the head until its fifo deadline
// (FifoExpireAsync) passes, after which the next async dispatch must
// serve it instead of the sector-sorted candidate.
func TestCFQAsyncFifoExpiry(t *testing.T) {
	eng := sim.New(1)
	p := DefaultParams()
	s := NewCFQ(p)

	// Establish the scan head above the victim's sector.
	s.Add(block.NewRequest(block.Write, 10_000, 8, false, 1), eng.Now())
	if r, _ := s.Dispatch(eng.Now()); r == nil || r.Sector != 10_000 {
		t.Fatalf("priming dispatch got %v", r)
	}

	victim := block.NewRequest(block.Write, 0, 8, false, 2)
	s.Add(victim, eng.Now())
	queued := eng.Now()

	const perReq = 5 * sim.Millisecond
	next := int64(10_008)
	for i := 0; i < 1000; i++ {
		// Feed the backlog ahead of the head faster than it drains, so the
		// scan never wraps back to sector 0 on its own.
		s.Add(block.NewRequest(block.Write, next, 8, false, 1), eng.Now())
		next += 8
		r, _ := s.Dispatch(eng.Now())
		if r == nil {
			t.Fatal("stall with pending work")
		}
		if r == victim {
			waited := eng.Now().Sub(queued)
			if waited < p.FifoExpireAsync {
				t.Fatalf("victim served after %v, before its %v fifo deadline", waited, p.FifoExpireAsync)
			}
			if waited > p.FifoExpireAsync+p.SliceAsync+2*perReq {
				t.Fatalf("victim served only %v after queueing (deadline %v)", waited, p.FifoExpireAsync)
			}
			return
		}
		s.Completed(r, eng.Now())
		eng.RunUntil(eng.Now().Add(perReq))
	}
	t.Fatal("victim write never served: fifo deadline ignored")
}
