package check

import (
	"strings"
	"testing"

	"adaptmr/internal/block"
	"adaptmr/internal/iosched"
	"adaptmr/internal/sim"
)

// hasViolation reports whether the set recorded at least one violation of
// the given invariant id.
func hasViolation(s *Set, invariant string) bool {
	for _, v := range s.Violations() {
		if v.Invariant == invariant {
			return true
		}
	}
	return false
}

func newCheckedQueue(t *testing.T, elvName string, depth int, latency sim.Duration) (*sim.Engine, *block.Queue, *Set, *Invariants) {
	t.Helper()
	eng := sim.New(1)
	p := iosched.DefaultParams()
	elv, err := newProgElevator(elvName, p)
	if err != nil {
		t.Fatal(err)
	}
	q := block.NewQueue(eng, elv, &progDevice{eng: eng, latency: latency}, depth)
	set := NewSet()
	inv := set.Attach(eng, q, "test/q0", p)
	return eng, q, set, inv
}

// TestCheckerCleanRun pins that a well-behaved queue run produces zero
// violations for every elevator including the reference model.
func TestCheckerCleanRun(t *testing.T) {
	for _, name := range append([]string{RefName}, iosched.Names...) {
		t.Run(name, func(t *testing.T) {
			eng, q, set, inv := newCheckedQueue(t, name, 2, 100*sim.Microsecond)
			for i := 0; i < 20; i++ {
				i := i
				eng.Schedule(sim.Duration(i)*50*sim.Microsecond, func() {
					op := block.Read
					if i%3 == 0 {
						op = block.Write
					}
					q.Submit(block.NewRequest(op, int64(i%5)*128, 8, i%2 == 0, block.StreamID(i%3)))
				})
			}
			eng.Run()
			set.Finalize()
			if err := set.Err(); err != nil {
				t.Fatalf("clean run flagged: %v", err)
			}
			if inv.Submitted() != 20 || inv.Completed() != 20 {
				t.Fatalf("submitted=%d completed=%d, want 20/20", inv.Submitted(), inv.Completed())
			}
			if inv.BytesIn() != inv.BytesOut() {
				t.Fatalf("bytes in %d != out %d", inv.BytesIn(), inv.BytesOut())
			}
		})
	}
}

// TestCheckerDoubleSubmit drives the enqueue handler directly with the
// same request twice; the checker must flag the second as a lifecycle
// violation.
func TestCheckerDoubleSubmit(t *testing.T) {
	_, _, set, inv := newCheckedQueue(t, iosched.Noop, 1, 0)
	r := block.NewRequest(block.Read, 0, 8, true, 1)
	inv.enqueue(r)
	inv.enqueue(r)
	if !hasViolation(set, "exactly-once") {
		t.Fatalf("double submit not flagged: %v", set.Violations())
	}
}

// TestCheckerDoubleComplete walks one request through a legal lifecycle
// and then completes it a second time.
func TestCheckerDoubleComplete(t *testing.T) {
	_, _, set, inv := newCheckedQueue(t, iosched.Noop, 1, 0)
	r := block.NewRequest(block.Read, 0, 8, true, 1)
	inv.enqueue(r)
	inv.dispatch(r)
	inv.complete(r)
	if err := set.Err(); err != nil {
		t.Fatalf("legal lifecycle flagged: %v", err)
	}
	inv.complete(r)
	if !hasViolation(set, "exactly-once") {
		t.Fatalf("double complete not flagged: %v", set.Violations())
	}
}

// TestCheckerCompleteWithoutDispatch flags a completion for a request
// that was never dispatched.
func TestCheckerCompleteWithoutDispatch(t *testing.T) {
	_, _, set, inv := newCheckedQueue(t, iosched.Noop, 1, 0)
	r := block.NewRequest(block.Write, 64, 8, false, 1)
	inv.enqueue(r)
	inv.complete(r)
	if !hasViolation(set, "exactly-once") {
		t.Fatalf("complete-without-dispatch not flagged: %v", set.Violations())
	}
}

// TestCheckerMergedChildDispatched flags a merged child being dispatched
// on its own, and a merge whose parent extent does not cover the child.
func TestCheckerMergedChildDispatched(t *testing.T) {
	_, _, set, inv := newCheckedQueue(t, iosched.Noop, 1, 0)
	parent := block.NewRequest(block.Read, 0, 16, true, 1)
	child := block.NewRequest(block.Read, 8, 8, true, 1)
	inv.enqueue(parent)
	inv.enqueue(child)
	inv.merge(parent, child)
	if err := set.Err(); err != nil {
		t.Fatalf("legal merge flagged: %v", err)
	}
	inv.dispatch(child)
	if !hasViolation(set, "exactly-once") {
		t.Fatalf("merged-child dispatch not flagged: %v", set.Violations())
	}

	// Non-covering merge.
	_, _, set2, inv2 := newCheckedQueue(t, iosched.Noop, 1, 0)
	p2 := block.NewRequest(block.Read, 0, 8, true, 1)
	c2 := block.NewRequest(block.Read, 100, 8, true, 1)
	inv2.enqueue(p2)
	inv2.enqueue(c2)
	inv2.merge(p2, c2)
	if !hasViolation(set2, "merge-bytes") {
		t.Fatalf("non-covering merge not flagged: %v", set2.Violations())
	}
}

// lossyDevice swallows every nth request: done() is never called, so the
// request stays in flight forever — the checker's Final audit must report
// the leak. This is a black-box test through the real queue.
type lossyDevice struct {
	eng   *sim.Engine
	n     int
	count int
}

func (d *lossyDevice) Service(r *block.Request, done func(*block.Request)) {
	d.count++
	if d.count == d.n {
		return // lost
	}
	d.eng.Schedule(10*sim.Microsecond, func() { done(r) })
}

func TestCheckerDetectsLostRequest(t *testing.T) {
	eng := sim.New(1)
	p := iosched.DefaultParams()
	q := block.NewQueue(eng, iosched.MustNew(iosched.Noop, p), &lossyDevice{eng: eng, n: 2}, 2)
	set := NewSet()
	set.Attach(eng, q, "test/lossy", p)
	for i := 0; i < 3; i++ {
		q.Submit(block.NewRequest(block.Read, int64(i)*64, 8, true, 1))
	}
	eng.Run()
	set.Finalize()
	if !hasViolation(set, "leak") {
		t.Fatalf("lost request not flagged: %v", set.Violations())
	}
	err := set.Err()
	if err == nil || !strings.Contains(err.Error(), "test/lossy") {
		t.Fatalf("Err() should name the queue: %v", err)
	}
}

// TestSetErrCapsStorage pins that the violation log caps its storage but
// keeps counting.
func TestSetErrCapsStorage(t *testing.T) {
	_, _, set, inv := newCheckedQueue(t, iosched.Noop, 1, 0)
	r := block.NewRequest(block.Read, 0, 8, true, 1)
	inv.enqueue(r)
	for i := 0; i < maxStoredViolations+10; i++ {
		inv.enqueue(r) // each one is a double-submit violation
	}
	if got := set.Total(); got != maxStoredViolations+10 {
		t.Fatalf("Total() = %d, want %d", got, maxStoredViolations+10)
	}
	if got := len(set.Violations()); got != maxStoredViolations {
		t.Fatalf("stored %d violations, want cap %d", got, maxStoredViolations)
	}
	if err := set.Err(); err == nil || !strings.Contains(err.Error(), "more") {
		t.Fatalf("Err() should mention truncation: %v", err)
	}
}

// TestCheckerSwitchDrain runs a live elevator switch mid-workload through
// the real queue and asserts the checker stays clean: backlogged requests
// replay after the drain without tripping the backlogged-dispatch check,
// and all accounting balances.
func TestCheckerSwitchDrain(t *testing.T) {
	eng, q, set, inv := newCheckedQueue(t, iosched.CFQ, 2, 200*sim.Microsecond)
	for i := 0; i < 10; i++ {
		i := i
		eng.Schedule(sim.Duration(i)*100*sim.Microsecond, func() {
			q.Submit(block.NewRequest(block.Read, int64(i)*256, 8, true, block.StreamID(i%2)))
		})
	}
	eng.Schedule(250*sim.Microsecond, func() {
		q.SetElevator(iosched.MustNew(iosched.Deadline, iosched.DefaultParams()), sim.Millisecond, nil)
	})
	eng.Run()
	set.Finalize()
	if err := set.Err(); err != nil {
		t.Fatalf("switch drain flagged: %v", err)
	}
	if inv.Completed() != 10 {
		t.Fatalf("completed %d of 10", inv.Completed())
	}
	if q.Stats().Switches != 1 {
		t.Fatalf("Switches = %d, want 1", q.Stats().Switches)
	}
}

// livelockElevator queues requests but never dispatches them, re-arming
// its wake timer one nanosecond ahead forever.
type livelockElevator struct{ pending int }

func (e *livelockElevator) Name() string                       { return "livelock" }
func (e *livelockElevator) Add(*block.Request, sim.Time)       { e.pending++ }
func (e *livelockElevator) Completed(*block.Request, sim.Time) {}
func (e *livelockElevator) Pending() int                       { return e.pending }
func (e *livelockElevator) Dispatch(now sim.Time) (*block.Request, sim.Time) {
	return nil, now + 1
}

// TestRunProgramEventBudget pins the replay's event budget: an elevator
// that livelocks returns an error naming it instead of hanging the run.
func TestRunProgramEventBudget(t *testing.T) {
	prog, ok := DecodeProgram(seedPrograms()[0])
	if !ok {
		t.Fatal("seed program did not decode")
	}
	_, _, err := runProgram(prog, "livelock", func(string, iosched.Params) (block.Elevator, error) {
		return &livelockElevator{}, nil
	})
	if err == nil || !strings.Contains(err.Error(), "livelock") || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("livelocked replay returned %v, want a budget error naming the elevator", err)
	}
}
