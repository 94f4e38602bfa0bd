package check

import (
	"fmt"

	"adaptmr/internal/block"
	"adaptmr/internal/iosched"
	"adaptmr/internal/sim"
)

// This file decodes fuzzer byte strings into bounded workload programs and
// runs them through a block.Queue under the invariant checker. A program is
// a sequence of timed operations — request submissions, delays, and live
// elevator switches — plus a queue depth and a device latency class. The
// same program is replayed against every elevator and against the RefFIFO
// reference model; DiffRun cross-checks conservation and terminal state.

// maxProgOps bounds a decoded program so a pathological input cannot make a
// single fuzz iteration unboundedly slow.
const maxProgOps = 256

// progSectorSpace keeps sectors in a small range so merges and overlapping
// extents actually happen instead of being measure-zero events.
const progSectorSpace = 4096

type progOpKind uint8

const (
	opSubmit progOpKind = iota
	opSwitch
)

// progOp is one decoded operation with an absolute firing time.
type progOp struct {
	kind progOpKind
	at   sim.Time

	// opSubmit fields.
	op     block.Op
	sync   bool
	stream block.StreamID
	sector int64
	count  int64

	// opSwitch fields.
	target string
	reinit sim.Duration
}

// Program is a decoded, bounded workload ready to replay against any
// elevator.
type Program struct {
	Depth   int          // queue dispatch depth, 1..8
	Latency sim.Duration // per-request device service time; 0 = synchronous
	Ops     []progOp

	Submits int   // number of opSubmit entries
	Bytes   int64 // total bytes across all submits
}

// DecodeProgram parses fuzz input bytes into a Program. It returns ok=false
// for inputs too short to describe any work; every longer input decodes to
// some valid program (the decoder never rejects, so the fuzzer's mutations
// always reach the simulator).
func DecodeProgram(data []byte) (*Program, bool) {
	if len(data) < 4 {
		return nil, false
	}
	d := &progDecoder{data: data}

	p := &Program{}
	p.Depth = 1 + int(d.take()%8)
	switch d.take() % 4 {
	case 0:
		p.Latency = 0 // synchronous completion: exercises kick re-entrancy
	case 1:
		p.Latency = 50 * sim.Microsecond
	case 2:
		p.Latency = 500 * sim.Microsecond
	default:
		p.Latency = 5 * sim.Millisecond
	}

	var now sim.Time
	for !d.empty() && len(p.Ops) < maxProgOps {
		switch d.take() % 8 {
		case 6: // delay: advance the submission clock
			now = now.Add(sim.Duration(1+int64(d.take())%100) * 100 * sim.Microsecond)
		case 7: // live elevator switch
			op := progOp{
				kind:   opSwitch,
				at:     now,
				target: iosched.Names[d.take()%4],
				reinit: sim.Duration(d.take()%4) * sim.Millisecond,
			}
			p.Ops = append(p.Ops, op)
		default: // submit (weighted 6/8 so programs are I/O heavy)
			flags := d.take()
			op := progOp{
				kind:   opSubmit,
				at:     now,
				op:     block.Op(flags % 2),
				sync:   flags&2 != 0,
				stream: block.StreamID(d.take() % 4),
				sector: int64(d.take16()) % progSectorSpace,
				count:  1 + int64(d.take())%64,
			}
			p.Ops = append(p.Ops, op)
			p.Submits++
			p.Bytes += op.count * block.SectorSize
		}
	}
	if p.Submits == 0 {
		return nil, false
	}
	return p, true
}

type progDecoder struct {
	data []byte
	pos  int
}

func (d *progDecoder) empty() bool { return d.pos >= len(d.data) }

func (d *progDecoder) take() byte {
	if d.pos >= len(d.data) {
		return 0
	}
	b := d.data[d.pos]
	d.pos++
	return b
}

func (d *progDecoder) take16() uint16 {
	return uint16(d.take())<<8 | uint16(d.take())
}

// progDevice is a deterministic fixed-latency device supporting concurrent
// service up to the queue's depth. Latency 0 completes synchronously inside
// Service, which is the regime that historically broke Queue.kick.
type progDevice struct {
	eng     *sim.Engine
	latency sim.Duration
}

// Service implements block.Device.
func (d *progDevice) Service(r *block.Request, done func(*block.Request)) {
	if d.latency == 0 {
		done(r)
		return
	}
	d.eng.Schedule(d.latency, func() { done(r) })
}

// RunResult captures one elevator's replay of a program.
type RunResult struct {
	Elevator  string
	Completed int   // OnComplete callbacks fired
	BytesDone int64 // bytes across completed requests (pre-merge extents)
	Stats     block.QueueStats
	Pending   int // elevator backlog after the event horizon (should be 0)
	InFlight  int // device in-flight after the event horizon (should be 0)
}

// newProgElevator builds the elevator for a program run; it accepts the
// RefFIFO reference model in addition to the real scheduler names.
func newProgElevator(name string, p iosched.Params) (block.Elevator, error) {
	if name == RefName {
		return NewRefFIFO(), nil
	}
	return iosched.New(name, p)
}

// eventBudget bounds the events one replay of prog may fire. A program
// fires a few events per op (submission, completion, wake and switch
// timers), so a replay past the budget means an elevator that keeps
// re-arming timers without dispatching: a livelock.
func eventBudget(prog *Program) uint64 { return 64*uint64(len(prog.Ops)) + 10000 }

// RunProgram replays prog against the named elevator with the invariant
// checker attached, returning the terminal accounting and any violations
// recorded by the checker (including Final drain checks). It returns an
// error naming the elevator if the replay exceeds its event budget, so a
// livelock fails a fuzz input instead of stalling the fuzzer (Go fuzzing
// has no per-input timeout).
func RunProgram(prog *Program, elvName string) (RunResult, *Set, error) {
	return runProgram(prog, elvName, newProgElevator)
}

// runProgram is RunProgram with the elevator constructor as a parameter,
// so tests can install a deliberately broken elevator.
func runProgram(prog *Program, elvName string, newElv func(string, iosched.Params) (block.Elevator, error)) (RunResult, *Set, error) {
	eng := sim.New(1)
	params := iosched.DefaultParams()
	elv, err := newElv(elvName, params)
	if err != nil {
		return RunResult{}, nil, err
	}
	dev := &progDevice{eng: eng, latency: prog.Latency}
	q := block.NewQueue(eng, elv, dev, prog.Depth)

	set := NewSet()
	inv := set.Attach(eng, q, elvName, params)

	// Requests come from a checked (detect-only) pool, the same lifecycle
	// mode the full simulator uses under invariant checking: every fuzzed
	// program exercises free-at-complete — the Queue Puts each request
	// (and its merged children) back after completion hooks — and a
	// double free or a Submit of a freed request surfaces as a violation
	// instead of silent memory reuse.
	pool := block.NewPool(true, func(format string, args ...any) {
		set.Report(elvName, "pool-lifecycle", eng.Now(), fmt.Sprintf(format, args...))
	})

	res := RunResult{Elevator: elvName}
	for i := range prog.Ops {
		op := prog.Ops[i] // copy: the closure must not alias the loop slot
		switch op.kind {
		case opSubmit:
			// Capture the submitted size now: by completion time a merge
			// parent's extent has grown to cover its children, so summing
			// r.Bytes() at completion would double-count merged bytes.
			bytes := op.count * block.SectorSize
			eng.At(op.at, func() {
				r := pool.Get(op.op, op.sector, op.count, op.sync, op.stream)
				r.OnComplete = func(*block.Request) {
					res.Completed++
					res.BytesDone += bytes
				}
				q.Submit(r)
			})
		case opSwitch:
			// The reference run keeps the reference model across switches
			// (a fresh RefFIFO each time): the drain mechanics are still
			// exercised, but the model stays trivially correct.
			target := op.target
			if elvName == RefName {
				target = RefName
			}
			eng.At(op.at, func() {
				next, err := newElv(target, params)
				if err != nil {
					panic(err)
				}
				q.SetElevator(next, op.reinit, nil)
			})
		}
	}
	for budget := eventBudget(prog); eng.Step(); {
		if eng.EventsFired() > budget {
			return res, set, fmt.Errorf("%s: replay exceeded its budget of %d events (livelock?)", elvName, budget)
		}
	}

	res.Stats = q.Stats()
	res.Pending = q.Pending()
	res.InFlight = q.InFlight()
	_ = inv
	set.Finalize()
	return res, set, nil
}

// DiffRun replays prog against every real elevator plus the RefFIFO
// reference model and cross-checks:
//
//   - the invariant checker stays clean on every run (including Final);
//   - every model drains completely (no stranded elevator backlog or
//     device in-flight once the event horizon is reached);
//   - every model completes exactly the program's submitted requests
//     (callback count) and conserves bytes;
//   - dispatched + merged request counts re-add to the submitted count
//     (merging moves requests between buckets, never loses them).
//
// It returns a descriptive error naming the first disagreement.
func DiffRun(prog *Program) error {
	models := append([]string{RefName}, iosched.Names...)
	for _, name := range models {
		res, set, err := RunProgram(prog, name)
		if err != nil {
			return err
		}
		if err := set.Err(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if res.Pending != 0 || res.InFlight != 0 {
			return fmt.Errorf("%s: stranded work at event horizon: pending=%d inflight=%d",
				name, res.Pending, res.InFlight)
		}
		if res.Completed != prog.Submits {
			return fmt.Errorf("%s: completed %d of %d submitted requests",
				name, res.Completed, prog.Submits)
		}
		if res.BytesDone != prog.Bytes {
			return fmt.Errorf("%s: completed %d bytes of %d submitted",
				name, res.BytesDone, prog.Bytes)
		}
		served := res.Stats.ReadRequests + res.Stats.WriteRequests + res.Stats.MergedRequests
		if served != int64(prog.Submits) {
			return fmt.Errorf("%s: dispatched(%d+%d)+merged(%d) = %d requests, submitted %d",
				name, res.Stats.ReadRequests, res.Stats.WriteRequests,
				res.Stats.MergedRequests, served, prog.Submits)
		}
		if got := res.Stats.ReadBytes + res.Stats.WriteBytes; got != prog.Bytes {
			return fmt.Errorf("%s: queue accounted %d bytes, submitted %d", name, got, prog.Bytes)
		}
	}
	return nil
}
