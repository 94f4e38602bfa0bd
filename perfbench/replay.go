package main

import (
	"fmt"
	"sort"
	"time"

	"adaptmr/internal/block"
	"adaptmr/internal/disk"
	"adaptmr/internal/iosched"
	"adaptmr/internal/netsim"
	"adaptmr/internal/sim"
	"adaptmr/internal/xen"
)

// Layer replays: each feeds a recorded stream from a traced run through
// one layer's public API on a fresh engine and reports the host time it
// took together with the work it completed, so the caller can both time
// the layer and check that the replay carried the recorded traffic.

// replayed is the outcome of one replay.
type replayed struct {
	ops   int64 // requests, flows or events driven
	done  int64 // operations that completed
	bytes float64
	wall  time.Duration
}

// fixedDevice completes requests in FIFO order after a fixed latency. It
// stands in for everything below a queue so a queue replay times only the
// queue and its elevator.
type fixedDevice struct {
	eng      *sim.Engine
	lat      sim.Duration
	inflight []*block.Request
	head     int
	done     func(*block.Request)
	fireFn   func()
}

func newFixedDevice(eng *sim.Engine, lat sim.Duration) *fixedDevice {
	d := &fixedDevice{eng: eng, lat: lat}
	d.fireFn = d.fire
	return d
}

// Service implements block.Device.
func (d *fixedDevice) Service(r *block.Request, done func(*block.Request)) {
	d.done = done
	d.inflight = append(d.inflight, r)
	d.eng.Schedule(d.lat, d.fireFn)
}

func (d *fixedDevice) fire() {
	r := d.inflight[d.head]
	d.inflight[d.head] = nil
	d.head++
	if d.head == len(d.inflight) {
		d.inflight, d.head = d.inflight[:0], 0
	}
	d.done(r)
}

// drive submits n recorded operations open-loop: operation i, whose
// recorded time is at(i) (non-decreasing), is handed to submit at that
// time, using one self-rescheduling event per distinct timestamp.
func drive(eng *sim.Engine, n int, at func(i int) sim.Time, submit func(i int)) {
	if n == 0 {
		return
	}
	i := 0
	var next func()
	next = func() {
		now := eng.Now()
		for i < n && at(i) <= now {
			submit(i)
			i++
		}
		if i < n {
			eng.At(at(i), next)
		}
	}
	eng.At(at(0), next)
}

// driveSubs is drive over a recorded submission stream.
func driveSubs(eng *sim.Engine, subs []sub, submit func(s *sub)) {
	drive(eng, len(subs), func(i int) sim.Time { return subs[i].at }, func(i int) { submit(&subs[i]) })
}

// replayQueue replays one recorded queue stream through block.NewQueue
// and the named elevator over a fixed-latency device.
func replayQueue(qs *queueStream, elevator string) (replayed, error) {
	var out replayed
	eng := sim.New(1)
	elv, err := iosched.New(elevator, iosched.DefaultParams())
	if err != nil {
		return out, err
	}
	q := block.NewQueue(eng, elv, newFixedDevice(eng, qs.latency()), qs.depth)
	pool := block.NewPool(false, nil)
	onDone := func(*block.Request) { out.done++ }
	start := time.Now()
	driveSubs(eng, qs.subs, func(s *sub) {
		r := pool.Get(s.op, s.sector, s.count, s.sync, s.stream)
		r.OnComplete = onDone
		q.Submit(r)
	})
	eng.Run()
	out.wall = time.Since(start)
	st := q.Stats()
	out.ops = int64(len(qs.subs))
	out.bytes = float64(st.ReadBytes + st.WriteBytes)
	if served := st.ReadRequests + st.WriteRequests + st.MergedRequests; served != out.ops {
		return out, fmt.Errorf("%s replay under %s: served %d of %d requests", qs.name, elevator, served, out.ops)
	}
	return out, nil
}

// replayLevel replays every queue of one level under one elevator.
func replayLevel(qs []*queueStream, elevator string) (replayed, error) {
	var sum replayed
	for _, q := range qs {
		r, err := replayQueue(q, elevator)
		if err != nil {
			return sum, err
		}
		sum.ops += r.ops
		sum.done += r.done
		sum.bytes += r.bytes
		sum.wall += r.wall
	}
	return sum, nil
}

// diskSink keeps the service-time sum observable so the replay loop is
// not optimised away.
var diskSink sim.Duration

// replayDisk feeds every recorded Dom0 dispatch through Disk.ServiceParts
// with the head where the previous request left it.
func replayDisk(dom0 []*queueStream) replayed {
	var out replayed
	d := disk.New(sim.New(1), xen.DefaultHostConfig().Disk)
	r := block.NewRequest(block.Read, 0, 1, false, 0)
	start := time.Now()
	for _, qs := range dom0 {
		var head int64
		for _, e := range qs.dispatched {
			r.Sector, r.Count = e.sector, e.count
			seek, rot, xfer := d.ServiceParts(r, head)
			diskSink += seek + rot + xfer
			head = e.sector + e.count
			out.ops++
			out.done++
		}
	}
	out.wall = time.Since(start)
	return out
}

// replayNet sends every recorded flow through Network.Send at its
// recorded start time on a fresh network.
func replayNet(ns *netStream) (replayed, error) {
	var out replayed
	eng := sim.New(1)
	net := netsim.New(eng, ns.nodes, netsim.DefaultConfig())
	net.OnFlowDone = func(f *netsim.Flow) {
		out.done++
		out.bytes += f.Bytes()
	}
	flows := append([]flowRec(nil), ns.flows...)
	sort.SliceStable(flows, func(a, b int) bool { return flows[a].at < flows[b].at })
	start := time.Now()
	drive(eng, len(flows), func(i int) sim.Time { return flows[i].at }, func(i int) {
		net.Send(flows[i].src, flows[i].dst, flows[i].bytes, nil)
	})
	eng.Run()
	out.wall = time.Since(start)
	out.ops = int64(len(flows))
	if out.done != out.ops {
		return out, fmt.Errorf("network replay completed %d of %d flows", out.done, out.ops)
	}
	return out, nil
}

// replayEngine drives the event calendar alone: depth pending events,
// each firing rescheduling itself a pseudo-random delay ahead, until
// events have fired — Engine.At and Engine.Step at a run's event count
// and calendar depth.
func replayEngine(events int64, depth int) replayed {
	var out replayed
	eng := sim.New(1)
	x := uint64(1)
	var fire func()
	fire = func() {
		x = x*6364136223846793005 + 1442695040888963407
		eng.Schedule(sim.Duration(1+(x>>33)%uint64(sim.Second)), fire)
	}
	for i := 0; i < max(depth, 1); i++ {
		fire()
	}
	start := time.Now()
	for out.ops < events && eng.Step() {
		out.ops++
	}
	out.wall = time.Since(start)
	out.done = out.ops
	return out
}
