package main

import (
	"fmt"
	"math"

	"adaptmr/internal/block"
	"adaptmr/internal/cluster"
	"adaptmr/internal/netsim"
	"adaptmr/internal/sim"
)

// The recorder observes one traced run from outside the simulator: it
// subscribes to the public queue, network and engine hooks, keeps the
// per-layer counts, and records the streams the layer replays consume.
// It also audits the run: every enqueued request must complete exactly
// once (directly or merged into another), and the network must deliver
// every byte it was asked to send.

// sub is one recorded queue submission.
type sub struct {
	at     sim.Time
	op     block.Op
	sync   bool
	stream block.StreamID
	sector int64
	count  int64
}

// extent is one request handed to a physical disk.
type extent struct {
	sector, count int64
}

// queueStream is everything recorded at one block queue.
type queueStream struct {
	name  string
	depth int
	subs  []sub
	bytes int64 // submitted bytes (pre-merge extents)

	merged    int64
	completed int64
	// service is the summed device time of completed requests; its mean is
	// the fixed device latency the replay uses.
	service sim.Duration

	dispatched []extent // Dom0 queues only: the disk's request stream
}

// latency is the mean recorded device service time.
func (q *queueStream) latency() sim.Duration {
	if q.completed == 0 {
		return 0
	}
	return q.service / sim.Duration(q.completed)
}

// flowRec is one recorded network transfer.
type flowRec struct {
	at       sim.Time
	src, dst int
	bytes    float64
}

// netStream is the flow list of one cluster network.
type netStream struct {
	nodes int
	flows []flowRec
}

// trace is the record of one traced run: one cluster, or every cell of a
// fleet merged in cell order.
type trace struct {
	dom0, vm []*queueStream
	// hostVMs[h] lists host h's guest queue indexes into vm.
	hostVMs [][]int
	nets    []*netStream

	events      int64
	peakPending int
	peakActive  int
	dirtyPeak   int64

	// switches and switchStall count elevator switch drains after attach
	// (the boot-time pair install is excluded).
	switches    int64
	switchStall sim.Duration

	// dom0Wait sums Issued→Completed over the dom0Completed requests the
	// Dom0 queues completed (merged children excluded).
	dom0Wait      sim.Duration
	dom0Completed int64

	diskRequests, diskSeeks int64
	diskBusy                sim.Duration
	cpuBusy                 sim.Duration
	netBytes                float64

	// ledger tracks every request by identity. Under invariant checking
	// the hosts' request pools never recycle memory, so identity is
	// unique for the whole run.
	ledger map[*block.Request]uint8
	errs   []string
}

const (
	reqQueued uint8 = iota + 1
	reqMerged
	reqDone
)

func (t *trace) violate(format string, args ...any) {
	if len(t.errs) < 10 {
		t.errs = append(t.errs, fmt.Sprintf(format, args...))
	}
}

// recorder attaches to one cluster and records into its own trace, so
// cells simulated on different goroutines never share one.
type recorder struct {
	t   *trace
	cl  *cluster.Cluster
	eng *sim.Engine
	net *netsim.Network
	ns  *netStream

	flowBytes float64
	flowsDone int64
}

// attach subscribes a recorder to every queue, the network and the engine
// of cl. It must run before the cluster carries any traffic.
func attach(cl *cluster.Cluster) *recorder {
	t := &trace{ledger: make(map[*block.Request]uint8)}
	r := &recorder{t: t, cl: cl, eng: cl.Eng, net: cl.Net, ns: &netStream{nodes: len(cl.Hosts)}}
	t.nets = []*netStream{r.ns}
	forEachQueue(cl, func(q *block.Queue) {
		st := q.Stats()
		t.switches -= int64(st.Switches)
		t.switchStall -= st.SwitchStall
	})
	for hi, h := range cl.Hosts {
		d0 := r.watch(h.Dom0Queue(), fmt.Sprintf("host%d/dom0", hi), true)
		t.dom0 = append(t.dom0, d0)
		var vms []int
		for vi, d := range h.Domains() {
			vms = append(vms, len(t.vm))
			t.vm = append(t.vm, r.watch(d.Queue(), fmt.Sprintf("host%d/vm%d", hi, vi), false))
		}
		t.hostVMs = append(t.hostVMs, vms)
	}
	cl.Net.OnFlowDone = func(f *netsim.Flow) {
		r.ns.flows = append(r.ns.flows, flowRec{at: f.Start(), src: f.Src(), dst: f.Dst(), bytes: f.Bytes()})
		r.flowBytes += f.Bytes()
		r.flowsDone++
	}
	cl.Eng.SetObserver(r)
	return r
}

// EventFired implements sim.Observer: it samples calendar depth, active
// flows and dirty page-cache bytes at every event.
func (r *recorder) EventFired(sim.Time) {
	if p := r.eng.Pending(); p > r.t.peakPending {
		r.t.peakPending = p
	}
	if a := r.net.Active(); a > r.t.peakActive {
		r.t.peakActive = a
	}
	for vm := 0; vm < r.cl.NumVMs(); vm++ {
		if d := r.cl.FS(vm).DirtyBytes(); d > r.t.dirtyPeak {
			r.t.dirtyPeak = d
		}
	}
}

func (r *recorder) watch(q *block.Queue, name string, dom0 bool) *queueStream {
	t := r.t
	qs := &queueStream{name: name, depth: q.Depth()}
	q.OnEnqueue(func(req *block.Request) {
		if st, seen := t.ledger[req]; seen {
			t.violate("%s: request %v enqueued again (state %d)", name, req, st)
		}
		t.ledger[req] = reqQueued
		qs.subs = append(qs.subs, sub{at: req.Issued, op: req.Op, sync: req.Sync,
			stream: req.Stream, sector: req.Sector, count: req.Count})
		qs.bytes += req.Bytes()
	})
	q.OnMerge(func(_, child *block.Request) {
		if t.ledger[child] != reqQueued {
			t.violate("%s: merge of request %v in state %d", name, child, t.ledger[child])
		}
		t.ledger[child] = reqMerged
		qs.merged++
	})
	if dom0 {
		q.OnDispatch(func(req *block.Request) {
			qs.dispatched = append(qs.dispatched, extent{sector: req.Sector, count: req.Count})
		})
	}
	q.OnComplete(func(req *block.Request) {
		if t.ledger[req] != reqQueued {
			t.violate("%s: completion of request %v in state %d", name, req, t.ledger[req])
		}
		t.ledger[req] = reqDone
		qs.completed++
		qs.service += req.Completed.Sub(req.Dispatched)
	})
	return qs
}

// finish folds the cluster's end-of-run counters into the trace and audits
// conservation: every request ends completed or merged, per-queue counts
// balance, and the network delivered every byte. Call it once the engine
// has drained; it returns the recorder's trace.
func (r *recorder) finish() *trace {
	t, cl := r.t, r.cl
	t.events += int64(cl.Eng.EventsFired())
	for _, h := range cl.Hosts {
		ds := h.Disk().Stats()
		t.diskRequests += ds.Requests
		t.diskSeeks += ds.Seeks
		t.diskBusy += ds.BusyTime
		d0 := h.Dom0Queue().Stats()
		t.dom0Wait += d0.TotalWait
		t.dom0Completed += d0.ReadRequests + d0.WriteRequests
		for _, d := range h.Domains() {
			t.cpuBusy += d.VCPU.Busy()
		}
	}
	forEachQueue(cl, func(q *block.Queue) {
		st := q.Stats()
		t.switches += int64(st.Switches)
		t.switchStall += st.SwitchStall
		if q.Pending() != 0 {
			t.violate("queue left %d requests pending after the run", q.Pending())
		}
	})
	ns := cl.Net.Stats()
	t.netBytes += ns.Bytes
	if r.flowsDone != ns.Flows {
		t.violate("network completed %d of %d flows", r.flowsDone, ns.Flows)
	}
	if math.Abs(r.flowBytes-ns.Bytes) > 1e-6*math.Max(1, ns.Bytes) {
		t.violate("network delivered %.0f bytes, flows asked for %.0f", ns.Bytes, r.flowBytes)
	}
	if cl.Net.Active() != 0 {
		t.violate("network left %d flows active", cl.Net.Active())
	}
	for req, st := range t.ledger {
		if st == reqQueued {
			t.violate("request %v never completed", req)
			break
		}
	}
	for _, qs := range append(append([]*queueStream(nil), t.dom0...), t.vm...) {
		if n := int64(len(qs.subs)); n != qs.completed+qs.merged {
			t.violate("%s: %d enqueued != %d completed + %d merged", qs.name, n, qs.completed, qs.merged)
		}
	}
	t.ledger = nil
	return t
}

// forEachQueue visits every Dom0 and guest queue of the cluster.
func forEachQueue(cl *cluster.Cluster, fn func(*block.Queue)) {
	for _, h := range cl.Hosts {
		fn(h.Dom0Queue())
		for _, d := range h.Domains() {
			fn(d.Queue())
		}
	}
}

// merge folds per-cell traces into one, in cell order.
func merge(parts []*trace) *trace {
	if len(parts) == 1 {
		return parts[0]
	}
	m := &trace{}
	for _, p := range parts {
		for _, vms := range p.hostVMs {
			shifted := make([]int, len(vms))
			for i, v := range vms {
				shifted[i] = v + len(m.vm)
			}
			m.hostVMs = append(m.hostVMs, shifted)
		}
		m.dom0 = append(m.dom0, p.dom0...)
		m.vm = append(m.vm, p.vm...)
		m.nets = append(m.nets, p.nets...)
		m.events += p.events
		m.peakPending = max(m.peakPending, p.peakPending)
		m.peakActive = max(m.peakActive, p.peakActive)
		m.dirtyPeak = max(m.dirtyPeak, p.dirtyPeak)
		m.switches += p.switches
		m.switchStall += p.switchStall
		m.dom0Wait += p.dom0Wait
		m.dom0Completed += p.dom0Completed
		m.diskRequests += p.diskRequests
		m.diskSeeks += p.diskSeeks
		m.diskBusy += p.diskBusy
		m.cpuBusy += p.cpuBusy
		m.netBytes += p.netBytes
		m.errs = append(m.errs, p.errs...)
	}
	return m
}

// flows counts the recorded transfers over every network.
func (t *trace) flows() int64 {
	var n int64
	for _, ns := range t.nets {
		n += int64(len(ns.flows))
	}
	return n
}

// totals sums request and byte counts over a set of queue streams.
func totals(qs []*queueStream) (reqs, merged, bytes int64) {
	for _, q := range qs {
		reqs += int64(len(q.subs))
		merged += q.merged
		bytes += q.bytes
	}
	return
}
