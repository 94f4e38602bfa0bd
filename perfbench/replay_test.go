package main

import (
	"math"
	"testing"

	"adaptmr/internal/iosched"
)

// tracedSort records a small sort job (2 hosts × 2 VMs, 64 MB per VM,
// pair cc) with the recorder attached.
func tracedSort(t *testing.T) *traced {
	t.Helper()
	w, err := newJobWorkload(2, 2, "sort", 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	u, tr, err := w.once(true)
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := w.once(false)
	if err != nil {
		t.Fatal(err)
	}
	if err := auditTraced(u, tr, ref); err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestReplayFidelity checks that the layer replays carry the traffic the
// workload generated: every recorded queue stream, replayed through the
// elevator it was recorded under (CFQ at both levels for pair cc),
// completes exactly the recorded requests and bytes, and the recorded
// flow list replayed through netsim completes every flow and byte.
func TestReplayFidelity(t *testing.T) {
	tr := tracedSort(t).tr
	if len(tr.dom0) != 2 || len(tr.vm) != 4 {
		t.Fatalf("recorded %d Dom0 and %d guest queues, want 2 and 4", len(tr.dom0), len(tr.vm))
	}
	var dispatched int64
	for _, qs := range append(append([]*queueStream(nil), tr.dom0...), tr.vm...) {
		if len(qs.subs) == 0 {
			t.Fatalf("%s recorded no submissions", qs.name)
		}
		r, err := replayQueue(qs, iosched.CFQ)
		if err != nil {
			t.Fatal(err)
		}
		if r.done != int64(len(qs.subs)) || int64(r.bytes) != qs.bytes {
			t.Errorf("%s: replay completed %d of %d requests, %.0f of %d bytes",
				qs.name, r.done, len(qs.subs), r.bytes, qs.bytes)
		}
		dispatched += int64(len(qs.dispatched))
	}
	if dispatched != tr.diskRequests {
		t.Errorf("recorded %d Dom0 dispatches, disks served %d requests", dispatched, tr.diskRequests)
	}
	if d := replayDisk(tr.dom0); d.done != tr.diskRequests {
		t.Errorf("disk replay served %d of %d requests", d.done, tr.diskRequests)
	}

	if tr.flows() == 0 {
		t.Fatal("recorded no network flows")
	}
	var sent float64
	for _, ns := range tr.nets {
		r, err := replayNet(ns)
		if err != nil {
			t.Fatal(err)
		}
		var want float64
		for _, f := range ns.flows {
			want += f.bytes
		}
		if r.done != int64(len(ns.flows)) || math.Abs(r.bytes-want) > 1e-6*want {
			t.Errorf("network replay completed %d of %d flows, %.0f of %.0f bytes", r.done, len(ns.flows), r.bytes, want)
		}
		sent += want
	}
	if math.Abs(tr.netBytes-sent) > 1e-6*sent {
		t.Errorf("recorded flows carry %.0f bytes, the network moved %.0f", sent, tr.netBytes)
	}
}

// TestReplayEveryElevator replays the guest and Dom0 streams through all
// four elevators, as the per-layer timings do.
func TestReplayEveryElevator(t *testing.T) {
	tr := tracedSort(t).tr
	for _, lvl := range [][]*queueStream{tr.dom0, tr.vm} {
		reqs, _, bytes := totals(lvl)
		for _, elv := range iosched.Names {
			r, err := replayLevel(lvl, elv)
			if err != nil {
				t.Fatal(err)
			}
			if r.done != reqs || int64(r.bytes) != bytes {
				t.Errorf("%s: completed %d of %d requests, %.0f of %d bytes", elv, r.done, reqs, r.bytes, bytes)
			}
		}
	}
}

func TestAttribute(t *testing.T) {
	out := []byte(`File: perfbench
Type: cpu
-----------+-------------------------------------------------------
      30ms   runtime.mallocgc
             adaptmr/internal/block.(*Queue).Submit
             adaptmr/internal/xen.(*ringOp).forward
-----------+-------------------------------------------------------
      20ms   adaptmr/internal/obs/perfstat.Start
             main.main
-----------+-------------------------------------------------------
      10ms   runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
`)
	shares, total := attribute(out)
	if total.Milliseconds() != 60 {
		t.Fatalf("total %v, want 60ms", total)
	}
	for pkg, ms := range map[string]int64{"block": 30, "obs/perfstat": 20, "(outside adaptmr/internal)": 10} {
		if shares[pkg].Milliseconds() != ms {
			t.Errorf("%s: %v, want %dms", pkg, shares[pkg], ms)
		}
	}
}
