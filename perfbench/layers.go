package main

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"adaptmr/internal/iosched"
)

// tracedUnits is how many traced units a trace run takes; the first one's
// trace feeds the replays, and their median wall gives the overhead.
const tracedUnits = 3

// profileShare is the part of a trace run's budget spent on untraced,
// CPU-profiled units; replays take the rest.
const profileShare = 0.35

// layerTimes collects per-round replay timings, in ns per operation.
type layerTimes struct {
	iosched map[string][]float64 // "<level>.<elevator>"
	disk    []float64
	net     []float64
	engine  []float64
}

func nsPer(d time.Duration, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

// replayRounds replays the trace's streams through every layer, round
// after round until the deadline (at least once), so each layer timing
// is a median over rounds. Every replay also checks that it completed
// the recorded requests, bytes and flows.
func replayRounds(tr *trace, deadline time.Time, t *tally, sp *speed) *layerTimes {
	lt := &layerTimes{iosched: map[string][]float64{}}
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		sp.sample()
		replayRound(tr, lt, t)
	}
	return lt
}

func replayRound(tr *trace, lt *layerTimes, t *tally) {
	levels := []struct {
		name string
		qs   []*queueStream
	}{{"dom0", tr.dom0}, {"vm", tr.vm}}
	for _, lvl := range levels {
		reqs, _, wantBytes := totals(lvl.qs)
		for _, elv := range iosched.Names {
			r, err := replayLevel(lvl.qs, elv)
			if err == nil && (r.done != reqs || int64(r.bytes) != wantBytes) {
				err = fmt.Errorf("%s replay under %s completed %d of %d requests, %0.f of %d bytes",
					lvl.name, elv, r.done, reqs, r.bytes, wantBytes)
			}
			t.check(err)
			key := lvl.name + "." + elv
			lt.iosched[key] = append(lt.iosched[key], nsPer(r.wall, reqs))
		}
	}

	// ServiceParts is a few arithmetic operations: repeat the stream until
	// the sample is long enough to time.
	var disk replayed
	for disk.wall < 2*time.Millisecond {
		r := replayDisk(tr.dom0)
		if r.ops == 0 {
			break
		}
		disk.ops += r.ops
		disk.wall += r.wall
	}
	diskNS := nsPer(disk.wall, disk.ops)
	lt.disk = append(lt.disk, diskNS)

	var net replayed
	for _, ns := range tr.nets {
		r, err := replayNet(ns)
		var want float64
		for _, f := range ns.flows {
			want += f.bytes
		}
		if err == nil && math.Abs(r.bytes-want) > 1e-6*math.Max(want, 1) {
			err = fmt.Errorf("network replay delivered %.0f of %.0f bytes", r.bytes, want)
		}
		t.check(err)
		net.ops += r.ops
		net.wall += r.wall
	}
	lt.net = append(lt.net, nsPer(net.wall, net.ops))

	e := replayEngine(tr.events, tr.peakPending)
	lt.engine = append(lt.engine, nsPer(e.wall, e.ops))
}

// layerRun is everything the per-layer metrics derive from.
type layerRun struct {
	tr           *traced
	times        *layerTimes
	refOutput    []byte  // the untraced units' output
	untracedWall float64 // median untraced unit, host seconds
	tracedWall   float64 // median traced unit, host seconds
	makespan     float64 // simulated seconds
	gcFrac       float64
	speed        speed // machine-speed samples; host times are normalised by them
	// selfCPU is the CPU profile's time per innermost adaptmr/internal
	// package over profiledUnits untraced units of work.
	selfCPU       map[string]time.Duration
	profiledUnits float64
	shardSpeedup  float64
	control       controlStats
	server        serverStats
}

// controlStats are the online controller's counts (autotune-http only).
type controlStats struct {
	windows, switches, held, samples float64
}

// serverStats are adaptd's request-path figures (autotune-http only).
type serverStats struct {
	ttfbMS, coalescedFrac, rejected, droppedFrames float64
}

// traceSerial is the --trace 1 run of a serial workload: profiled
// untraced units, traced units checked against them, then layer replays.
func traceSerial(o options, w serialWorkload, t *tally) (*layerRun, error) {
	start := time.Now()
	budget := time.Duration(o.seconds * float64(time.Second))
	stop, err := startProfile(o)
	if err != nil {
		return nil, err
	}
	clk := readCPUClock()
	run, err := measure(w, start.Add(time.Duration(profileShare*float64(budget))), t)
	gc := readCPUClock().gcFrac(clk)
	self, perr := stop()
	if err != nil {
		return nil, err
	}
	t.check(perr)
	lr := &layerRun{refOutput: run.ref.output, untracedWall: median(run.walls()), makespan: run.ref.makespan,
		gcFrac: gc, speed: run.speed, selfCPU: self, profiledUnits: float64(len(run.units) + 1)}
	var twalls []float64
	for i := 0; i < tracedUnits; i++ {
		u, tr, err := w.once(true)
		if err != nil {
			t.fail("traced unit %d: %v", i, err)
			continue
		}
		twalls = append(twalls, u.wall.Seconds())
		t.check(auditTraced(u, tr, run.ref))
		if lr.tr == nil {
			lr.tr = tr
		}
	}
	if lr.tr == nil {
		return nil, fmt.Errorf("no traced unit completed")
	}
	lr.tracedWall = median(twalls)
	lr.times = replayRounds(lr.tr.tr, start.Add(budget), t, &lr.speed)
	return lr, nil
}

// auditTraced fails a traced unit whose invariant checks or hook audits
// report a violation, or whose output differs from the untraced run's:
// observing the simulator must not change what it computes.
func auditTraced(u unit, tr *traced, ref unit) error {
	switch {
	case tr.checkErr != nil:
		return fmt.Errorf("traced unit: %w", tr.checkErr)
	case len(tr.tr.errs) > 0:
		return fmt.Errorf("traced unit: %s", tr.tr.errs[0])
	case !bytes.Equal(u.output, ref.output):
		return fmt.Errorf("traced unit output differs from the untraced run")
	}
	return nil
}

// perLayer sets every per-layer metric, host times normalised for
// machine speed. Metrics of layers the workload does not run (fleet,
// control, server) read 0.
func (lr *layerRun) perLayer(ms *metricSet) []string {
	tr, lt, f := lr.tr.tr, lr.times, lr.speed.factor()
	ms.set("sim.ns_per_event", "ns", f*median(lt.engine))
	ms.set("sim.peak_pending", "count", float64(tr.peakPending))

	dom0Reqs, dom0Merged, _ := totals(tr.dom0)
	vmReqs, vmMerged, vmBytes := totals(tr.vm)
	ms.set("block.dom0.enqueued", "count", float64(dom0Reqs))
	ms.set("block.vm.enqueued", "count", float64(vmReqs))
	ms.set("block.dom0.merge_ratio", "ratio", frac(dom0Merged, dom0Reqs))
	ms.set("block.vm.merge_ratio", "ratio", frac(vmMerged, vmReqs))
	ms.set("block.dom0.wait_ms", "ms", tr.dom0Wait.Millis()/math.Max(float64(tr.dom0Completed), 1))
	ms.set("block.switches", "count", float64(tr.switches))
	ms.set("block.switch_stall_s", "s", tr.switchStall.Seconds())

	for _, lvl := range []string{"dom0", "vm"} {
		for _, elv := range iosched.Names {
			ms.set("iosched."+lvl+"."+elv+".ns_per_req", "ns", f*median(lt.iosched[lvl+"."+elv]))
		}
	}

	hosts := float64(len(tr.dom0))
	ms.set("disk.requests", "count", float64(tr.diskRequests))
	ms.set("disk.seeks", "count", float64(tr.diskSeeks))
	ms.set("disk.busy_frac", "ratio", tr.diskBusy.Seconds()/math.Max(lr.makespan*hosts, 1e-9))
	ms.set("disk.ns_per_req", "ns", f*median(lt.disk))

	// Xen and the guest filesystem sit between two queue levels and are
	// driven by them, so their self time comes from the CPU profile of the
	// untraced units rather than from a replay.
	perUnit := func(pkg string, per float64) float64 {
		return f * float64(lr.selfCPU[pkg].Nanoseconds()) / math.Max(lr.profiledUnits*per, 1e-9)
	}
	vmMB := float64(vmBytes) / (1 << 20)
	ms.set("xen.ring_requests", "count", float64(dom0Reqs))
	ms.set("xen.ns_per_req", "ns", perUnit("xen", float64(dom0Reqs)))
	ms.set("guestio.ns_per_mb", "ns", perUnit("guestio", vmMB))
	ms.set("guestio.dirty_peak_mb", "MB", float64(tr.dirtyPeak)/(1<<20))

	flows := tr.flows()
	ms.set("netsim.flows", "count", float64(flows))
	ms.set("netsim.gb", "GB", tr.netBytes/1e9)
	ms.set("netsim.peak_active", "count", float64(tr.peakActive))
	ms.set("netsim.ns_per_flow", "ns", f*median(lt.net))

	ms.set("cpusim.busy_s", "s", tr.cpuBusy.Seconds())
	ms.set("mapred.map_s", "s", lr.tr.mapS)
	ms.set("mapred.shuffle_s", "s", lr.tr.shuffleS)
	ms.set("mapred.reduce_s", "s", lr.tr.reduceS)
	// The residual is the untraced unit's wall time not spent in the
	// layers named above, by the CPU profile's self time per layer.
	var layersNS float64
	for _, pkg := range []string{"sim", "block", "iosched", "disk", "xen", "guestio", "netsim"} {
		layersNS += perUnit(pkg, 1)
	}
	ms.set("mapred.residual_s", "s", f*lr.untracedWall-layersNS/1e9)

	ms.set("fleet.mean_wait_s", "s", lr.tr.meanWaitS)
	ms.set("fleet.cell_event_imbalance", "ratio", lr.tr.cellImbalance)
	ms.set("fleet.shard_speedup", "ratio", lr.shardSpeedup)

	ms.set("control.windows", "count", lr.control.windows)
	ms.set("control.switches", "count", lr.control.switches)
	ms.set("control.held", "count", lr.control.held)
	ms.set("analyze.samples", "count", lr.control.samples)

	ms.set("server.ttfb_ms", "ms", f*lr.server.ttfbMS)
	ms.set("server.coalesced_frac", "ratio", lr.server.coalescedFrac)
	ms.set("server.rejected", "count", lr.server.rejected)
	ms.set("server.dropped_frames", "count", lr.server.droppedFrames)

	ms.set("runtime.gc_cpu_frac", "ratio", lr.gcFrac)
	ms.set("bench.trace_overhead_frac", "ratio", lr.tracedWall/lr.untracedWall-1)
	return []string{lr.speed.note()}
}
