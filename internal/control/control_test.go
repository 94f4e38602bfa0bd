package control

import (
	"testing"

	"adaptmr/internal/analyze"
	"adaptmr/internal/block"
	"adaptmr/internal/cluster"
	"adaptmr/internal/iosched"
	"adaptmr/internal/mapred"
	"adaptmr/internal/sim"
	"adaptmr/internal/workloads"
)

// The gate tests drive the controller with synthetic traffic through a
// scratch queue attached to the sampler under the "dom0" level: the
// controller classifies whatever the sampler reports, so the scratch
// queue stands in for the cluster's real Dom0 spindles while the (idle)
// cluster receives the issued SetPairAll commands.

type genDev struct{ eng *sim.Engine }

func (d *genDev) Service(r *block.Request, done func(*block.Request)) {
	d.eng.Schedule(50*sim.Microsecond, func() { done(r) })
}

type genFIFO struct{ q []*block.Request }

func (f *genFIFO) Name() string                       { return "fifo" }
func (f *genFIFO) Add(r *block.Request, _ sim.Time)   { f.q = append(f.q, r) }
func (f *genFIFO) Completed(*block.Request, sim.Time) {}
func (f *genFIFO) Pending() int                       { return len(f.q) }
func (f *genFIFO) Dispatch(_ sim.Time) (*block.Request, sim.Time) {
	if len(f.q) == 0 {
		return nil, 0
	}
	r := f.q[0]
	f.q = f.q[1:]
	return r, 0
}

// harness builds an idle 1×1 cluster, a sampler, and a scratch dom0
// queue for synthetic traffic.
func harness(t *testing.T) (*cluster.Cluster, *analyze.Sampler, *block.Queue) {
	t.Helper()
	cfg := cluster.DefaultConfig()
	cfg.Hosts = 1
	cfg.VMsPerHost = 1
	cl := cluster.New(cfg)
	smp := analyze.NewSampler()
	q := block.NewQueue(cl.Eng, &genFIFO{}, &genDev{eng: cl.Eng}, 8)
	smp.AttachQueue(q, "dom0")
	return cl, smp, q
}

// burst schedules n requests at absolute time at.
func burst(eng *sim.Engine, q *block.Queue, at sim.Time, op block.Op, n int, sync bool) {
	eng.At(at, func() {
		for i := 0; i < n; i++ {
			q.Submit(block.NewRequest(op, int64(i)*64, 8, sync, 1))
		}
	})
}

// testPolicy: 100ms windows, 1s dwell, 2-window stability, cheap cost.
func testPolicy() Policy {
	p := DefaultPolicy()
	p.Window = 100 * sim.Millisecond
	p.MinDwell = sim.Second
	p.StableWindows = 2
	p.MinRequests = 4
	p.Cost = func(from, to iosched.Pair) sim.Duration { return sim.Millisecond }
	return p
}

// readWindows schedules one sync-read burst inside each window w ∈
// [from, to).
func readWindows(eng *sim.Engine, q *block.Queue, win sim.Duration, from, to int) {
	for w := from; w < to; w++ {
		burst(eng, q, sim.Time(0).Add(win*sim.Duration(w)+win/2), block.Read, 8, true)
	}
}

func writeWindows(eng *sim.Engine, q *block.Queue, win sim.Duration, from, to int) {
	for w := from; w < to; w++ {
		burst(eng, q, sim.Time(0).Add(win*sim.Duration(w)+win/2), block.Write, 8, false)
	}
}

// TestStreakThenSwitch pins the stability gate: the first differing
// window holds with hold:streak, the StableWindows-th issues, and
// windows that agree with the installed pair record nothing.
func TestStreakThenSwitch(t *testing.T) {
	cl, smp, q := harness(t)
	ctrl := New(testPolicy())
	ctrl.Attach(cl, smp)

	readWindows(cl.Eng, q, 100*sim.Millisecond, 0, 6)
	cl.Eng.Run()

	ds := ctrl.Decisions()
	if len(ds) != 2 {
		t.Fatalf("decisions = %d (%+v), want 2 (one hold, one switch)", len(ds), ds)
	}
	if ds[0].Reason != ReasonStreak || ds[0].Issued || ds[0].Streak != 1 {
		t.Fatalf("first decision %+v, want hold:streak at streak 1", ds[0])
	}
	if !ds[1].Issued || ds[1].Reason != ReasonSwitch || ds[1].Streak != 2 {
		t.Fatalf("second decision %+v, want issued at streak 2", ds[1])
	}
	if ds[1].From != "cc" || ds[1].To != "ac" {
		t.Fatalf("switch %s -> %s, want cc -> ac", ds[1].From, ds[1].To)
	}
	if ctrl.Switches() != 1 {
		t.Fatalf("switches = %d, want 1", ctrl.Switches())
	}
	if got := cl.Pair(); got != ctrl.Policy().ReadPair {
		t.Fatalf("cluster pair %s, want %s installed", got.Code(), ctrl.Policy().ReadPair.Code())
	}
	if ds[0].Regime != "read" || ds[0].Window.ReadShare != 1 {
		t.Fatalf("classified window %+v, want pure read regime", ds[0])
	}
}

// TestDwellGateSpacesSwitches pins the no-thrash guarantee: a regime flip
// right after a switch is held with hold:dwell until MinDwell elapses,
// and consecutive issued commands are never closer than MinDwell.
func TestDwellGateSpacesSwitches(t *testing.T) {
	cl, smp, q := harness(t)
	ctrl := New(testPolicy())
	ctrl.Attach(cl, smp)

	win := 100 * sim.Millisecond
	readWindows(cl.Eng, q, win, 0, 2)   // switch to ac at the 2nd window
	writeWindows(cl.Eng, q, win, 2, 14) // immediate flip back: dwell gates
	cl.Eng.Run()

	if ctrl.Switches() != 2 {
		t.Fatalf("switches = %d, want 2", ctrl.Switches())
	}
	var issued []Decision
	dwellHolds := 0
	for _, d := range ctrl.Decisions() {
		if d.Issued {
			issued = append(issued, d)
		}
		if d.Reason == ReasonDwell {
			dwellHolds++
		}
	}
	if dwellHolds == 0 {
		t.Fatal("no hold:dwell decisions recorded across the flip")
	}
	if len(issued) != 2 {
		t.Fatalf("issued = %d, want 2", len(issued))
	}
	if gap := issued[1].At.Sub(issued[0].At); gap < ctrl.Policy().MinDwell {
		t.Fatalf("issued switches %v apart, dwell is %v", gap, ctrl.Policy().MinDwell)
	}
}

// TestCostGateBlocksExpensiveSwitch pins the amortisation gate: a
// modelled cost above CostBudget × MinDwell never issues.
func TestCostGateBlocksExpensiveSwitch(t *testing.T) {
	cl, smp, q := harness(t)
	pol := testPolicy()
	pol.Cost = func(from, to iosched.Pair) sim.Duration { return 500 * sim.Millisecond }
	ctrl := New(pol)
	ctrl.Attach(cl, smp)

	readWindows(cl.Eng, q, 100*sim.Millisecond, 0, 8)
	cl.Eng.Run()

	if ctrl.Switches() != 0 {
		t.Fatalf("switches = %d, want 0 (cost-gated)", ctrl.Switches())
	}
	ds := ctrl.Decisions()
	if len(ds) < 2 {
		t.Fatalf("decisions = %d, want the held evaluations recorded", len(ds))
	}
	for _, d := range ds[1:] { // first is hold:streak
		if d.Reason != ReasonCost {
			t.Fatalf("decision %+v, want hold:cost", d)
		}
	}
}

// TestIdleWindowFreezesStreak pins the idle semantics: a window with too
// few completions neither grows nor resets the streak, so a lull between
// read bursts cannot fake or destroy stability. A mixed window resets.
func TestIdleWindowFreezesStreak(t *testing.T) {
	cl, smp, q := harness(t)
	ctrl := New(testPolicy())
	ctrl.Attach(cl, smp)

	win := 100 * sim.Millisecond
	readWindows(cl.Eng, q, win, 0, 1) // window 0: streak 1
	// window 1: idle (no traffic) — streak must survive.
	readWindows(cl.Eng, q, win, 2, 3) // window 2: streak 2 -> switch
	cl.Eng.Run()

	if ctrl.Switches() != 1 {
		t.Fatalf("switches = %d, want 1 (idle window must not reset the streak)", ctrl.Switches())
	}

	// Mixed resets: read, mixed, read, read — the switch needs both
	// post-mixed read windows.
	cl2, smp2, q2 := harness(t)
	ctrl2 := New(testPolicy())
	ctrl2.Attach(cl2, smp2)
	readWindows(cl2.Eng, q2, win, 0, 1)
	cl2.Eng.At(sim.Time(0).Add(win+win/2), func() { // window 1: 50/50 mix
		for i := 0; i < 4; i++ {
			q2.Submit(block.NewRequest(block.Read, int64(i)*64, 8, true, 1))
			q2.Submit(block.NewRequest(block.Write, int64(i)*64, 8, false, 2))
		}
	})
	readWindows(cl2.Eng, q2, win, 2, 4)
	cl2.Eng.Run()

	issued := 0
	var at sim.Time
	for _, d := range ctrl2.Decisions() {
		if d.Issued {
			issued++
			at = d.At
		}
	}
	if issued != 1 {
		t.Fatalf("switches = %d, want 1", issued)
	}
	// Windows close at 100ms ticks; the mixed window reset means the
	// earliest possible issue is the tick after window 3 (t = 400ms).
	if want := sim.Time(0).Add(4 * win); at < want {
		t.Fatalf("switch issued at %v, want >= %v (mixed window must reset the streak)", at, want)
	}
}

// TestAsyncReadsClassifyMixed pins the sync-share demotion: a
// read-dominated window of asynchronous traffic (readahead-style) must
// not trigger anticipation.
func TestAsyncReadsClassifyMixed(t *testing.T) {
	cl, smp, q := harness(t)
	ctrl := New(testPolicy())
	ctrl.Attach(cl, smp)

	for w := 0; w < 6; w++ {
		burst(cl.Eng, q, sim.Time(0).Add(100*sim.Millisecond*sim.Duration(w)+50*sim.Millisecond),
			block.Read, 8, false) // async reads
	}
	cl.Eng.Run()

	if ctrl.Switches() != 0 {
		t.Fatalf("switches = %d, want 0 (async reads are not an anticipation regime)", ctrl.Switches())
	}
	if len(ctrl.Decisions()) != 0 {
		t.Fatalf("decisions = %+v, want none (mixed regime holds silently)", ctrl.Decisions())
	}
}

// TestControllerOnRealJob runs a small sort under the controller
// end-to-end in both scopes: the job completes, decisions are
// well-formed and host-tagged exactly under host scope, issued commands
// on one host respect the dwell, and the read map phase triggers
// ReadPair. A 1000 s dwell therefore allows at most one switch per host,
// and a detached controller evaluates nothing.
func TestControllerOnRealJob(t *testing.T) {
	// Smoke-scale phases last a couple of seconds, so the cluster-scope
	// hysteresis is scaled down from the paper-scale default accordingly.
	smoke := DefaultPolicy()
	smoke.Window = 250 * sim.Millisecond
	smoke.StableWindows = 2
	smoke.MinDwell = sim.Second
	smoke.CostBudget = 0.1 // 100ms budget covers the ~88ms reinit at this scale
	// The per-host reactive preset: 2 s windows, 20 s dwell, no streak.
	reactive := DefaultPolicy()
	reactive.Scope = ScopeHost
	reactive.Window = 2 * sim.Second
	reactive.MinDwell = 20 * sim.Second
	reactive.StableWindows = 1
	lazy := reactive
	lazy.MinDwell = 1000 * sim.Second

	for _, tc := range []struct {
		name     string
		pol      Policy
		inputMB  int64
		detached bool
	}{
		{"cluster", smoke, 64, false},
		{"host", reactive, 128, false},
		{"host-lazy", lazy, 128, false},
		{"host-detached", reactive, 128, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := cluster.DefaultConfig()
			cfg.Hosts = 2
			cfg.VMsPerHost = 2
			cl := cluster.New(cfg)
			smp := analyze.NewSampler()
			smp.AttachCluster(cl)
			ctrl := New(tc.pol)
			detach := ctrl.Attach(cl, smp)
			if tc.detached {
				detach()
			}

			j := mapred.NewJob(cl, workloads.Sort(tc.inputMB<<20).Job)
			j.Start(nil)
			cl.Eng.Run()

			if !j.Done() {
				t.Fatal("job did not complete under the online controller")
			}
			if tc.detached {
				if ctrl.Windows() != 0 || ctrl.Switches() != 0 {
					t.Fatalf("detached controller evaluated %d windows, issued %d switches",
						ctrl.Windows(), ctrl.Switches())
				}
				return
			}
			if ctrl.Windows() == 0 {
				t.Fatal("controller never evaluated a window")
			}
			lastIssued := map[int]sim.Time{}
			for _, d := range ctrl.Decisions() {
				if d.Regime == "" || d.From == "" || d.To == "" || d.Reason == "" {
					t.Fatalf("malformed decision %+v", d)
				}
				if (d.Host != nil) != (tc.pol.Scope == ScopeHost) {
					t.Fatalf("decision host tag %v under scope %d", d.Host, tc.pol.Scope)
				}
				if !d.Issued {
					continue
				}
				host := -1
				if d.Host != nil {
					host = *d.Host
				}
				if last, seen := lastIssued[host]; seen && d.At.Sub(last) < tc.pol.MinDwell {
					t.Fatalf("issued switches on host %d %v apart, dwell is %v", host, d.At.Sub(last), tc.pol.MinDwell)
				}
				lastIssued[host] = d.At
			}
			if ctrl.Switches() == 0 {
				t.Fatal("controller never switched on a sort job (read map phase should trigger ReadPair)")
			}
		})
	}
}
