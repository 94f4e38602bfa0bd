package adaptmr_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"adaptmr"
)

// onlineFingerprint captures every observable byte of an online run:
// the result JSON (decision log included) and the Chrome trace.
func onlineFingerprint(t *testing.T, pol adaptmr.OnlinePolicy, parallelism int) []byte {
	t.Helper()
	tr := adaptmr.NewTracer()
	res, err := adaptmr.RunOnline(quickCluster(), adaptmr.SortBenchmark(64<<20).Job,
		adaptmr.WithOnlineControl(pol),
		adaptmr.WithTracer(tr),
		adaptmr.WithParallelism(parallelism))
	if err != nil {
		t.Fatalf("parallelism %d: %v", parallelism, err)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(res); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRunOnlineByteIdentity: the controller mutates the execution
// in-run, so the determinism contract matters doubly — serial and
// parallel runs must produce byte-identical traces, decision logs and
// results, under both cluster and host scope.
func TestRunOnlineByteIdentity(t *testing.T) {
	for _, pol := range []adaptmr.OnlinePolicy{adaptmr.SmokeOnlinePolicy(), adaptmr.ReactiveOnlinePolicy()} {
		serial := onlineFingerprint(t, pol, 1)
		for _, par := range []int{4, 8} {
			if got := onlineFingerprint(t, pol, par); !bytes.Equal(serial, got) {
				t.Fatalf("scope %d: parallelism %d output differs from serial (%d vs %d bytes)",
					pol.Scope, par, len(got), len(serial))
			}
		}
	}
}

// TestReactiveOnlinePinned pins the per-host reactive controller
// (ReactiveOnlinePolicy, host scope) to exact makespans and switch
// counts. The values were measured on the dedicated per-host controller
// this scope replaced, so they also prove the merge changed no result.
func TestReactiveOnlinePinned(t *testing.T) {
	for _, tc := range []struct {
		hosts, vms int
		wl         adaptmr.Workload
		makespanNS int64
		switches   int
	}{
		{2, 2, adaptmr.SortBenchmark(128 << 20), 13598150969, 2},
		{4, 4, adaptmr.SortBenchmark(512 << 20), 175028184784, 16},
		{4, 4, adaptmr.WordCountBenchmark(512 << 20), 148001717136, 8},
	} {
		cfg := adaptmr.DefaultClusterConfig()
		cfg.Hosts, cfg.VMsPerHost = tc.hosts, tc.vms
		res, err := adaptmr.RunOnline(cfg, tc.wl.Job,
			adaptmr.WithOnlineControl(adaptmr.ReactiveOnlinePolicy()))
		if err != nil {
			t.Fatal(err)
		}
		if got := int64(res.Job.Duration); got != tc.makespanNS || res.Switches != tc.switches {
			t.Errorf("%d×%d %s: makespan %d ns, %d switches; want %d ns, %d switches",
				tc.hosts, tc.vms, tc.wl.Job.Name, got, res.Switches, tc.makespanNS, tc.switches)
		}
		for _, d := range res.Decisions {
			if d.Host == nil || *d.Host < 0 || *d.Host >= tc.hosts {
				t.Fatalf("host-scope decision without a valid host tag: %+v", d)
			}
		}
	}
}

// TestRunOnlineSwitchesOnSort pins the paper-shaped behaviour at smoke
// scale: booting CFQ/CFQ on sort, the controller must move to the
// anticipatory Dom0 pair during the sync-read map phase and return to
// CFQ for the write-heavy shuffle/reduce tail — exactly two issued
// switches, ending where it started.
func TestRunOnlineSwitchesOnSort(t *testing.T) {
	res, err := adaptmr.RunOnline(quickCluster(), adaptmr.SortBenchmark(64<<20).Job,
		adaptmr.WithOnlineControl(adaptmr.SmokeOnlinePolicy()),
		adaptmr.WithInvariantChecks())
	if err != nil {
		t.Fatal(err)
	}
	if res.Switches != 2 {
		t.Fatalf("got %d switches, want 2 (decisions: %+v)", res.Switches, res.Decisions)
	}
	if res.StartPairCode != "cc" || res.FinalPairCode != "cc" {
		t.Fatalf("pair trajectory %s -> %s, want cc -> cc", res.StartPairCode, res.FinalPairCode)
	}
	var issued []adaptmr.OnlineDecision
	for _, d := range res.Decisions {
		if d.Issued {
			issued = append(issued, d)
		}
	}
	if len(issued) != 2 || issued[0].To != "ac" || issued[1].To != "cc" {
		t.Fatalf("issued switch sequence wrong: %+v", issued)
	}
	if issued[0].Regime != "read" || issued[1].Regime != "write" {
		t.Fatalf("switch regimes %s/%s, want read/write", issued[0].Regime, issued[1].Regime)
	}
}

// TestRunOnlineProperty is the satellite-4 property test: the
// controller run over seeded pseudo-random workloads from every
// single-elevator start pair must complete with zero invariant
// violations, honour the dwell spacing between issued switches, and
// keep a monotone decision log. Runs under -race in CI.
func TestRunOnlineProperty(t *testing.T) {
	benches := []func(int64) adaptmr.Workload{
		adaptmr.SortBenchmark,
		adaptmr.WordCountBenchmark,
		adaptmr.WordCountNoCombinerBenchmark,
	}
	// splitmix-style deterministic "random" workload draws: no global
	// RNG, so the cases are stable across runs and machines.
	next := uint64(0x9E3779B97F4A7C15)
	rnd := func(n uint64) uint64 {
		next ^= next >> 30
		next *= 0xBF58476D1CE4E5B9
		next ^= next >> 27
		return next % n
	}
	for i, start := range []string{"nn", "dd", "aa", "cc"} {
		start := start
		bench := benches[rnd(uint64(len(benches)))]
		inputMB := int64(16 + 16*rnd(3)) // 16, 32 or 48 MB per VM
		seed := int64(1 + rnd(100))
		t.Run(fmt.Sprintf("start=%s/case=%d", start, i), func(t *testing.T) {
			t.Parallel()
			cfg := quickCluster()
			cfg.Seed = seed
			pol := adaptmr.SmokeOnlinePolicy()
			pol.StartPair = adaptmr.MustParsePair(start)
			res, err := adaptmr.RunOnline(cfg, bench(inputMB<<20).Job,
				adaptmr.WithOnlineControl(pol),
				adaptmr.WithInvariantChecks())
			if err != nil {
				t.Fatal(err)
			}
			if res.Job.Duration <= 0 {
				t.Fatal("job did not run")
			}
			if res.Windows == 0 {
				t.Fatal("controller evaluated no windows")
			}
			lastAt := -1.0
			lastIssued := -1.0
			dwellS := pol.MinDwell.Seconds()
			for _, d := range res.Decisions {
				if d.AtS < lastAt {
					t.Fatalf("decision log not monotone: %.3f after %.3f", d.AtS, lastAt)
				}
				lastAt = d.AtS
				if !d.Issued {
					continue
				}
				if lastIssued >= 0 && d.AtS-lastIssued < dwellS-1e-9 {
					t.Fatalf("issued switches %.3fs apart, dwell is %.3fs (thrash)",
						d.AtS-lastIssued, dwellS)
				}
				lastIssued = d.AtS
			}
		})
	}
}

// TestOnlineVsOfflineVsStatic answers the tentpole acceptance bar on
// both paper benchmarks: the online controller — no profiling runs, no
// phase-boundary knowledge — must land within 5% of the paper's offline
// meta-scheduler (which profiles every pair first), stay within 15% of
// the static default, and strictly beat the worst static pair. The
// per-host reactive preset pays switch costs with a 20 s dwell and no
// streak, so it is held to the static bounds only.
func TestOnlineVsOfflineVsStatic(t *testing.T) {
	for _, bench := range []struct {
		name           string
		wl             adaptmr.Workload
		pol            adaptmr.OnlinePolicy
		maxOverOffline float64 // 0: not compared with the offline plan
	}{
		{"sort", adaptmr.SortBenchmark(64 << 20), adaptmr.SmokeOnlinePolicy(), 1.05},
		{"wordcount", adaptmr.WordCountBenchmark(64 << 20), adaptmr.SmokeOnlinePolicy(), 1.05},
		{"reactive-sort", adaptmr.SortBenchmark(128 << 20), adaptmr.ReactiveOnlinePolicy(), 0},
	} {
		bench := bench
		t.Run(bench.name, func(t *testing.T) {
			t.Parallel()
			cfg := quickCluster()

			tuner := adaptmr.NewTuner(cfg, bench.wl.Job, adaptmr.WithParallelism(8))
			tuned, err := tuner.Tune()
			if err != nil {
				t.Fatal(err)
			}
			worstStatic := 0.0
			for _, p := range tuned.Profiles {
				if s := p.Total.Seconds(); s > worstStatic {
					worstStatic = s
				}
			}

			online, err := adaptmr.RunOnline(cfg, bench.wl.Job,
				adaptmr.WithOnlineControl(bench.pol))
			if err != nil {
				t.Fatal(err)
			}
			onlineS := online.Job.Duration.Seconds()
			offlineS := tuned.Duration.Seconds()

			defaultS := tuned.Default.Duration.Seconds()

			t.Logf("%s: online %.3fs (%d switches), offline %.3fs, static default %.3fs, best static %.3fs, worst static %.3fs",
				bench.name, onlineS, online.Switches, offlineS, defaultS,
				tuned.BestSingle.Duration.Seconds(), worstStatic)
			if bench.maxOverOffline > 0 && onlineS > offlineS*bench.maxOverOffline {
				t.Fatalf("online %.3fs is more than %.0f%% behind offline %.3fs",
					onlineS, 100*(bench.maxOverOffline-1), offlineS)
			}
			if onlineS > defaultS*1.15 {
				t.Fatalf("online %.3fs is more than 15%% behind the static default %.3fs", onlineS, defaultS)
			}
			if onlineS >= worstStatic {
				t.Fatalf("online %.3fs does not beat worst static %.3fs", onlineS, worstStatic)
			}
		})
	}
}

// overlapScenario pins three jobs to one cell, arriving together, so
// their phases overlap on the cell's shared Dom0 spindles — the ROADMAP
// item-2 leftover configuration.
func overlapScenario() adaptmr.FleetScenario {
	s := adaptmr.FleetScenario{
		Name:         "overlap",
		Seed:         9,
		Cells:        1,
		HostsPerCell: 2,
		VMsPerHost:   2,
		Pair:         "cc",
		Policy:       adaptmr.FleetFair,
		Arrivals:     adaptmr.FleetArrivalSpec{Kind: "trace"},
		Jobs: []adaptmr.FleetJobSpec{
			{ID: "sort", Benchmark: "sort", InputPerVMMB: 32, Count: 1, ArriveMS: []int64{0}},
			{ID: "wc", Benchmark: "wordcount", InputPerVMMB: 32, Count: 1, ArriveMS: []int64{0}},
			{ID: "wcnc", Benchmark: "wordcount-nc", InputPerVMMB: 32, Count: 1, ArriveMS: []int64{500}},
		},
	}
	return s
}

// TestFleetOverlapOnline answers ROADMAP item 2's leftover question: on
// a cell where phases of different jobs overlap, the per-cell
// controller must still hold the no-thrash contract (issued switches
// spaced by at least the dwell) and must not regress the fleet makespan
// beyond the static-pair baseline by more than the switching stalls it
// paid. With overlapping phases the composed regime is often mixed, so
// few or no switches is an acceptable (and correct) outcome — what is
// being tested is that the hysteresis holds, not that switching wins.
func TestFleetOverlapOnline(t *testing.T) {
	s := overlapScenario()
	static, err := adaptmr.RunFleet(s)
	if err != nil {
		t.Fatal(err)
	}
	res, stats, err := adaptmr.RunFleetOnline(s,
		adaptmr.WithOnlineControl(adaptmr.SmokeOnlinePolicy()),
		adaptmr.WithInvariantChecks())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 3 {
		t.Fatalf("got %d jobs, want 3", len(res.Jobs))
	}
	if len(stats.Cells) != 1 || stats.Cells[0].Windows == 0 {
		t.Fatalf("controller did not run: %+v", stats)
	}
	pol := adaptmr.SmokeOnlinePolicy()
	dwellS := pol.MinDwell.Seconds()
	for _, cell := range stats.Cells {
		lastIssued := -1.0
		for _, d := range cell.Decisions {
			if !d.Issued {
				continue
			}
			if lastIssued >= 0 && d.AtS-lastIssued < dwellS-1e-9 {
				t.Fatalf("cell %d: issued switches %.3fs apart, dwell %.3fs (thrash)",
					cell.Cell, d.AtS-lastIssued, dwellS)
			}
			lastIssued = d.AtS
		}
	}
	t.Logf("overlap: static makespan %.3fs, online %.3fs (%d switches over %d windows)",
		static.Agg.MakespanS, res.Agg.MakespanS, stats.Switches, stats.Windows)
	// The controller may not win on overlapped mixes, but it must never
	// blow up the makespan: allow 10% over static as the hysteresis bound.
	if res.Agg.MakespanS > static.Agg.MakespanS*1.10 {
		t.Fatalf("online fleet makespan %.3fs regresses static %.3fs by more than 10%%",
			res.Agg.MakespanS, static.Agg.MakespanS)
	}
}

// TestRunFleetOnlineDeterminism: per-cell controllers are
// engine-confined, so sharded execution must reproduce the serial
// results and controller stats byte-for-byte.
func TestRunFleetOnlineDeterminism(t *testing.T) {
	s := overlapScenario()
	s.Cells = 2
	s.Jobs = append([]adaptmr.FleetJobSpec{}, s.Jobs...)
	for i := range s.Jobs {
		s.Jobs[i].Cell = nil // spread round-robin across both cells
	}
	run := func(par int) []byte {
		res, stats, err := adaptmr.RunFleetOnline(s,
			adaptmr.WithOnlineControl(adaptmr.SmokeOnlinePolicy()),
			adaptmr.WithParallelism(par))
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		if err := enc.Encode(res); err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(stats); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial := run(1)
	if got := run(4); !bytes.Equal(serial, got) {
		t.Fatalf("parallel fleet online output differs from serial (%d vs %d bytes)",
			len(got), len(serial))
	}
}
