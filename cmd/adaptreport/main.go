// Command adaptreport analyzes instrumented simulation runs into
// human-readable reports and gates performance regressions against a
// committed baseline.
//
// Subcommands:
//
//	adaptreport run  [sim flags] [-format md|html|json] [-o report.md] [-bench-out BENCH.json]
//	                 [-evalcache DIR]
//	    Run one fully instrumented job and render the analysis report
//	    (critical path with per-layer blame, phase breakdown, latency
//	    quantiles, timeseries). -evalcache additionally runs the same
//	    (cluster, job, plan) evaluation uninstrumented against the
//	    on-disk cache — warming it for the other tools (adaptd,
//	    adaptsim) — and prints the cache's hit/miss/bypass tallies.
//
//	adaptreport explain [sim flags] [-format md|html|json] [-o report.md]
//	    Run one fully instrumented job with journey and decision
//	    provenance enabled and render the explain report: per-phase
//	    verdicts ("why this pair won this phase"), the ns-exact request
//	    latency decomposition per stage and per VM, and the scheduler
//	    decision tallies at both queue levels — followed by the full
//	    analysis report.
//
//	adaptreport gate [sim flags] [-baseline BENCH_baseline.json]
//	                 [-candidate BENCH_candidate.json] [-html report.html] [-update]
//	                 [-parallel N] [-sweep-out sweep.json] [-o compare.txt]
//	                 [-fleet-baseline BENCH_fleet.json] [-fleet-candidate FLEET.json]
//	                 [-online-baseline BENCH_online.json] [-online-candidate ONLINE.json]
//	    Run the same instrumented job, condense it to a bench summary and
//	    compare it exactly against the committed baseline. Exits 1 when
//	    any simulated metric changed. -update rewrites the baseline
//	    instead of comparing. -sweep-out additionally times the 16-pair
//	    profile sweep serial vs -parallel workers, verifies the outputs
//	    are identical, and writes the speedup record as JSON.
//	    -fleet-baseline and -online-baseline additionally run the
//	    built-in multi-job fleet smoke scenario and the online-controller
//	    run of the same job, and compare their benches the same way.
//
//	adaptreport compare [-o compare.txt] base.json candidate.json
//	    Compare two previously written bench summaries. -o additionally
//	    writes the comparison to a file (JSON when the path ends in
//	    .json, the text table otherwise) — on both gate and compare, and
//	    even when the verdict is FAIL, so CI can upload it as an
//	    artifact.
//
// Sim flags (run and gate): -bench, -pair, -hosts, -vms, -input, -seed,
// -slowdown. All output is deterministic for a fixed configuration, which
// is what makes exact baseline comparison possible. Host time (wall
// clock, events/sec, allocations) is measured by perfbench, not here.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"runtime"
	"strings"
	"time"

	"adaptmr"
	"adaptmr/internal/cliutil"
)

// logger is the process-wide diagnostic logger; each subcommand rebinds it
// from its parsed -log flag. Result output (reports, verdict tables) stays
// on stdout — only diagnostics go through here.
var logger = slog.Default()

func fail(err error) {
	logger.Error("fatal", "err", err)
	os.Exit(2)
}

// initLogger resolves the parsed -log flag into the process logger.
func initLogger(lf *cliutil.LogFlag) {
	lg, err := lf.Logger()
	if err != nil {
		fmt.Fprintln(os.Stderr, "adaptreport:", err)
		os.Exit(2)
	}
	logger = lg
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: adaptreport <run|explain|gate|compare> [flags]")
	os.Exit(2)
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "run":
		cmdRun(os.Args[2:])
	case "explain":
		cmdExplain(os.Args[2:])
	case "gate":
		cmdGate(os.Args[2:])
	case "compare":
		cmdCompare(os.Args[2:])
	default:
		usage()
	}
}

// simFlags binds the shared simulation flags on fs.
type simFlags struct {
	bench    *string
	pairArg  *string
	hosts    *int
	vms      *int
	inputMB  *int64
	seed     *int64
	slowdown *float64
	points   *int
	check    *bool
	log      *cliutil.LogFlag
}

func bindSimFlags(fs *flag.FlagSet) *simFlags {
	return &simFlags{
		bench:    fs.String("bench", "sort", "workload: sort, wordcount, wordcount-nc"),
		pairArg:  fs.String("pair", "cc", "scheduler pair (code or long form)"),
		hosts:    fs.Int("hosts", 2, "physical nodes"),
		vms:      fs.Int("vms", 2, "VMs per node"),
		inputMB:  fs.Int64("input", 64, "input data per datanode VM, in MB"),
		seed:     fs.Int64("seed", 1, "simulation seed"),
		slowdown: fs.Float64("slowdown", 0, "slow host 0's disk by this factor (0 = off; for gate testing)"),
		points:   fs.Int("timeseries-points", 0, "timeseries sample cap (0 = default 160)"),
		check:    cliutil.BindCheckFlag(fs),
		log:      cliutil.BindLogFlag(fs),
	}
}

// setup resolves the sim flags into a cluster config, workload and pair.
func (sf *simFlags) setup() (adaptmr.ClusterConfig, adaptmr.Workload, adaptmr.Pair, error) {
	cfg := adaptmr.DefaultClusterConfig()
	cfg.Hosts = *sf.hosts
	cfg.VMsPerHost = *sf.vms
	cfg.Seed = *sf.seed
	if *sf.slowdown > 0 {
		cfg.HostDiskSlowdown = map[int]float64{0: *sf.slowdown}
	}

	var wl adaptmr.Workload
	switch *sf.bench {
	case "sort":
		wl = adaptmr.SortBenchmark(*sf.inputMB << 20)
	case "wordcount":
		wl = adaptmr.WordCountBenchmark(*sf.inputMB << 20)
	case "wordcount-nc", "wordcount-no-combiner":
		wl = adaptmr.WordCountNoCombinerBenchmark(*sf.inputMB << 20)
	default:
		return cfg, wl, adaptmr.Pair{}, fmt.Errorf("unknown benchmark %q", *sf.bench)
	}
	pair, err := adaptmr.ParsePair(*sf.pairArg)
	if err != nil {
		return cfg, wl, adaptmr.Pair{}, err
	}
	return cfg, wl, pair, nil
}

// reportOptions resolves the sim flags into the report labels.
func (sf *simFlags) reportOptions() adaptmr.ReportOptions {
	return adaptmr.ReportOptions{
		Workload:         *sf.bench,
		InputMB:          *sf.inputMB,
		TimeseriesPoints: *sf.points,
		CheckInvariants:  *sf.check,
	}
}

// run executes one instrumented job per the sim flags and analyzes it.
func (sf *simFlags) run() (*adaptmr.Report, error) {
	cfg, wl, pair, err := sf.setup()
	if err != nil {
		return nil, err
	}
	return adaptmr.RunReport(cfg, wl.Job, pair, sf.reportOptions())
}

// renderer is what run and explain render: a Report or an ExplainReport.
type renderer interface {
	WriteMarkdown(io.Writer) error
	WriteHTML(io.Writer) error
}

// render writes rep in the given format to path (stdout when empty).
func render(rep renderer, format, path string) error {
	var w io.Writer = os.Stdout
	if path != "" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	switch format {
	case "md", "markdown":
		return rep.WriteMarkdown(w)
	case "html":
		return rep.WriteHTML(w)
	case "json":
		return writeJSON(w, rep)
	default:
		return fmt.Errorf("unknown format %q (want md, html or json)", format)
	}
}

func cmdRun(args []string) {
	fs := flag.NewFlagSet("adaptreport run", flag.ExitOnError)
	sf := bindSimFlags(fs)
	format := fs.String("format", "md", "output format: md, html or json")
	out := fs.String("o", "", "output path (default stdout)")
	benchOut := fs.String("bench-out", "", "also write the run's bench summary JSON here")
	evalCache := cliutil.BindEvalCacheFlag(fs)
	prof := cliutil.BindProfileFlags(fs)
	fs.Parse(args)
	initLogger(sf.log)
	if err := prof.Start(); err != nil {
		fail(err)
	}

	// The instrumented report run cannot be served from the eval cache
	// (cached results cannot replay their observations), so -evalcache
	// instead primes the cache with the equivalent uninstrumented
	// evaluation and reports the tallies.
	if *evalCache != "" {
		if err := primeEvalCache(sf, *evalCache); err != nil {
			fail(err)
		}
	}

	rep, err := sf.run()
	if err != nil {
		fail(err)
	}
	if err := render(rep, *format, *out); err != nil {
		fail(err)
	}
	if *benchOut != "" {
		if err := writeJSONFile(*benchOut, rep.Bench); err != nil {
			fail(err)
		}
	}
	if err := prof.Stop(); err != nil {
		fail(err)
	}
}

// cmdExplain runs one instrumented job with journey and decision
// provenance enabled and renders the explain report.
func cmdExplain(args []string) {
	fs := flag.NewFlagSet("adaptreport explain", flag.ExitOnError)
	sf := bindSimFlags(fs)
	format := fs.String("format", "md", "output format: md, html or json")
	out := fs.String("o", "", "output path (default stdout)")
	prof := cliutil.BindProfileFlags(fs)
	fs.Parse(args)
	initLogger(sf.log)
	if err := prof.Start(); err != nil {
		fail(err)
	}

	cfg, wl, pair, err := sf.setup()
	if err != nil {
		fail(err)
	}
	rep, err := adaptmr.RunExplain(cfg, wl.Job, pair, sf.reportOptions())
	if err != nil {
		fail(err)
	}
	if err := render(rep, *format, *out); err != nil {
		fail(err)
	}
	if err := prof.Stop(); err != nil {
		fail(err)
	}
}

// primeEvalCache runs the report's (cluster, job, pair) evaluation
// uninstrumented against the on-disk cache at dir — a hit answers from
// disk, a miss simulates once and stores — and prints the cache's
// lifetime tallies.
func primeEvalCache(sf *simFlags, dir string) error {
	cfg, wl, pair, err := sf.setup()
	if err != nil {
		return err
	}
	cache, err := adaptmr.OpenEvalCache(dir)
	if err != nil {
		return err
	}
	tuner := adaptmr.NewTuner(cfg, wl.Job, adaptmr.WithEvalCacheHandle(cache))
	if _, err := tuner.RunPlan(adaptmr.UniformPlan(adaptmr.TwoPhases, pair)); err != nil {
		return err
	}
	st := cache.Stats()
	logger.Info("evalcache primed", "dir", dir,
		"hits", st.Hits, "misses", st.Misses, "bypasses", st.Bypasses)
	return nil
}

// gatedBench is one workload the gate compares: its committed baseline
// path and this run's bench.
type gatedBench struct {
	label    string
	baseline string
	bench    adaptmr.Bench
}

func cmdGate(args []string) {
	fs := flag.NewFlagSet("adaptreport gate", flag.ExitOnError)
	sf := bindSimFlags(fs)
	baseline := fs.String("baseline", "BENCH_baseline.json", "committed baseline bench JSON")
	candidate := fs.String("candidate", "", "write the candidate bench JSON here (for CI artifacts)")
	htmlOut := fs.String("html", "", "write the candidate's full HTML report here")
	update := fs.Bool("update", false, "rewrite the baseline from this run instead of comparing")
	fleetBaseline := fs.String("fleet-baseline", "",
		"also gate the built-in fleet smoke scenario against this committed bench JSON (-update rewrites it)")
	fleetCandidate := fs.String("fleet-candidate", "", "write the fleet candidate bench JSON here (for CI artifacts)")
	onlineBaseline := fs.String("online-baseline", "",
		"also gate the online-controller run of this workload against this committed bench JSON (-update rewrites it)")
	onlineCandidate := fs.String("online-candidate", "", "write the online candidate bench JSON here (for CI artifacts)")
	parallel := cliutil.BindParallelFlag(fs)
	sweepOut := fs.String("sweep-out", "",
		"also run the 16-pair profile sweep serial and with -parallel workers, verify identical output, and write the timing JSON here")
	cmpOut := fs.String("o", "",
		"write the comparison here too (JSON when the path ends in .json, the text table otherwise)")
	prof := cliutil.BindProfileFlags(fs)
	fs.Parse(args)
	initLogger(sf.log)
	if err := prof.Start(); err != nil {
		fail(err)
	}

	rep, err := sf.run()
	if err != nil {
		fail(err)
	}
	if *sweepOut != "" {
		if err := writeSweep(sf, *parallel, *sweepOut); err != nil {
			fail(err)
		}
	}
	gated := []gatedBench{{"", *baseline, rep.Bench}}
	if err := writeCandidate(*candidate, rep.Bench); err != nil {
		fail(err)
	}

	// The fleet workload: the built-in multi-job smoke scenario.
	if *fleetBaseline != "" {
		res, err := adaptmr.RunFleet(adaptmr.SmokeFleetScenario(), adaptmr.WithParallelism(*parallel))
		if err != nil {
			fail(err)
		}
		b := adaptmr.FleetBench(res)
		gated = append(gated, gatedBench{"fleet", *fleetBaseline, b})
		if err := writeCandidate(*fleetCandidate, b); err != nil {
			fail(err)
		}
	}
	// The online workload: the same (cluster, job) as the main bench but
	// executed under the online adaptive controller at smoke-scale policy.
	if *onlineBaseline != "" {
		cfg, wl, _, err := sf.setup()
		if err != nil {
			fail(err)
		}
		res, err := adaptmr.RunOnline(cfg, wl.Job,
			adaptmr.WithOnlineControl(adaptmr.SmokeOnlinePolicy()),
			adaptmr.WithParallelism(*parallel))
		if err != nil {
			fail(err)
		}
		b := adaptmr.OnlineBench(res, *sf.bench, cfg, *sf.inputMB)
		gated = append(gated, gatedBench{"online", *onlineBaseline, b})
		if err := writeCandidate(*onlineCandidate, b); err != nil {
			fail(err)
		}
	}
	if *htmlOut != "" {
		if err := render(rep, "html", *htmlOut); err != nil {
			fail(err)
		}
	}

	changed := false
	for i, g := range gated {
		if *update {
			if err := writeJSONFile(g.baseline, g.bench); err != nil {
				fail(err)
			}
			fmt.Printf("baseline updated: %s (makespan %.3fs)\n", g.baseline, g.bench.MakespanS)
			continue
		}
		base, err := readBench(g.baseline)
		if err != nil {
			fail(err)
		}
		cmp, err := adaptmr.CompareBenches(base, g.bench)
		if err != nil {
			fail(err)
		}
		if g.label != "" {
			fmt.Printf("\n%s workload (%s):\n", g.label, g.bench.Workload)
		}
		if err := cmp.WriteText(os.Stdout); err != nil {
			fail(err)
		}
		if i == 0 && *cmpOut != "" {
			if err := writeComparison(*cmpOut, cmp); err != nil {
				fail(err)
			}
		}
		changed = changed || cmp.Changed()
	}
	if err := prof.Stop(); err != nil {
		fail(err)
	}
	if changed {
		os.Exit(1)
	}
}

// writeCandidate writes a candidate bench to path, if one was given.
func writeCandidate(path string, b adaptmr.Bench) error {
	if path == "" {
		return nil
	}
	return writeJSONFile(path, b)
}

func cmdCompare(args []string) {
	fs := flag.NewFlagSet("adaptreport compare", flag.ExitOnError)
	cmpOut := fs.String("o", "",
		"write the comparison here too (JSON when the path ends in .json, the text table otherwise)")
	lf := cliutil.BindLogFlag(fs)
	fs.Parse(args)
	initLogger(lf)
	if fs.NArg() != 2 {
		fail(fmt.Errorf("compare needs exactly two bench JSON paths, got %d", fs.NArg()))
	}
	base, err := readBench(fs.Arg(0))
	if err != nil {
		fail(err)
	}
	cand, err := readBench(fs.Arg(1))
	if err != nil {
		fail(err)
	}
	cmp, err := adaptmr.CompareBenches(base, cand)
	if err != nil {
		fail(err)
	}
	if err := cmp.WriteText(os.Stdout); err != nil {
		fail(err)
	}
	if *cmpOut != "" {
		if err := writeComparison(*cmpOut, cmp); err != nil {
			fail(err)
		}
	}
	if cmp.Changed() {
		os.Exit(1)
	}
}

// writeComparison writes the rendered comparison to path: JSON (the full
// Comparison struct) when the path ends in .json, the benchstat-style
// text table otherwise. Written even on FAIL, so CI can upload the
// verdict as an artifact before the gate's exit status stops the job.
func writeComparison(path string, cmp adaptmr.Comparison) error {
	if strings.HasSuffix(path, ".json") {
		return writeJSONFile(path, cmp)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := cmp.WriteText(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sweepRecord is the JSON artifact produced by gate -sweep-out: the
// serial vs parallel timing of the 16-pair profile sweep plus the
// byte-identity verdict.
type sweepRecord struct {
	Bench           string  `json:"bench"`
	Pairs           int     `json:"pairs"`
	Workers         int     `json:"workers"`
	SerialSeconds   float64 `json:"serial_seconds"`
	ParallelSeconds float64 `json:"parallel_seconds"`
	Speedup         float64 `json:"speedup"`
	Evaluations     int     `json:"evaluations"`
	Identical       bool    `json:"identical"`
}

// writeSweep runs the full 16-pair profile sweep twice — serial and with
// the requested worker count — verifies the profiles are byte-identical
// and the evaluation count unchanged, and records the wall-clock speedup.
func writeSweep(sf *simFlags, parallel int, path string) error {
	cfg, wl, _, err := sf.setup()
	if err != nil {
		return err
	}
	workers := parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	profile := func(n int) ([]adaptmr.Profile, int, float64, error) {
		tuner := adaptmr.NewTuner(cfg, wl.Job, adaptmr.WithParallelism(n))
		start := time.Now()
		profs, err := tuner.Profile()
		if err != nil {
			return nil, 0, 0, err
		}
		return profs, tuner.Evaluations(), time.Since(start).Seconds(), nil
	}

	serial, serialEvals, serialSecs, err := profile(1)
	if err != nil {
		return err
	}
	par, parEvals, parSecs, err := profile(workers)
	if err != nil {
		return err
	}

	serialJSON, err := json.Marshal(serial)
	if err != nil {
		return err
	}
	parJSON, err := json.Marshal(par)
	if err != nil {
		return err
	}
	identical := bytes.Equal(serialJSON, parJSON) && serialEvals == parEvals
	rec := sweepRecord{
		Bench:           *sf.bench,
		Pairs:           len(serial),
		Workers:         workers,
		SerialSeconds:   serialSecs,
		ParallelSeconds: parSecs,
		Speedup:         serialSecs / parSecs,
		Evaluations:     parEvals,
		Identical:       identical,
	}
	if err := writeJSONFile(path, rec); err != nil {
		return err
	}
	fmt.Printf("sweep: %d pairs, serial %.2fs, %d workers %.2fs (%.2fx), identical=%v -> %s\n",
		rec.Pairs, rec.SerialSeconds, rec.Workers, rec.ParallelSeconds, rec.Speedup, rec.Identical, path)
	if !identical {
		return fmt.Errorf("parallel profile sweep diverged from serial output")
	}
	return nil
}

func readBench(path string) (adaptmr.Bench, error) {
	var b adaptmr.Bench
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}

func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func writeJSONFile(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeJSON(f, v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
