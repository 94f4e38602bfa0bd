package adaptmr

import (
	"fmt"

	"adaptmr/internal/analyze"
	"adaptmr/internal/cluster"
	"adaptmr/internal/mapred"
	"adaptmr/internal/obs"
)

// Report is the full analysis artefact of one traced run: critical path
// with per-layer blame, per-phase breakdown tables, whole-run latency
// quantiles, totals and fixed-interval timeseries. It marshals to
// deterministic JSON and renders via WriteMarkdown / WriteHTML.
type Report = analyze.Report

// Bench is the compact committed-to-git run summary the regression gate
// compares (configuration labels + watched scalar metrics).
type Bench = analyze.Bench

// Comparison is the outcome of gating a candidate Bench against a
// baseline; Changed() reports whether any compared metric differs.
type Comparison = analyze.Comparison

// ReportOptions labels and parameterises RunReport and RunExplain.
type ReportOptions struct {
	// Workload names the benchmark (e.g. "sort") in the report's bench
	// summary; InputMB is the per-datanode input volume label.
	Workload string
	InputMB  int64

	// TimeseriesPoints caps the fixed-interval sample count (default
	// 160).
	TimeseriesPoints int

	// CheckInvariants attaches the runtime correctness harness
	// (internal/check) to every block queue of the instrumented run; a
	// violation fails the report.
	CheckInvariants bool
}

// RunReport executes one job under a single scheduler pair on a fresh,
// fully instrumented cluster (tracer + metrics + live timeseries
// sampler) and analyzes the run into a Report. The input cfg's Obs sink
// is replaced; the run is deterministic for a fixed cfg/job/pair, so the
// report is byte-identical across invocations.
func RunReport(cfg ClusterConfig, job JobConfig, pair Pair, opts ReportOptions) (*Report, error) {
	run, err := runInstrumented(cfg, job, pair, opts, false)
	if err != nil {
		return nil, err
	}
	return analyze.Build(run.tracer, run.snap, run.smp, run.opts)
}

// ExplainReport is the "why" artefact of one instrumented run: the full
// Report plus per-phase request-journey latency decompositions and
// scheduler decision provenance (see RunExplain). Renders via
// WriteMarkdown / WriteHTML and marshals to deterministic JSON.
type ExplainReport = analyze.ExplainReport

// RunExplain executes one job under a single scheduler pair on a fully
// instrumented cluster — tracer, metrics, timeseries sampler, journey log
// and decision log — and analyzes the run into an ExplainReport answering
// "why this pair, this phase": every completed request's latency is
// attributed 100% to named stages (ns-exact), and every elevator dispatch
// decision is tallied per phase and queue level. Deterministic for a
// fixed cfg/job/pair, byte-identical across invocations.
func RunExplain(cfg ClusterConfig, job JobConfig, pair Pair, opts ReportOptions) (*ExplainReport, error) {
	run, err := runInstrumented(cfg, job, pair, opts, true)
	if err != nil {
		return nil, err
	}
	return analyze.BuildExplain(run.tracer, run.snap, run.smp, run.journeys, run.decisions, run.opts)
}

// instrumentedRun is what runInstrumented hands to the analyzers.
type instrumentedRun struct {
	tracer    *Tracer
	snap      *obs.Snapshot
	smp       *analyze.Sampler
	journeys  *obs.JourneyLog
	decisions *obs.DecisionLog
	opts      analyze.Options
}

// runInstrumented runs one job to completion on a fresh cluster carrying
// a tracer, a metrics registry and a timeseries sampler, plus the journey
// and decision logs when explain is set.
func runInstrumented(cfg ClusterConfig, job JobConfig, pair Pair, opts ReportOptions, explain bool) (instrumentedRun, error) {
	if err := validate(cfg, job); err != nil {
		return instrumentedRun{}, err
	}
	run := instrumentedRun{tracer: NewTracer()}
	cfg.Obs.Trace = run.tracer
	cfg.Obs.Metrics = NewMetrics()
	cfg.Obs.PIDBase = 0
	if explain {
		run.journeys = obs.NewJourneyLog()
		run.decisions = obs.NewDecisionLog()
		cfg.Obs.Journeys = run.journeys
		cfg.Obs.Decisions = run.decisions
	}
	var checks *CheckSet
	if opts.CheckInvariants {
		checks = NewCheckSet()
		cfg.Check = checks
	}

	cl := cluster.New(cfg)
	run.smp = analyze.NewSampler()
	run.smp.AttachCluster(cl)
	cl.InstallPair(pair)
	j := mapred.NewJob(cl, job)
	j.Start(nil)
	cl.Eng.Run()
	if !j.Done() {
		return instrumentedRun{}, fmt.Errorf("adaptmr: instrumented run drained before job completion")
	}
	if checks != nil {
		checks.Finalize()
		if err := checks.Err(); err != nil {
			return instrumentedRun{}, fmt.Errorf("adaptmr: instrumented run failed invariant checks: %w", err)
		}
	}
	run.snap = j.Result().Metrics
	run.opts = analyze.Options{
		Workload:         opts.Workload,
		Hosts:            cfg.Hosts,
		VMs:              cfg.VMsPerHost,
		InputMB:          opts.InputMB,
		Seed:             cfg.Seed,
		Pair:             pair.Code(),
		TimeseriesPoints: opts.TimeseriesPoints,
	}
	return run, nil
}

// CompareBenches checks a candidate bench against a baseline for exact
// equality on every simulated metric. It errors when the two benches
// come from different run configurations.
func CompareBenches(base, cand Bench) (Comparison, error) {
	return analyze.Compare(base, cand)
}
