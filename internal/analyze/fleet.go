package analyze

import (
	"fmt"
	"io"
	"sort"

	"adaptmr/internal/fleet"
)

// BenchFromFleet condenses a fleet run into the committed gate summary.
// The workload label is namespaced ("fleet:<scenario>") so a fleet bench
// can never be compared against a single-job baseline by accident; phase
// times are the per-phase sums across every job (the fleet phase-mix
// fingerprint).
func BenchFromFleet(res *fleet.Result) Bench {
	b := Bench{
		Schema:   benchSchema,
		Workload: "fleet:" + res.Scenario,
		Hosts:    res.Hosts,
		VMs:      res.VMs,
		InputMB:  res.InputMB,
		Seed:     res.Seed,
		Pair:     res.Pair,

		MakespanS: round6(res.Agg.MakespanS),
		PhaseS:    map[string]float64{},
		BlameS:    map[string]float64{},
		SimEvents: res.SimEvents,
	}
	for name, s := range res.Agg.PhaseS {
		b.PhaseS[name] = round6(s)
	}
	return b
}

// WriteFleetMarkdown renders a fleet result as a markdown report:
// scenario header, aggregate table, per-class mix, and the per-job
// outcome table in (cell, admission) order.
func WriteFleetMarkdown(w io.Writer, res *fleet.Result) error {
	ew := &errWriter{w: w}

	ew.printf("# Fleet report: %s\n\n", res.Scenario)
	ew.printf("%d cells × %d hosts (%d VMs total), pair `%s`, policy `%s`, seed %d, input %d MB\n\n",
		res.Cells, res.Hosts, res.VMs, res.Pair, res.Policy, res.Seed, res.InputMB)

	a := res.Agg
	ew.printf("## Aggregate\n\n")
	ew.printf("| metric | value |\n|---|---|\n")
	ew.printf("| jobs completed | %d |\n", a.Jobs)
	ew.printf("| makespan | %.1f s |\n", a.MakespanS)
	ew.printf("| throughput | %.1f jobs/hour |\n", a.ThroughputJobsPerHour)
	ew.printf("| job duration mean / p50 / p95 | %.1f / %.1f / %.1f s |\n",
		a.MeanDurationS, a.P50DurationS, a.P95DurationS)
	ew.printf("| admission wait mean / max | %.1f / %.1f s |\n", a.MeanWaitS, a.MaxWaitS)
	ew.printf("| peak concurrency (per cell) | %d |\n", a.PeakConcurrency)
	ew.printf("| mean phase overlap | %.1f %% |\n", a.MeanOverlapPct)
	ew.printf("| sim events | %d |\n", res.SimEvents)
	if res.WallS > 0 {
		ew.printf("| wall clock | %.2f s (%.0f events/s) |\n", res.WallS, res.EventsPerSec)
	}
	ew.printf("\n")

	if len(a.ByClass) > 0 {
		ew.printf("## Disk-operation class mix\n\n")
		ew.printf("| class | jobs |\n|---|---|\n")
		classes := make([]string, 0, len(a.ByClass))
		for c := range a.ByClass {
			classes = append(classes, c)
		}
		sort.Strings(classes)
		for _, c := range classes {
			ew.printf("| %s | %d |\n", c, a.ByClass[c])
		}
		ew.printf("\ntotal phase time: map %.1f s, shuffle %.1f s, reduce %.1f s\n\n",
			a.PhaseS["map"], a.PhaseS["shuffle"], a.PhaseS["reduce"])
	}

	ew.printf("## Jobs\n\n")
	ew.printf("| job | bench | class | cell | queue | arrive | wait | duration | map/shuffle/reduce (s) | overlap |\n")
	ew.printf("|---|---|---|---|---|---|---|---|---|---|\n")
	for _, j := range res.Jobs {
		queue := j.Queue
		if queue == "" {
			queue = "-"
		}
		ew.printf("| %s | %s | %s | %d | %s | %.1fs | %.1fs | %.1fs | %.1f/%.1f/%.1f | %.0f%% |\n",
			j.ID, j.Benchmark, j.Class, j.Cell, queue,
			float64(j.ArriveMS)/1000, float64(j.WaitMS)/1000, float64(j.DurationMS)/1000,
			j.MapS, j.ShuffleS, j.ReduceS, j.OverlapPct)
	}
	ew.printf("\n")
	if ew.err != nil {
		return fmt.Errorf("analyze: fleet report: %w", ew.err)
	}
	return nil
}
