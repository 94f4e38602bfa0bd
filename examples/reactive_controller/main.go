// Reactive controller: the paper's future-work idea made concrete — no
// job knowledge at all. Each host watches its own read/write mix and
// switches the scheduler pair when the regime changes, rate-limited
// because every switch drains the queues.
//
// Compare three ways of running the same sort job:
//
//	static default   (CFQ, CFQ) for the whole job
//	meta-scheduler   profile + Algorithm 1 (needs phase boundaries)
//	reactive         per-host regime detection (needs nothing)
//
//	go run ./examples/reactive_controller
package main

import (
	"fmt"
	"os"

	"adaptmr"
)

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "reactive_controller:", err)
		os.Exit(1)
	}
}

func main() {
	cfg := adaptmr.DefaultClusterConfig()
	job := adaptmr.SortBenchmark(512 << 20).Job

	static, err := adaptmr.Run(cfg, job, adaptmr.DefaultPair)
	check(err)
	fmt.Printf("static default   %7.1f s\n", static.Duration.Seconds())

	tuned, err := adaptmr.NewTuner(cfg, job).Tune()
	check(err)
	fmt.Printf("meta-scheduler   %7.1f s  %s (offline: %d profiling/search executions)\n",
		tuned.Duration.Seconds(), tuned.Plan, tuned.Evaluations)

	reactive, err := adaptmr.RunOnline(cfg, job,
		adaptmr.WithOnlineControl(adaptmr.ReactiveOnlinePolicy()))
	check(err)
	fmt.Printf("reactive         %7.1f s  (%d online switch commands, zero offline runs)\n",
		reactive.Job.Duration.Seconds(), reactive.Switches)

	fmt.Println("\nThe reactive controller trades part of the meta-scheduler's gain")
	fmt.Println("for zero profiling cost and no dependence on job phase boundaries —")
	fmt.Println("it keeps working when the cluster runs many jobs at once.")
}
