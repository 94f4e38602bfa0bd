// Command perfbench is the adaptmr benchmark: one command that runs a
// workload for a fixed time, checks its outputs, and prints every metric
// by name and unit, ending with one JSON result line.
//
//	perfbench --workload sort-2x4 --seed 1 --seconds 25 --trace 0
//
// --trace 0 measures the end-to-end metrics with no observer attached;
// --trace 1 makes a traced run instead and reports the per-layer metrics
// (see README.md for every metric and the layer replays behind them).
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string // CPU profiles and share tables
}

// workloadFns maps each workload name to its runner.
var workloadFns = map[string]func(options, *tally, *metricSet) ([]string, error){
	"sort-2x4": func(o options, t *tally, ms *metricSet) ([]string, error) {
		w, err := newJobWorkload(2, 4, "sort", 512, o.seed)
		if err != nil {
			return nil, err
		}
		return runSerial(o, w, t, ms)
	},
	"wordcount-4x4": func(o options, t *tally, ms *metricSet) ([]string, error) {
		w, err := newJobWorkload(4, 4, "wordcount", 512, o.seed)
		if err != nil {
			return nil, err
		}
		return runSerial(o, w, t, ms)
	},
	"fleet-mixed":   runFleet,
	"autotune-http": runHTTP,
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; every input is derived from it")
	flag.Float64Var(&o.seconds, "seconds", 25, "measurement time in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	flag.StringVar(&o.outDir, "out", filepath.Join(".bench_build", "perfbench"), "directory for CPU profiles and share tables")
	flag.Parse()
	o.trace = traceFlag == 1
	fn, ok := workloadFns[o.workload]
	if !ok || (traceFlag != 0 && traceFlag != 1) || o.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	t := &tally{}
	ms := newMetricSet()
	notes, err := fn(o, t, ms)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	if err := emit(os.Stdout, o.workload, t, ms, notes); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloadFns))
	for n := range workloadFns {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (o options) deadline(start time.Time) time.Time {
	return start.Add(time.Duration(o.seconds * float64(time.Second)))
}

// runSerial measures a serial workload: end-to-end metrics from untraced
// units, or per-layer metrics from a trace run.
func runSerial(o options, w serialWorkload, t *tally, ms *metricSet) ([]string, error) {
	if o.trace {
		lr, err := traceSerial(o, w, t)
		if err != nil {
			return nil, err
		}
		return lr.perLayer(ms), nil
	}
	run, err := measure(w, o.deadline(time.Now()), t)
	if err != nil {
		return nil, err
	}
	return run.endToEnd(ms), nil
}

// fleetParallelism is the cell parallelism of fleet-mixed units; the
// serial fallback (parallelism 1) must reproduce their output exactly.
const fleetParallelism = 2

// runFleet measures fleet-mixed at parallelism 2 and checks the serial
// fallback byte for byte against it; in a trace run the same pair of runs
// gives the shard speedup.
func runFleet(o options, t *tally, ms *metricSet) ([]string, error) {
	w, err := newFleetWorkload(o.seed, fleetParallelism)
	if err != nil {
		return nil, err
	}
	serial := w
	serial.parallelism = 1
	if !o.trace {
		run, err := measure(w, o.deadline(time.Now()), t)
		if err != nil {
			return nil, err
		}
		u, _, err := serial.once(false)
		t.check(sameOutput(u, err, run.ref))
		return run.endToEnd(ms), nil
	}
	lr, err := traceSerial(o, w, t)
	if err != nil {
		return nil, err
	}
	var serialWalls []float64
	for i := 0; i < tracedUnits; i++ {
		u, _, err := serial.once(false)
		t.check(sameOutput(u, err, unit{output: lr.refOutput}))
		serialWalls = append(serialWalls, u.wall.Seconds())
	}
	lr.shardSpeedup = median(serialWalls) / lr.untracedWall
	return lr.perLayer(ms), nil
}

// sameOutput checks a serial-fallback fleet unit against the sharded one.
func sameOutput(u unit, err error, ref unit) error {
	if err != nil {
		return fmt.Errorf("parallelism-1 fleet run: %w", err)
	}
	if !bytes.Equal(u.output, ref.output) {
		return fmt.Errorf("fleet output at parallelism 1 differs from parallelism %d", fleetParallelism)
	}
	return nil
}
