package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"adaptmr/internal/check"
	"adaptmr/internal/cluster"
	"adaptmr/internal/fleet"
	"adaptmr/internal/iosched"
	"adaptmr/internal/mapred"
	"adaptmr/internal/workloads"
)

// unit is one measured unit of work: a job or a fleet scenario.
type unit struct {
	setup, wall time.Duration
	events      int64
	allocs      uint64
	makespan    float64 // simulated seconds
	rssMB       float64 // peak resident memory while the unit ran
	// scale normalises the unit's host times for machine speed (see
	// calibrate.go); 0 outside measured runs.
	scale float64
	// output is the unit's full result, serialised; repeated units of the
	// same inputs must reproduce it byte for byte.
	output []byte
}

// traced is what one traced unit adds to its unit.
type traced struct {
	tr       *trace
	checkErr error
	// Simulated phase lengths (mean per job for fleets) and fleet extras.
	mapS, shuffleS, reduceS float64
	meanWaitS               float64
	cellImbalance           float64
}

// serialWorkload runs one unit of work at a time on the calling
// goroutine (fleet cells may use their own).
type serialWorkload interface {
	once(tracing bool) (unit, *traced, error)
}

// mallocs reads the exact cumulative allocation count (it stops the world
// briefly, so callers read it outside timed regions).
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// jobWorkload is one MapReduce job on a fresh cluster: cluster.New, pair
// install, input placement, then the job to completion.
type jobWorkload struct {
	hosts, vms  int
	clusterSeed int64
	pair        iosched.Pair
	job         mapred.Config
}

// newJobWorkload derives the job from the seed: the cluster seed, and the
// per-VM input of inputMB less a seed-chosen 0–4 MB in 64 KiB steps, so
// every seed moves the simulated output a little while the job keeps its
// shape (the same number of HDFS blocks and map tasks).
func newJobWorkload(hosts, vms int, bench string, inputMB int64, seed int64) (jobWorkload, error) {
	trim := int64(derive(seed, bench, 0)%64) << 16
	b, err := workloads.ByName(bench, inputMB<<20-trim)
	if err != nil {
		return jobWorkload{}, err
	}
	return jobWorkload{hosts: hosts, vms: vms, clusterSeed: int64(derive(seed, "cluster", 0) >> 1),
		pair: iosched.DefaultPair, job: b.Job}, nil
}

// recovered turns a simulator panic into the unit's error, so a failing
// unit is counted in the run's failures instead of ending the run.
func recovered(err *error, what string) {
	if p := recover(); p != nil {
		*err = fmt.Errorf("%s panicked: %v", what, p)
	}
}

func (w jobWorkload) once(tracing bool) (u unit, tr *traced, err error) {
	defer recovered(&err, w.job.Name)
	a0 := mallocs()
	t0 := time.Now()
	cc := cluster.DefaultConfig()
	cc.Hosts, cc.VMsPerHost, cc.Seed = w.hosts, w.vms, w.clusterSeed
	var set *check.Set
	if tracing {
		set = check.NewSet()
		cc.Check = set
	}
	cl := cluster.New(cc)
	cl.InstallPair(w.pair)
	job := mapred.NewJob(cl, w.job)
	var rec *recorder
	if tracing {
		rec = attach(cl)
	}
	u.setup = time.Since(t0)
	job.Start(nil)
	cl.Eng.Run()
	u.wall = time.Since(t0)
	u.allocs = mallocs() - a0
	if !job.Done() {
		return u, nil, fmt.Errorf("job %s did not complete", w.job.Name)
	}
	res := job.Result()
	u.events = int64(cl.Eng.EventsFired())
	u.makespan = res.Duration.Seconds()
	if u.output, err = json.Marshal(res); err != nil {
		return u, nil, err
	}
	if tracing {
		set.Finalize()
		tr = &traced{
			tr:       rec.finish(),
			checkErr: set.Err(),
			mapS:     res.PhaseDuration(mapred.PhaseMap).Seconds(),
			shuffleS: res.PhaseDuration(mapred.PhaseShuffle).Seconds(),
			reduceS:  res.PhaseDuration(mapred.PhaseReduce).Seconds(),
		}
	}
	return u, tr, nil
}

// fleetWorkload is one multi-job fleet scenario: scenario parse and
// validation, per-cell cluster builds, then every job to completion.
type fleetWorkload struct {
	scenario    []byte
	parallelism int
}

// newFleetWorkload builds the fleet-mixed scenario: 2 cells × 2 hosts ×
// 4 VMs, fair share, and Poisson arrivals (drawn from the seed) of 4 sort
// and 4 wordcount jobs at 128 MB per VM. Each cell runs at most three
// jobs at once, so its fourth waits for admission. The arrivals fall
// within 10 s, a fraction of one job, so jobs overlap and the seed moves
// the makespan by a few percent only.
func newFleetWorkload(seed int64, parallelism int) (fleetWorkload, error) {
	s := fleet.Scenario{
		Name: "fleet-mixed", Seed: seed, Cells: 2, HostsPerCell: 2, VMsPerHost: 4,
		Pair: "cc", Policy: fleet.PolicyFair, MaxConcurrentPerCell: 3,
		Arrivals: fleet.ArrivalSpec{Kind: "poisson", RatePerMin: 48},
		Jobs: []fleet.JobSpec{
			{ID: "sort", Benchmark: "sort", InputPerVMMB: 128, Count: 4},
			{ID: "wc", Benchmark: "wordcount", InputPerVMMB: 128, Count: 4},
		},
	}
	data, err := json.Marshal(s)
	return fleetWorkload{scenario: data, parallelism: parallelism}, err
}

func (w fleetWorkload) once(tracing bool) (u unit, tr *traced, err error) {
	defer recovered(&err, "fleet-mixed")
	a0 := mallocs()
	t0 := time.Now()
	s, err := fleet.Parse(w.scenario)
	if err != nil {
		return u, nil, err
	}
	var cells []*cluster.Cluster
	var recs []*recorder
	opt := fleet.Options{Parallelism: w.parallelism, OnCell: func(c int, cl *cluster.Cluster) {
		cells = append(cells, cl)
		if tracing {
			recs = append(recs, attach(cl))
		}
		if c == s.Cells-1 {
			u.setup = time.Since(t0)
		}
	}}
	var set *check.Set
	if tracing {
		set = check.NewSet()
		opt.Check = set
	}
	res, err := fleet.Run(s, opt)
	u.wall = time.Since(t0)
	u.allocs = mallocs() - a0
	if err != nil {
		return u, nil, err
	}
	u.events = res.SimEvents
	u.makespan = res.Agg.MakespanS
	if u.output, err = json.Marshal(res); err != nil {
		return u, nil, err
	}
	if !tracing {
		return u, nil, nil
	}
	set.Finalize()
	parts := make([]*trace, len(recs))
	var maxEv, sumEv float64
	for i, r := range recs {
		parts[i] = r.finish()
		ev := float64(cells[i].Eng.EventsFired())
		maxEv = max(maxEv, ev)
		sumEv += ev
	}
	tr = &traced{tr: merge(parts), checkErr: set.Err(), meanWaitS: res.Agg.MeanWaitS}
	if sumEv > 0 {
		tr.cellImbalance = maxEv / (sumEv / float64(len(cells)))
	}
	if n := float64(len(res.Jobs)); n > 0 {
		tr.mapS = res.Agg.PhaseS["map"] / n
		tr.shuffleS = res.Agg.PhaseS["shuffle"] / n
		tr.reduceS = res.Agg.PhaseS["reduce"] / n
	}
	return u, tr, nil
}
