package main

import (
	"bytes"
	"fmt"
	"time"
)

// minUnits is the fewest measured units a run takes even when the time
// budget is already spent, so medians always have a few samples.
const minUnits = 5

// serialRun is the untraced measurement of a serial workload: a warm-up
// unit whose output is the reference, then units until the deadline.
type serialRun struct {
	ref   unit
	units []unit
	speed speed // reference kernel timed right before every unit
}

// measure runs units of w until the deadline, checking that each one
// reproduces the warm-up unit's output byte for byte.
func measure(w serialWorkload, deadline time.Time, t *tally) (*serialRun, error) {
	ref, _, err := w.once(false)
	if err != nil {
		return nil, fmt.Errorf("warm-up unit: %w", err)
	}
	run := &serialRun{ref: ref}
	for i := 0; i < minUnits || time.Now().Before(deadline); i++ {
		k := run.speed.sample()
		resetPeakRSS()
		u, _, err := w.once(false)
		u.rssMB = maxRSSMB()
		u.scale = kernelNominal.Seconds() / k
		switch {
		case err != nil:
			t.fail("unit %d: %v", i, err)
			continue
		case !bytes.Equal(u.output, ref.output):
			t.fail("unit %d: output differs from the warm-up unit (events %d vs %d, makespan %.9f vs %.9f)",
				i, u.events, ref.events, u.makespan, ref.makespan)
		default:
			t.ok()
		}
		run.units = append(run.units, u)
	}
	return run, nil
}

// walls returns the units' wall times in seconds.
func (r *serialRun) walls() []float64 {
	out := make([]float64, len(r.units))
	for i, u := range r.units {
		out[i] = u.wall.Seconds()
	}
	return out
}

// endToEnd sets every end-to-end metric from a serial run. Each unit's
// host times are normalised for machine speed by the kernel timed right
// before it, which follows the machine's speed unit by unit. One request
// is one unit of work, so the req_* metrics describe the same samples as
// wall_s.
func (r *serialRun) endToEnd(ms *metricSet) []string {
	var walls, setups, rates, rss []float64
	var allocs uint64
	var events int64
	var total float64
	for _, u := range r.units {
		wall := u.scale * u.wall.Seconds()
		walls = append(walls, wall)
		setups = append(setups, u.scale*u.setup.Seconds())
		rss = append(rss, u.rssMB)
		rates = append(rates, float64(u.events)/wall)
		allocs += u.allocs
		events += u.events
		total += wall
	}
	ms.set("wall_s", "s", median(walls))
	ms.set("events_per_sec", "1/s", median(rates))
	ms.set("allocs_per_event", "count", float64(allocs)/float64(max(events, 1)))
	ms.set("max_rss_mb", "MB", median(rss))
	ms.set("setup_s", "s", median(setups))
	ms.set("sim_events", "count", float64(r.ref.events))
	ms.set("makespan_s", "s", r.ref.makespan)
	ms.set("req_p50_ms", "ms", 1000*median(walls))
	ms.set("req_p90_ms", "ms", 1000*quantile(walls, 0.9))
	ms.set("req_per_s", "1/s", float64(len(walls))/total)
	return []string{
		fmt.Sprintf("samples: %d units (p90 has %d beyond it)", len(walls), len(walls)/10),
		r.speed.note(),
	}
}
