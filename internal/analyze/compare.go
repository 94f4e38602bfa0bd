package analyze

import (
	"fmt"
	"sort"
	"strings"
)

// benchSchema versions the committed baseline format independently from
// the full report schema. v3 dropped the host-time fields of v2 (wall
// clock, events/sec, allocations, GC): every field left is a simulated
// quantity, deterministic for a fixed configuration.
const benchSchema = "adaptmr-bench/v3"

// Bench is the compact, committed-to-git summary of one run: the
// configuration labels that identify the workload plus the simulated
// metrics the behaviour gate compares exactly. It is small enough to diff
// by eye in code review.
type Bench struct {
	Schema string `json:"schema"`

	// Run configuration. Two benches are comparable only if all of these
	// match — comparing a 2-host run against a 4-host baseline is a
	// config error, not a regression.
	Workload string `json:"workload"`
	Hosts    int    `json:"hosts"`
	VMs      int    `json:"vms"`
	InputMB  int64  `json:"input_mb"`
	Seed     int64  `json:"seed"`
	Pair     string `json:"pair"`

	// Compared metrics, each rounded to 6 decimal places.
	MakespanS    float64            `json:"makespan_s"`
	PhaseS       map[string]float64 `json:"phase_s"`
	BlameS       map[string]float64 `json:"blame_s"`
	SwitchStallS float64            `json:"switch_stall_s"`
	Dom0MB       float64            `json:"dom0_mb"`
	SimEvents    int64              `json:"sim_events"`

	// Switches counts issued in-run elevator switches (online-controller
	// benches only; omitted elsewhere).
	Switches int `json:"switches,omitempty"`
}

// benchFrom condenses a report into its gate summary.
func benchFrom(rep *Report, opts Options) Bench {
	b := Bench{
		Schema:   benchSchema,
		Workload: opts.Workload,
		Hosts:    opts.Hosts,
		VMs:      opts.VMs,
		InputMB:  opts.InputMB,
		Seed:     opts.Seed,
		Pair:     opts.Pair,

		MakespanS:    round6(rep.Job.MakespanS),
		PhaseS:       map[string]float64{},
		BlameS:       map[string]float64{},
		SwitchStallS: round6(rep.Totals.SwitchStallS),
		Dom0MB:       round6(rep.Totals.Dom0MB),
		SimEvents:    rep.Totals.SimEvents,
	}
	for _, p := range rep.Phases {
		b.PhaseS[p.Name] = round6(p.DurationS)
	}
	for layer, s := range rep.Critical.BlameS {
		b.BlameS[layer] = round6(s)
	}
	return b
}

// Delta is one compared metric. Changed means the candidate's value
// differs from the baseline's: every field is a rounded simulated
// quantity that is byte-deterministic for a fixed configuration, so any
// difference is a behaviour change.
type Delta struct {
	Metric    string  `json:"metric"`
	Base      float64 `json:"base"`
	Candidate float64 `json:"candidate"`
	// DeltaFrac is (candidate - base) / base, or 0 when base is 0.
	DeltaFrac float64 `json:"delta_frac"`
	Changed   bool    `json:"changed"`
}

// Comparison is the result of gating a candidate bench against a
// baseline.
type Comparison struct {
	Deltas []Delta `json:"deltas"`
}

// Changed reports whether any compared metric differs.
func (c Comparison) Changed() bool {
	for _, d := range c.Deltas {
		if d.Changed {
			return true
		}
	}
	return false
}

// Compare checks cand against base for exact equality on every metric.
// It errors if the two benches were produced by different run
// configurations.
func Compare(base, cand Bench) (Comparison, error) {
	if err := configMismatch(base, cand); err != nil {
		return Comparison{}, err
	}
	var c Comparison
	c.add("makespan_s", base.MakespanS, cand.MakespanS)
	for _, name := range sortedKeys2(base.PhaseS, cand.PhaseS) {
		c.add("phase."+name+"_s", base.PhaseS[name], cand.PhaseS[name])
	}
	for _, name := range sortedKeys2(base.BlameS, cand.BlameS) {
		c.add("blame."+name+"_s", base.BlameS[name], cand.BlameS[name])
	}
	c.add("switch_stall_s", base.SwitchStallS, cand.SwitchStallS)
	c.add("dom0_mb", base.Dom0MB, cand.Dom0MB)
	c.add("sim_events", float64(base.SimEvents), float64(cand.SimEvents))
	if base.Switches > 0 || cand.Switches > 0 {
		c.add("switches", float64(base.Switches), float64(cand.Switches))
	}
	return c, nil
}

// add records one compared metric.
func (c *Comparison) add(metric string, base, cand float64) {
	d := Delta{Metric: metric, Base: base, Candidate: cand, Changed: base != cand}
	if base != 0 {
		d.DeltaFrac = round6((cand - base) / base)
	}
	c.Deltas = append(c.Deltas, d)
}

// configMismatch returns a descriptive error when the two benches come
// from different run configurations (or schemas).
func configMismatch(base, cand Bench) error {
	var bad []string
	chk := func(field string, a, b any) {
		if a != b {
			bad = append(bad, fmt.Sprintf("%s (base %v, candidate %v)", field, a, b))
		}
	}
	chk("schema", base.Schema, cand.Schema)
	chk("workload", base.Workload, cand.Workload)
	chk("hosts", base.Hosts, cand.Hosts)
	chk("vms", base.VMs, cand.VMs)
	chk("input_mb", base.InputMB, cand.InputMB)
	chk("seed", base.Seed, cand.Seed)
	chk("pair", base.Pair, cand.Pair)
	if len(bad) > 0 {
		return fmtErr("bench config mismatch: %s", strings.Join(bad, "; "))
	}
	return nil
}

// WriteText renders the comparison as an aligned plain-text table with a
// PASS/FAIL verdict line, suitable for CI logs.
func (c Comparison) WriteText(w writer) error {
	fmt.Fprintf(w, "%-22s %14s %14s %9s  %s\n", "metric", "base", "candidate", "delta", "verdict")
	for _, d := range c.Deltas {
		verdict := "same"
		if d.Changed {
			verdict = "CHANGED"
		}
		fmt.Fprintf(w, "%-22s %14.6g %14.6g %8.2f%%  %s\n",
			d.Metric, d.Base, d.Candidate, d.DeltaFrac*100, verdict)
	}
	if c.Changed() {
		fmt.Fprintf(w, "\nFAIL: simulated output changed; if the change is intended, rerun with -update and commit the BENCH files\n")
	} else {
		fmt.Fprintf(w, "\nPASS: simulated output identical to the baseline\n")
	}
	return nil
}

// writer is the subset of io.Writer used by the renderers (kept local so
// renderer files need no io import for the interface alone).
type writer interface{ Write(p []byte) (int, error) }

// sortedKeys2 returns the union of both maps' keys, sorted.
func sortedKeys2(a, b map[string]float64) []string {
	seen := map[string]bool{}
	var out []string
	for k := range a {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	for k := range b {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}
