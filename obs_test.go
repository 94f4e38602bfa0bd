package adaptmr_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"adaptmr"
)

type traceFile struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	TraceEvents     []struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		PID  int64          `json:"pid"`
		TID  int64          `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

func tracedRun(t *testing.T) []byte {
	t.Helper()
	tr := adaptmr.NewTracer()
	job := adaptmr.SortBenchmark(32 << 20).Job
	res, err := adaptmr.Run(quickCluster(), job, adaptmr.DefaultPair, adaptmr.WithTracer(tr))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Duration <= 0 {
		t.Fatal("job did not run")
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTraceGoldenDeterminism runs the same seeded job twice and requires
// byte-identical trace exports — the end-to-end determinism guarantee the
// whole observability layer is built on.
func TestTraceGoldenDeterminism(t *testing.T) {
	a := tracedRun(t)
	b := tracedRun(t)
	if !bytes.Equal(a, b) {
		t.Fatal("same-seed runs produced different traces")
	}
}

// TestTraceCoversAllLayers parses a full-job trace and asserts spans from
// every simulated layer appear: guest elevators, the Dom0 elevator, the
// physical disk, the network, and the MapReduce runtime.
func TestTraceCoversAllLayers(t *testing.T) {
	raw := tracedRun(t)
	var tf traceFile
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatalf("trace JSON invalid: %v", err)
	}
	if tf.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit %q", tf.DisplayTimeUnit)
	}
	cats := map[string]int{}
	names := map[string]bool{}
	for _, ev := range tf.TraceEvents {
		if ev.Ph == "M" {
			if s, ok := ev.Args["name"].(string); ok {
				names[s] = true
			}
			continue
		}
		cats[ev.Cat]++
	}
	for _, want := range []string{"io.vm", "io.dom0", "disk", "net", "mapred"} {
		if cats[want] == 0 {
			t.Errorf("no %q events in trace (got %v)", want, cats)
		}
	}
	for _, want := range []string{"cluster", "host0", "host1", "dom0 elevator", "disk", "nic"} {
		if !names[want] {
			t.Errorf("missing process/thread name %q", want)
		}
	}
}

// TestMetricsOnResults checks that a metrics-enabled run populates the core
// per-level instruments and that the snapshot rides on the job result.
func TestMetricsOnResults(t *testing.T) {
	m := adaptmr.NewMetrics()
	job := adaptmr.SortBenchmark(32 << 20).Job
	res, err := adaptmr.Run(quickCluster(), job, adaptmr.DefaultPair, adaptmr.WithMetrics(m))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Metrics == nil {
		t.Fatal("no metrics snapshot on result")
	}
	snap := res.Metrics
	for _, name := range []string{
		"io.vm.requests", "io.vm.bytes", "io.dom0.requests", "io.dom0.bytes",
		"net.flows", "net.bytes", "mapred.maps", "mapred.reduces", "sim.events",
	} {
		if snap.Counters[name] <= 0 {
			t.Errorf("counter %s = %d, want > 0", name, snap.Counters[name])
		}
	}
	if snap.Counters["mapred.maps"] != int64(res.NumMaps) {
		t.Errorf("mapred.maps = %d, want %d", snap.Counters["mapred.maps"], res.NumMaps)
	}
	if h, ok := snap.Histograms["io.dom0.latency_ms"]; !ok || h.Count == 0 {
		t.Error("io.dom0.latency_ms histogram empty")
	}
	if g := snap.Gauges["mapred.duration_s"]; g <= 0 {
		t.Errorf("mapred.duration_s = %v", g)
	}
	// Phase volume gauges cover all three runtime phases.
	for _, ph := range []string{"map", "shuffle", "reduce"} {
		if _, ok := snap.Gauges["phase."+ph+".read_bytes"]; !ok {
			t.Errorf("missing phase.%s.read_bytes gauge", ph)
		}
	}
}

// TestTunerPerCandidateMetrics checks the tuner aggregates metrics across
// evaluations and that each reference run carries its own snapshot.
func TestTunerPerCandidateMetrics(t *testing.T) {
	m := adaptmr.NewMetrics()
	tr := adaptmr.NewTracer()
	job := adaptmr.SortBenchmark(16 << 20).Job
	tuner := adaptmr.NewTuner(quickCluster(), job,
		adaptmr.WithMetrics(m), adaptmr.WithTracer(tr)).
		WithCandidates([]adaptmr.Pair{
			adaptmr.MustParsePair("cc"),
			adaptmr.MustParsePair("ad"),
		})
	res, err := tuner.Tune()
	if err != nil {
		t.Fatalf("Tune: %v", err)
	}
	if res.Default.Metrics == nil || res.BestSingle.Metrics == nil {
		t.Fatal("reference runs carry no metrics snapshots")
	}
	// The aggregate registry absorbed every evaluation, so its counters
	// dominate any single run's.
	agg := m.Snapshot()
	if agg.Counters["mapred.maps"] < res.Default.Metrics.Counters["mapred.maps"] {
		t.Errorf("aggregate maps %d < single-run maps %d",
			agg.Counters["mapred.maps"], res.Default.Metrics.Counters["mapred.maps"])
	}
	if tr.Len() == 0 {
		t.Fatal("tuner recorded no trace events")
	}
	// Each evaluation labels its own trace process group with its plan.
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("tuner trace invalid: %v", err)
	}
	labels := map[string]bool{}
	for _, ev := range tf.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" {
			if s, ok := ev.Args["name"].(string); ok {
				labels[s] = true
			}
		}
	}
	found := 0
	for l := range labels {
		if len(l) > 0 && l[0] == '[' {
			found++
		}
	}
	if found < 2 {
		t.Errorf("expected plan-labelled process groups, got %v", labels)
	}
}

// TestSchedMetricsMatchDecisionLog pins that the sched.* counters are the
// decision recorder's tallies: under every AS/CFQ pair each
// sched.<level>.<name> equals the decision log's count of its kind, and
// the ac counts are pinned.
func TestSchedMetricsMatchDecisionLog(t *testing.T) {
	kinds := map[string]string{
		"antic_armed":    "antic.arm",
		"antic_hits":     "antic.hit",
		"antic_timeouts": "antic.timeout",
		"cfq_slices":     "cfq.slice",
		"cfq_idles":      "cfq.idle",
	}
	job := adaptmr.SortBenchmark(64 << 20).Job
	for _, code := range []string{"ac", "ca", "aa", "cc"} {
		m := adaptmr.NewMetrics()
		res, err := adaptmr.Run(quickCluster(), job, adaptmr.MustParsePair(code),
			adaptmr.WithMetrics(m), adaptmr.WithDecisionLog())
		if err != nil {
			t.Fatalf("%s: Run: %v", code, err)
		}
		if res.Metrics == nil || res.Decisions == nil {
			t.Fatalf("%s: missing metrics or decision summary", code)
		}
		for level, tally := range map[string]map[string]int64{"vm": res.Decisions.VM, "dom0": res.Decisions.Dom0} {
			for name, kind := range kinds {
				metric := "sched." + level + "." + name
				got, ok := res.Metrics.Counters[metric]
				if !ok {
					t.Errorf("%s: %s not registered", code, metric)
				}
				if got != tally[kind] {
					t.Errorf("%s: %s = %d, decision log %s = %d", code, metric, got, kind, tally[kind])
				}
			}
		}
		if code != "ac" {
			continue
		}
		for metric, want := range map[string]int64{
			"sched.dom0.antic_armed":    514,
			"sched.dom0.antic_hits":     450,
			"sched.dom0.antic_timeouts": 64,
			"sched.vm.cfq_slices":       2043,
			"sched.vm.cfq_idles":        2074,
		} {
			if got := res.Metrics.Counters[metric]; got != want {
				t.Errorf("ac: %s = %d, want %d", metric, got, want)
			}
		}
	}
}
