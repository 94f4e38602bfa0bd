package server

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// FuzzAPIRequest feeds arbitrary request bodies through the strict
// decoder into every adaptd request type, then through the builders the
// handlers call. Any input must yield an error or a value, never a
// panic, and a value the builders accept must be one the simulator can
// run.
func FuzzAPIRequest(f *testing.F) {
	for _, body := range []string{
		`{"cluster":{"hosts":2,"vms_per_host":2},"job":{"bench":"sort","input_mb":64},"plan":["cc"]}`,
		`{"cluster":{"hosts":2,"vms_per_host":2},"job":{"bench":"sort","input_mb":64},"plan":["cc"],"run_id":"ci-1"}`,
		`{"cluster":{"hosts":2,"vms_per_host":2},"job":{"bench":"sort","input_mb":64},"policy":{"window_ms":250,"min_dwell_ms":1000,"stable_windows":2,"cost_budget":0.1},"run_id":"ci-tune"}`,
	} {
		f.Add([]byte(body))
	}
	const def = 30 * time.Second
	decode := func(data []byte, v any) bool {
		return decodeStrict(json.NewDecoder(bytes.NewReader(data)), v) == nil
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSpecs := func(c ClusterSpec, j JobSpec, timeoutMS int64, runID string) {
			if cfg, err := buildCluster(c); err == nil {
				if err := cfg.Validate(); err != nil {
					t.Fatalf("buildCluster(%+v) accepted an invalid testbed: %v", c, err)
				}
			}
			if job, err := buildJob(j); err == nil {
				if err := job.Validate(); err != nil {
					t.Fatalf("buildJob(%+v) accepted an invalid job: %v", j, err)
				}
			}
			if d, err := timeoutFor(timeoutMS, def); err == nil && (d <= 0 || d > def) {
				t.Fatalf("timeoutFor(%d) = %v outside (0, %v]", timeoutMS, d, def)
			}
			_ = validateRunID(runID)
		}

		var run RunRequest
		if decode(data, &run) {
			checkSpecs(run.Cluster, run.Job, run.TimeoutMS, run.RunID)
			if scheme, err := buildScheme(run.Phases); err == nil {
				if plan, err := buildPlan(scheme, run.Plan); err == nil && len(plan.Pairs) != scheme.Phases() {
					t.Fatalf("buildPlan(%v) = %d pairs, want %d", run.Plan, len(plan.Pairs), scheme.Phases())
				}
			}
		}
		var tune TuneRequest
		if decode(data, &tune) {
			checkSpecs(tune.Cluster, tune.Job, tune.TimeoutMS, "")
			if cands, err := buildCandidates(tune.Candidates); err == nil && len(cands) != len(tune.Candidates) {
				t.Fatalf("buildCandidates(%v) = %d pairs", tune.Candidates, len(cands))
			}
		}
		var auto AutotuneRequest
		if decode(data, &auto) {
			checkSpecs(auto.Cluster, auto.Job, auto.TimeoutMS, auto.RunID)
			if pol, err := buildOnlinePolicy(auto.Policy); err == nil && (pol.Window < 0 || pol.MinDwell < 0) {
				t.Fatalf("buildOnlinePolicy(%+v) accepted negative durations: %+v", auto.Policy, pol)
			}
		}
	})
}
