package fleet

import (
	"context"
	"encoding/json"
	"testing"
	"time"
)

// FuzzScenario feeds arbitrary bytes through Parse and, when the scenario
// is small enough to simulate in well under a second, through Run under a
// context deadline: every input yields an error or a result, never a
// panic or a hang.
func FuzzScenario(f *testing.F) {
	for _, s := range []Scenario{
		tinyScenario(), SmokeScenario(), fair20Scenario(),
		capacityScenario(), capReleaseScenario(), traceScenario(),
	} {
		data, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		// Simulated work grows with the VMs built and the input placed;
		// larger scenarios are valid but too slow to fuzz. Floats keep
		// the products from overflowing.
		inputMB := 0.0
		for _, j := range s.Jobs {
			inputMB += float64(j.Count) * float64(j.InputPerVMMB) * float64(s.HostsPerCell) * float64(s.VMsPerHost)
		}
		if float64(s.Cells)*float64(s.HostsPerCell)*float64(s.VMsPerHost) > 64 || inputMB > 2048 {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		res, err := Run(s, Options{Context: ctx})
		switch {
		case ctx.Err() != nil:
			t.Fatalf("Run did not finish within the deadline (err %v)", err)
		case err == nil && len(res.Jobs) != s.TotalJobs():
			t.Fatalf("Run returned %d job outcomes, want %d", len(res.Jobs), s.TotalJobs())
		}
	})
}
