package fault

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestCampaignMetrics checks the engine's instruments against a campaign
// whose work is known exactly: the run, batch, shard and outcome counters
// advance by the campaign's own tallies, replayed work lands only in the
// replay counters, and no lane-width family is exported (the simulator has
// one width).
func TestCampaignMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	EnableObservability(reg)
	defer EnableObservability(nil)

	d := goldenDesign(t, core.SchemeThreeInOne)
	camp := Campaign{
		Design: d,
		Key:    goldenKey,
		Faults: []Fault{At(d.SboxInputNet(core.BranchActual, 13, 2), StuckAt0, d.LastRoundCycle())},
		Runs:   700,
		Seed:   1,
		Engine: EngineConfig{Parallelism: 2, BatchRuns: 256},
	}
	res, err := camp.Execute(nil)
	if err != nil {
		t.Fatal(err)
	}
	CountReplay(camp.NumBatches(), res)

	var dump strings.Builder
	if err := reg.WritePrometheus(&dump); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"scone_fault_runs_total 700",
		"scone_fault_batches_total 11",
		"scone_fault_shards_total 3",
		"scone_fault_injections_total 11",
		fmt.Sprintf("scone_fault_ineffective_total %d", res.Ineffective()),
		fmt.Sprintf("scone_fault_detected_total %d", res.Detected()),
		"scone_fault_effective_total 0",
		"scone_fault_batch_ns_count 11",
		"scone_fault_runs_replayed_total 700",
		"scone_fault_batches_replayed_total 11",
	} {
		if !strings.Contains(dump.String(), want+"\n") {
			t.Errorf("metric %q missing from:\n%s", want, dump.String())
		}
	}
	if strings.Contains(dump.String(), "lane_words") {
		t.Errorf("exposition still carries a lane-width family:\n%s", dump.String())
	}
}
