package service

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestResumeRecordedMidFlightJobs pins the on-disk job record format. The
// testdata records were persisted by an earlier build, each drained
// mid-flight with a checkpoint of its kind. Every record must decode and
// re-encode byte for byte, and a service opened on it must resume the job
// exactly once to a result identical to an uninterrupted run of the same
// request (up to prove node counts, which are not part of that contract).
func TestResumeRecordedMidFlightJobs(t *testing.T) {
	for _, kind := range []Kind{KindCampaign, KindProve, KindMultiFault, KindLeakage} {
		t.Run(string(kind), func(t *testing.T) {
			raw, err := os.ReadFile(filepath.Join("testdata", "jobs", string(kind)+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var rec jobRecord
			if err := json.Unmarshal(raw, &rec); err != nil {
				t.Fatal(err)
			}
			back, err := json.MarshalIndent(&rec, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(append(back, '\n'), raw) {
				t.Fatalf("record does not round-trip:\n got  %s\n want %s", back, raw)
			}
			if rec.Req.Kind != kind || rec.State != StateQueued || rec.Checkpoint == nil {
				t.Fatalf("fixture is not a queued mid-flight %s job: kind %s state %s", kind, rec.Req.Kind, rec.State)
			}

			dir := t.TempDir()
			if err := os.MkdirAll(filepath.Join(dir, "jobs"), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "jobs", rec.ID+".json"), raw, 0o644); err != nil {
				t.Fatal(err)
			}
			resumed := newTestService(t, Config{Workers: 1, CheckpointEveryRuns: 64, StateDir: dir})
			got := waitTerminal(t, resumed, rec.ID)
			if got.State != StateDone {
				t.Fatalf("resumed job ended %s (%s)", got.State, got.Error)
			}
			if got.Resumed != 1 {
				t.Errorf("Resumed = %d, want 1", got.Resumed)
			}

			fresh := newTestService(t, Config{Workers: 1, CheckpointEveryRuns: 64})
			st, err := fresh.Submit(rec.Req)
			if err != nil {
				t.Fatal(err)
			}
			want := waitTerminal(t, fresh, st.ID)
			if want.State != StateDone {
				t.Fatalf("uninterrupted job ended %s (%s)", want.State, want.Error)
			}
			if kind == KindProve {
				// Node counts measure the analyzer's shared BDD manager,
				// whose size depends on how many pairs this process proved
				// before; every verdict and witness is deterministic.
				for _, res := range []*ProveResult{got.Result.Prove, want.Result.Prove} {
					res.PeakNodes = 0
					for i := range res.Locations {
						res.Locations[i].Nodes = 0
					}
				}
			}
			gotJSON, err := json.Marshal(got.Result)
			if err != nil {
				t.Fatal(err)
			}
			wantJSON, err := json.Marshal(want.Result)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotJSON, wantJSON) {
				t.Errorf("resumed result differs from uninterrupted run:\n got  %s\n want %s", gotJSON, wantJSON)
			}
		})
	}
}
