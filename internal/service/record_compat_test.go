package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
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

// TestResumeRecordWithRemovedLaneWidth is the upgrade path for the removed
// lane-width option. testdata/jobs/campaign-lane-words.json is a mid-flight
// campaign record written by a build that still accepted "lane_words"; its
// request carries lane_words 4. The record must still load and resume once
// to the uninterrupted result, and the field is dropped when the record is
// saved again. A new submission naming the field is a 400 that names it.
func TestResumeRecordWithRemovedLaneWidth(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "jobs", "campaign-lane-words.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`"lane_words": 4`)) {
		t.Fatal("fixture lost its lane_words field")
	}
	var rec jobRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Req.Kind != KindCampaign || rec.State != StateQueued || rec.Checkpoint == nil {
		t.Fatalf("fixture is not a queued mid-flight campaign: kind %s state %s", rec.Req.Kind, rec.State)
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "jobs", rec.ID+".json")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
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
	if err := resumed.Close(); err != nil {
		t.Fatal(err)
	}
	saved, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(saved, []byte("lane_words")) {
		t.Errorf("re-saved record still carries lane_words:\n%s", saved)
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
	if *got.Result.Campaign != *want.Result.Campaign {
		t.Errorf("resumed result %+v differs from uninterrupted run %+v", *got.Result.Campaign, *want.Result.Campaign)
	}

	// The wire no longer knows the field: the strict decoder rejects it.
	srv := httptest.NewServer(fresh.Handler())
	defer srv.Close()
	body := string(bytes.Replace(mustJSON(t, rec.Req), []byte(`"faults":`), []byte(`"lane_words":4,"faults":`), 1))
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(env.Error.Message, "lane_words") {
		t.Errorf("POST with lane_words = %d %+v, want 400 naming the field", resp.StatusCode, env.Error)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
