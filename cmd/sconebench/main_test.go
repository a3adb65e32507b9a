package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/service"
)

// The suite must produce a parseable report with the scaling matrix, one
// measurement per entropy variant, and the seed-determined tallies.
func TestBenchWritesReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	var out, errb bytes.Buffer
	if err := run([]string{"-runs", "192", "-o", path}, &out, &errb); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errb.String())
	}
	if !strings.Contains(out.String(), "wrote "+path) {
		t.Fatalf("missing confirmation line:\n%s", out.String())
	}

	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Bench  string      `json:"bench"`
		Runs   int         `json:"runs"`
		Seed   service.U64 `json:"seed"`
		Engine struct {
			Parallelism int  `json:"parallelism"`
			Pinned      bool `json:"pinned"`
		} `json:"engine"`
		Scaling struct {
			Matrix []struct {
				Parallelism int     `json:"parallelism"`
				RunsPerSec  float64 `json:"runs_per_sec"`
			} `json:"matrix"`
			Campaign service.CampaignResult `json:"campaign"`
			Speedup  float64                `json:"speedup"`
		} `json:"scaling"`
		Variants []struct {
			Entropy    string                 `json:"entropy"`
			Campaign   service.CampaignResult `json:"campaign"`
			RunsPerSec float64                `json:"runs_per_sec"`
			Evals      int64                  `json:"evals"`
			NSPerEval  float64                `json:"ns_per_eval"`
		} `json:"variants"`
		Leakage []struct {
			Scheme       string  `json:"scheme"`
			Pairs        int     `json:"pairs"`
			MaxAbsT      float64 `json:"max_abs_t"`
			Leaks        bool    `json:"leaks"`
			TracesPerSec float64 `json:"traces_per_sec"`
		} `json:"leakage"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, b)
	}
	if doc.Bench != "present80-scaling-suite" || doc.Runs != 192 || doc.Seed != 0x5C09E2021 {
		t.Fatalf("envelope %+v", doc)
	}
	if doc.Engine.Pinned || doc.Engine.Parallelism == 0 {
		t.Fatalf("engine section %+v: want unpinned matrix winner", doc.Engine)
	}
	if bytes.Contains(b, []byte("lane_words")) {
		t.Error("report still carries a lane_words field")
	}

	// At minimum one parallelism and three batch sizes.
	parallels, batchRuns := matrixDims()
	if want := len(parallels) * len(batchRuns); len(doc.Scaling.Matrix) != want {
		t.Fatalf("scaling matrix has %d cells, want %d", len(doc.Scaling.Matrix), want)
	}
	if doc.Scaling.Campaign.Total != 192 || doc.Scaling.Speedup <= 0 {
		t.Fatalf("scaling verdict %+v", doc.Scaling)
	}
	for i, cell := range doc.Scaling.Matrix {
		if cell.RunsPerSec <= 0 {
			t.Errorf("matrix cell %d has no throughput: %+v", i, cell)
		}
	}

	if len(doc.Variants) != 3 {
		t.Fatalf("expected 3 entropy variants, got %d", len(doc.Variants))
	}
	for i, want := range []string{"prime", "per-round", "per-sbox"} {
		v := doc.Variants[i]
		if v.Entropy != want {
			t.Errorf("variant %d entropy %q, want %q", i, v.Entropy, want)
		}
		if v.Campaign.Total != 192 {
			t.Errorf("variant %s total %d, want 192", v.Entropy, v.Campaign.Total)
		}
		if v.RunsPerSec <= 0 || v.Evals <= 0 || v.NSPerEval <= 0 {
			t.Errorf("variant %s has empty measurements: %+v", v.Entropy, v)
		}
	}
	// The prime variant re-ran the matrix campaign at the winning
	// configuration; its tallies must match the matrix pin.
	if doc.Variants[0].Campaign != doc.Scaling.Campaign {
		t.Errorf("prime tallies %+v diverge from scaling matrix %+v",
			doc.Variants[0].Campaign, doc.Scaling.Campaign)
	}

	// The leakage rows pin the TVLA verdicts: unmasked leaks, masked holds.
	if len(doc.Leakage) != 2 {
		t.Fatalf("expected 2 leakage rows, got %d", len(doc.Leakage))
	}
	if doc.Leakage[0].Scheme != "three-in-one" || !doc.Leakage[0].Leaks {
		t.Errorf("unmasked leakage row %+v, want a leaking three-in-one", doc.Leakage[0])
	}
	if doc.Leakage[1].Scheme != "masked" || doc.Leakage[1].Leaks {
		t.Errorf("masked leakage row %+v, want a passing masked core", doc.Leakage[1])
	}
	for _, row := range doc.Leakage {
		if row.Pairs < 128 || row.TracesPerSec <= 0 {
			t.Errorf("leakage row has empty measurements: %+v", row)
		}
	}
}

// Explicit engine flags pin the variant rows' configuration instead of the
// matrix winner.
func TestBenchEngineFlagsPin(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-runs", "64", "-parallel", "1", "-batch-runs", "128", "-o", "-"}, &out, &errb); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errb.String())
	}
	var doc struct {
		Engine struct {
			Parallelism int  `json:"parallelism"`
			BatchRuns   int  `json:"batch_runs"`
			Pinned      bool `json:"pinned"`
		} `json:"engine"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("stdout is not pure JSON: %v\n%s", err, out.String())
	}
	if !doc.Engine.Pinned || doc.Engine.Parallelism != 1 || doc.Engine.BatchRuns != 128 {
		t.Fatalf("engine section %+v, want pinned p=1 b=128", doc.Engine)
	}
}

// "-o -" streams the JSON to stdout with no human chatter mixed in.
func TestBenchStdout(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-runs", "64", "-o", "-"}, &out, &errb); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errb.String())
	}
	var doc map[string]any
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("stdout is not pure JSON: %v\n%s", err, out.String())
	}
}

func TestBenchRejectsBadFlags(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-runs", "0"}, &out, &errb); err == nil {
		t.Fatal("zero run count accepted")
	}
	if err := run([]string{"stray"}, &out, &errb); err == nil {
		t.Fatal("positional argument accepted")
	}
	if err := run([]string{"-bogus"}, &out, &errb); err == nil {
		t.Fatal("unknown flag accepted")
	}
	if err := run([]string{"-lanes", "2"}, &out, &errb); err == nil {
		t.Fatal("removed -lanes flag accepted")
	}
	if err := run([]string{"-parallel", "-1"}, &out, &errb); err == nil {
		t.Fatal("negative parallelism accepted")
	}
}

// Without -o the report goes to the git-ignored sconebench.json, never to a
// committed BENCH_PR*.json history file.
func TestBenchDefaultReportPath(t *testing.T) {
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	var out, errb bytes.Buffer
	if err := run([]string{"-runs", "64"}, &out, &errb); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errb.String())
	}
	if _, err := os.Stat(filepath.Join(dir, "sconebench.json")); err != nil {
		t.Fatalf("default report not written: %v", err)
	}
	if hist, _ := filepath.Glob(filepath.Join(dir, "BENCH_*.json")); len(hist) != 0 {
		t.Fatalf("default run wrote history files %v", hist)
	}
}
