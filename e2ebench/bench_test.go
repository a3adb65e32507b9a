package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"repro/internal/service"
)

// spec is the part of BENCHMARK.json the self-test checks against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// tinyRun is one run's parsed output.
type tinyRun struct {
	resultLine
	digest string
}

func runTiny(t *testing.T, workload, trace string) tinyRun {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{"-workload", workload, "-seed", "3", "-seconds", "0.2", "-trace", trace, "-tiny", "-workdir", t.TempDir()}
	if err := run(context.Background(), args, &stdout, &stderr); err != nil {
		t.Fatalf("%s trace=%s: %v\n%s", workload, trace, err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var r tinyRun
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r.resultLine); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	if !r.Correct || r.Attempted < 1 || r.Failed != 0 {
		t.Fatalf("%s trace=%s: correct=%v attempted=%d failed=%d", workload, trace, r.Correct, r.Attempted, r.Failed)
	}
	_, r.digest, _ = strings.Cut(lines[len(lines)-2], "result_digest=")
	if r.digest == "" {
		t.Fatalf("%s: no result_digest in %q", workload, lines[len(lines)-2])
	}
	return r
}

func requireMetrics(t *testing.T, r tinyRun, want []specMetric) {
	t.Helper()
	for _, m := range want {
		got, ok := r.Metrics[m.Name]
		if !ok {
			t.Errorf("metric %s missing", m.Name)
		} else if got.Unit != m.Unit {
			t.Errorf("metric %s in %s, want %s", m.Name, got.Unit, m.Unit)
		}
	}
	if len(r.Metrics) != len(want) {
		t.Errorf("%d metrics printed, BENCHMARK.json names %d", len(r.Metrics), len(want))
	}
}

// TestWorkloadsTiny runs every workload at minimal length, untraced and
// traced twice. Each run must pass its correctness gate and print exactly
// the metrics BENCHMARK.json names, with their units; the traced runs'
// instrument-derived counts must repeat exactly; and the campaign workloads,
// which share one job list, must agree on result_digest.
func TestWorkloadsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the in-process daemon")
	}
	s := loadSpec(t)
	for _, w := range s.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			t.Fatalf("BENCHMARK.json: %v", err)
		}
	}
	distLayer := []specMetric{{"dist.leases_granted", "count"}, {"dist.leases_reassigned", "count"}, {"dist.heartbeats", "count"}, {"dist.runs_per_lease", "runs"}}
	digests := map[string]string{}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r := runTiny(t, w.name, "0")
			requireMetrics(t, r, s.EndToEnd)
			for _, m := range s.EndToEnd {
				if r.Metrics[m.Name].Value <= 0 {
					t.Errorf("%s = %v, want a positive measurement", m.Name, r.Metrics[m.Name].Value)
				}
			}
			t1, t2 := runTiny(t, w.name, "1"), runTiny(t, w.name, "1")
			layer := s.PerLayer
			if w.dist {
				layer = append(append([]specMetric(nil), layer...), distLayer...)
			}
			requireMetrics(t, t1, layer)
			// Reference jobs make every layer's time a measurement on every
			// workload. Residuals may be negative, and a short pass need not
			// collect garbage.
			for _, m := range layer {
				v := t1.Metrics[m.Name].Value
				if (m.Unit == "ms" || m.Unit == "ns") && v <= 0 && m.Name != "runtime.gc_pause_ms" && m.Name != "trace.residual_ms" && m.Name != "service.overhead_ms" {
					t.Errorf("%s = %v, want a measured time", m.Name, v)
				}
			}
			for _, name := range []string{"sim.evals", "sim.lanes", "fault.batches", "fault.runs_replayed", "store.hits", "store.misses", "store.puts", "prove.pairs", "leakage.traces", "leakage.batches", "service.checkpoints"} {
				if a, b := t1.Metrics[name].Value, t2.Metrics[name].Value; a != b {
					t.Errorf("%s differs between traced runs: %v vs %v", name, a, b)
				}
			}
			if r.digest != t1.digest || t1.digest != t2.digest {
				t.Errorf("result_digest differs between runs: %s %s %s", r.digest, t1.digest, t2.digest)
			}
			digests[w.name] = r.digest
		})
	}
	if d := digests["campaign-cold"]; d == "" || d != digests["campaign-replay"] || d != digests["campaign-dist"] {
		t.Errorf("campaign workloads disagree on result_digest: %v", digests)
	}
}

// TestGateRejectsCorruptedResults takes real results from a tiny daemon,
// corrupts each kind, and requires the gate to fail the run.
func TestGateRejectsCorruptedResults(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the in-process daemon")
	}
	o := options{sz: tinySize, workDir: t.TempDir(), seed: 3}
	ctx := context.Background()
	var got []jobRun
	for _, name := range []string{"campaign-cold", "analysis"} {
		o.w, _ = findWorkload(name)
		d, err := startDaemon(t.TempDir(), false)
		if err != nil {
			t.Fatal(err)
		}
		ld := newLoader(o.w, jobs{w: o.w, seed: o.seed, sz: o.sz}, d.url)
		p := ld.run(ctx, pass{count: 3})
		ld.close()
		if err := d.stop(); err != nil {
			t.Fatal(err)
		}
		for _, j := range p.jobs {
			if j.err != nil {
				t.Fatalf("%s job %d: %v", name, j.index, j.err)
			}
		}
		got = append(got, p.jobs...)
	}

	corrupt := map[string]func(r *service.JobResult){
		"campaign escape": func(r *service.JobResult) {
			if c := r.Campaign; c != nil {
				c.Detected--
				c.Effective++
			}
		},
		"campaign short": func(r *service.JobResult) {
			if c := r.Campaign; c != nil {
				c.Total--
				c.Ineffective--
			}
		},
		"prove dependent": func(r *service.JobResult) {
			if p := r.Prove; p != nil {
				p.Proved--
				p.Dependent++
			}
		},
		"leakage verdict": func(r *service.JobResult) {
			if l := r.Leakage; l != nil {
				l.Leaks = !l.Leaks
			}
		},
	}
	for name, fn := range corrupt {
		hit := false
		for _, j := range got {
			before, _ := json.Marshal(j.status.Result)
			var r service.JobResult
			if err := json.Unmarshal(before, &r); err != nil {
				t.Fatal(err)
			}
			fn(&r)
			if after, _ := json.Marshal(&r); bytes.Equal(before, after) {
				continue
			}
			hit = true
			st := j.status
			st.Result = &r
			bad := j
			bad.err = checkResult(j.req, st)
			if bad.err == nil {
				t.Errorf("%s: job %d passed the check", name, j.index)
				continue
			}
			var res result
			res.attempted = 1
			gate(&res, o, []jobRun{bad}, nil, nil, nil)
			if line := res.line(); line.Correct || line.Failed != 1 {
				t.Errorf("%s: gate reported correct=%v failed=%d", name, line.Correct, line.Failed)
			}
		}
		if !hit {
			t.Errorf("%s: no job of that kind to corrupt", name)
		}
	}

	// campaign-replay compares against the cold results bit for bit.
	o.w, _ = findWorkload("campaign-replay")
	j := got[0]
	cold := map[int]service.CampaignResult{0: *j.status.Result.Campaign}
	if err := replayCheck(o, cold)(0, j.status); err != nil {
		t.Fatalf("replay check rejects the cold result itself: %v", err)
	}
	c := cold[0]
	c.Detected, c.Ineffective = c.Ineffective, c.Detected
	cold[0] = c
	if c != *j.status.Result.Campaign && replayCheck(o, cold)(0, j.status) == nil {
		t.Error("replay check accepted a result that differs from the cold run")
	}
}
