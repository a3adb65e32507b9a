package vetkit

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree materialises a fake module in a temp dir.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for path, src := range files {
		full := filepath.Join(root, filepath.FromSlash(path))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func TestNoRand(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/attack/bad.go":     "package attack\n\nimport \"math/rand\"\n\nvar _ = rand.Int\n",
		"internal/attack/v2.go":      "package attack\n\nimport mrand \"math/rand/v2\"\n\nvar _ = mrand.Int\n",
		"internal/attack/ok_test.go": "package attack\n\nimport \"math/rand\"\n\nvar _ = rand.Int\n",
		"internal/rng/rng.go":        "package rng\n\nimport \"math/rand\"\n\nvar _ = rand.Int\n",
	})
	diags, err := Run(root, []*Analyzer{NoRand})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 2 {
		t.Fatalf("got %d findings, want 2: %v", len(diags), diags)
	}
	for _, d := range diags {
		if d.Pos.Filename != "internal/attack/bad.go" && d.Pos.Filename != "internal/attack/v2.go" {
			t.Errorf("finding in wrong file: %s", d.String())
		}
	}
}

func TestCachedCompile(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/fault/bad.go": `package fault

import "repro/internal/sim"

func f(m any) { sim.Compile(m) }
`,
		"internal/fault/ok.go": `package fault

import "repro/internal/sim"

func g(m any) { sim.CompileCached(m) }
`,
		"internal/fault/shadow.go": `package fault

func h() {
	type simT struct{}
	sim := struct{ Compile func() }{}
	sim.Compile()
	_ = simT{}
}
`,
		"internal/fault/ok_test.go": `package fault

import "repro/internal/sim"

func t(m any) { sim.Compile(m) }
`,
		"internal/sim/compile.go": `package sim

func Compile(m any) {}

func CompileCached(m any) { Compile(m) }
`,
	})
	diags, err := Run(root, []*Analyzer{CachedCompile})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("got %d findings, want 1: %v", len(diags), diags)
	}
	if d := diags[0]; d.Pos.Filename != "internal/fault/bad.go" || !strings.Contains(d.Message, "CompileCached") {
		t.Fatalf("unexpected finding: %s", d.String())
	}
}

func TestCtxExecute(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/service/bad.go": `package service

func f(c interface{ Execute(func()) }) { c.Execute(nil) }
`,
		"internal/service/ok.go": `package service

import "context"

func g(c interface {
	ExecuteContext(context.Context, func()) error
}) {
	c.ExecuteContext(context.Background(), nil)
}
`,
		"internal/service/ok_test.go": `package service

func t(c interface{ Execute(func()) }) { c.Execute(nil) }
`,
		"cmd/sconed/bad.go": `package main

func f(c interface{ Execute(func()) }) { c.Execute(nil) }
`,
		"internal/experiments/ok.go": `package experiments

func h(c interface{ Execute(func()) }) { c.Execute(nil) }
`,
	})
	diags, err := Run(root, []*Analyzer{CtxExecute})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 2 {
		t.Fatalf("got %d findings, want 2: %v", len(diags), diags)
	}
	for _, d := range diags {
		if d.Pos.Filename != "internal/service/bad.go" && d.Pos.Filename != "cmd/sconed/bad.go" {
			t.Errorf("finding in wrong file: %s", d.String())
		}
		if !strings.Contains(d.Message, "ExecuteContext") {
			t.Errorf("message should point at ExecuteContext: %s", d.String())
		}
	}
}

func TestObsNames(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/sim/ok.go": `package sim

func f(reg interface {
	NewCounter(name, help string) any
	NewHistogram(name, help string, bounds []int64) any
}) {
	reg.NewCounter("scone_sim_evals_total", "evals")
	reg.NewHistogram("scone_sim_batch_ns", "latency", nil)
}
`,
		"internal/sim/bad.go": `package sim

func g(reg interface {
	NewCounter(name, help string) any
	NewGauge(name, help string) any
	NewGaugeFunc(name, help string, fn func() int64) any
}) {
	reg.NewCounter("sim_evals_total", "missing scone prefix")
	reg.NewCounter("scone_fault_runs_total", "wrong package segment")
	reg.NewGauge("scone_sim_queue_depth", "missing unit")
	reg.NewGaugeFunc("scone_sim_Queue_depth_count", "upper case", nil)
}
`,
		"cmd/bench/main.go": `package main

func h(reg interface{ NewCounter(name, help string) any }) {
	reg.NewCounter("scone_sim_evals_total", "cmd lookup: shape only, no package check")
	reg.NewCounter("scone_bench_elapsed_seconds", "bad unit")
}
`,
		"internal/sim/ok_test.go": `package sim

func t(reg interface{ NewCounter(name, help string) any }) {
	reg.NewCounter("anything_goes", "tests are exempt")
}
`,
	})
	diags, err := Run(root, []*Analyzer{ObsNames})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 5 {
		t.Fatalf("got %d findings, want 5: %v", len(diags), diags)
	}
	for _, d := range diags {
		if d.Pos.Filename == "internal/sim/ok.go" || strings.HasSuffix(d.Pos.Filename, "_test.go") {
			t.Errorf("finding in clean file: %s", d.String())
		}
	}
}

func TestProveBudget(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/lint/bad.go": `package lint

import "repro/internal/bdd"

func f() { _ = bdd.New(8) }
`,
		"internal/prove/bad.go": `package prove

import b "repro/internal/bdd"

func f() { _ = b.New(8) }
`,
		"internal/prove/ok.go": `package prove

import "repro/internal/bdd"

func g() { _ = bdd.NewWithBudget(8, 1024) }
`,
		"internal/prove/shadow.go": `package prove

func h() {
	bdd := struct{ New func(int) int }{}
	bdd.New(8)
}
`,
		"internal/prove/ok_test.go": `package prove

import "repro/internal/bdd"

func t() { _ = bdd.New(8) }
`,
		"internal/synth/ok.go": `package synth

import "repro/internal/bdd"

func g() { _ = bdd.New(8) }
`,
	})
	diags, err := Run(root, []*Analyzer{ProveBudget})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 2 {
		t.Fatalf("got %d findings, want 2: %v", len(diags), diags)
	}
	for _, d := range diags {
		if d.Pos.Filename != "internal/lint/bad.go" && d.Pos.Filename != "internal/prove/bad.go" {
			t.Errorf("finding in wrong file: %s", d.String())
		}
		if !strings.Contains(d.Message, "NewWithBudget") {
			t.Errorf("message should point at NewWithBudget: %s", d.String())
		}
	}
}

func TestV1Routes(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/service/http.go": `package service

func f(mux interface {
	HandleFunc(pattern string, h func())
	Handle(pattern string, h any)
}) {
	mux.HandleFunc("POST /v1/jobs", nil)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", nil)
	mux.Handle("/v1/metrics", nil)
	mux.HandleFunc("GET /healthz", nil)
	mux.Handle("/metrics", nil)
}
`,
		"internal/service/ok_test.go": `package service

func t(mux interface{ HandleFunc(pattern string, h func()) }) {
	mux.HandleFunc("GET /unversioned", nil)
}
`,
		"cmd/sconed/main.go": `package main

func h(mux interface {
	HandleFunc(pattern string, h func())
	Handle(pattern string, h any)
}) {
	mux.HandleFunc("/debug/pprof/", nil)
	mux.Handle("/", nil)
}
`,
	})
	diags, err := Run(root, []*Analyzer{V1Routes})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 2 {
		t.Fatalf("got %d findings, want 2: %v", len(diags), diags)
	}
	for _, d := range diags {
		if d.Pos.Filename != "internal/service/http.go" {
			t.Errorf("finding in wrong file: %s", d.String())
		}
	}
}

func TestSkipsTestdataAndHiddenDirs(t *testing.T) {
	root := writeTree(t, map[string]string{
		"pkg/testdata/bad.go": "package broken !!!\n",
		"pkg/.hidden/bad.go":  "package broken !!!\n",
		"pkg/_skipped/bad.go": "package broken !!!\n",
		"pkg/ok.go":           "package pkg\n",
	})
	diags, err := Run(root, Analyzers())
	if err != nil {
		t.Fatalf("walker must skip testdata/hidden dirs: %v", err)
	}
	if len(diags) != 0 {
		t.Fatalf("unexpected findings: %v", diags)
	}
}

// TestRepoIsClean runs every analyzer over this repository itself: the
// build gates on sconevet, so the source tree must stay finding-free.
func TestRepoIsClean(t *testing.T) {
	diags, err := Run(filepath.Join("..", ".."), Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d.String())
	}
}
