// Command sconebench runs the PRESENT-80 fault-campaign scaling suite and
// writes a machine-readable report. A scaling matrix sweeps worker
// parallelism × dispatch batch sizes over one campaign, proves every cell
// computes bit-identical tallies, and selects the fastest configuration;
// the per-variant and multi-fault rows then run at that configuration. The
// numbers are produced with the obs registry enabled, so instrument
// overhead is part of what is measured.
//
// Usage:
//
//	sconebench [-runs 16384] [-seed 0x5C09E2021] [-short]
//	           [-parallel N] [-batch-runs R] [-o sconebench.json]
//
// The default report path is git-ignored, so a run never overwrites the
// committed BENCH_PR*.json history files; name one with -o to record a new
// anchor.
//
// The scaling matrix always runs in full. The engine flags, when set
// explicitly, pin the configuration of the variant and multi-fault rows
// instead of the matrix winner — for comparing a chosen configuration
// against the best one.
//
// For each entropy variant (prime, per-round, per-sbox) the suite runs one
// three-in-one campaign — stuck-at-0 on S-box 13 bit 2 in the last round,
// the Figure 4 fault — and reports runs/sec, ns per simulator eval and heap
// allocations per run. The eval count comes from the simulator's own
// scone_sim_evals_total counter, so the benchmark doubles as an end-to-end
// check of the metrics plumbing. A final multi-fault row times a k=2 plan
// sweep over one S-box column — the planning layer's per-placement overhead
// on top of the raw campaign engine.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/cliflags"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/leakage"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/power"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/spn"
)

// benchKey is the device key shared with the attack matrix and the
// service's campaign defaults.
var benchKey = spn.KeyState{0x0123456789ABCDEF, 0x8421}

// benchSbox/benchBit pin the faulted S-box input line (the Figure 4 site).
const (
	benchSbox = 13
	benchBit  = 2
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if err == flag.ErrHelp {
			os.Exit(0)
		}
		fmt.Fprintln(os.Stderr, "sconebench:", err)
		os.Exit(1)
	}
}

// scalingCell is one scaling-matrix measurement: the prime-variant campaign
// under one engine configuration.
type scalingCell struct {
	Parallelism int     `json:"parallelism"`
	BatchRuns   int     `json:"batch_runs"`
	ElapsedNS   int64   `json:"elapsed_ns"`
	RunsPerSec  float64 `json:"runs_per_sec"`
}

// scalingReport is the matrix plus its verdict: every cell's tallies were
// bit-identical (Campaign pins them), Best won, and Speedup is Best over
// the single-worker one-batch cell.
type scalingReport struct {
	Matrix []scalingCell `json:"matrix"`
	// Campaign pins the outcome tallies shared by every matrix cell: the
	// suite fails if any configuration diverges, so the report doubles as
	// a determinism proof.
	Campaign service.CampaignResult `json:"campaign"`
	Baseline scalingCell            `json:"baseline"`
	Best     scalingCell            `json:"best"`
	Speedup  float64                `json:"speedup"`
}

// variantReport is one entropy variant's measurement.
type variantReport struct {
	Entropy string `json:"entropy"`
	// Campaign pins the outcome tallies so a perf run doubles as a
	// determinism check: same seed, same tallies, every time.
	Campaign   service.CampaignResult `json:"campaign"`
	ElapsedNS  int64                  `json:"elapsed_ns"`
	RunsPerSec float64                `json:"runs_per_sec"`
	Evals      int64                  `json:"evals"`
	NSPerEval  float64                `json:"ns_per_eval"`
	// AllocsPerRun is the heap-allocation count per simulated run,
	// measured over the whole campaign (workers included).
	AllocsPerRun float64 `json:"allocs_per_run"`
	BytesPerRun  float64 `json:"bytes_per_run"`
}

// matrixDims returns the swept engine-configuration axes: deduplicated
// worker counts up to the machine's cores, and three dispatch
// granularities.
func matrixDims() (parallels, batchRuns []int) {
	for _, p := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		seen := false
		for _, q := range parallels {
			seen = seen || q == p
		}
		if !seen && p >= 1 {
			parallels = append(parallels, p)
		}
	}
	batchRuns = []int{sim.Lanes, 1024, 4096}
	return parallels, batchRuns
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("sconebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	runs := fs.Int("runs", 16384, "simulated encryptions per variant and matrix cell")
	seed := fs.Uint64("seed", 0x5C09E2021, "campaign seed")
	short := fs.Bool("short", false, "shrink the suite for CI (2048 runs per variant)")
	out := fs.String("o", "sconebench.json", "report path (\"-\" writes the JSON to stdout)")
	engine := cliflags.RegisterEngine(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if *short {
		*runs = 2048
	}
	if *runs <= 0 {
		return fmt.Errorf("-runs must be positive (got %d)", *runs)
	}
	engineCfg, err := engine.Config()
	if err != nil {
		return err
	}
	enginePinned := false
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "parallel", "batch-runs":
			enginePinned = true
		}
	})

	// The suite benchmarks the instrumented path: evals are read back from
	// the simulator's own counter (registration is idempotent, so this
	// returns the instrument sim just registered).
	reg := obs.NewRegistry()
	sim.EnableObservability(reg)
	fault.EnableObservability(reg)
	plan.EnableObservability(reg)
	leakage.EnableObservability(reg)
	evals := reg.NewCounter("scone_sim_evals_total", "simulator eval calls")

	scaling, err := benchScaling(*runs, *seed)
	if err != nil {
		return err
	}
	if *out != "-" {
		for _, cell := range scaling.Matrix {
			fmt.Fprintf(stdout, "scale p=%d b=%-5d %10.0f runs/s  (%s)\n",
				cell.Parallelism, cell.BatchRuns, cell.RunsPerSec,
				time.Duration(cell.ElapsedNS).Round(time.Millisecond))
		}
		fmt.Fprintf(stdout, "best  p=%d b=%-5d %10.0f runs/s  %.2fx over p=1 b=%d\n",
			scaling.Best.Parallelism, scaling.Best.BatchRuns,
			scaling.Best.RunsPerSec, scaling.Speedup, sim.Lanes)
	}

	// The variant and multi-fault rows run at the matrix winner unless an
	// engine flag pinned the configuration explicitly.
	if !enginePinned {
		engineCfg = fault.EngineConfig{
			Parallelism: scaling.Best.Parallelism,
			BatchRuns:   scaling.Best.BatchRuns,
		}
	}

	variants := []string{"prime", "per-round", "per-sbox"}
	reports := make([]variantReport, 0, len(variants))
	for _, entropy := range variants {
		rep, err := benchVariant(entropy, *runs, *seed, engineCfg, evals)
		if err != nil {
			return err
		}
		reports = append(reports, rep)
		if *out != "-" {
			fmt.Fprintf(stdout, "%-10s %10.0f runs/s  %8.1f ns/eval  %6.1f allocs/run  (%s)\n",
				entropy, rep.RunsPerSec, rep.NSPerEval, rep.AllocsPerRun,
				time.Duration(rep.ElapsedNS).Round(time.Millisecond))
		}
	}
	if reports[0].Campaign != scaling.Campaign {
		return fmt.Errorf("prime variant tallies %+v diverge from scaling matrix %+v",
			reports[0].Campaign, scaling.Campaign)
	}

	mf, err := benchMultiFault(*runs, *seed, engineCfg)
	if err != nil {
		return err
	}
	if *out != "-" {
		fmt.Fprintf(stdout, "%-10s %10.0f runs/s  %4d placements  (%s)\n",
			"multifault", mf.RunsPerSec, mf.Placements,
			time.Duration(mf.ElapsedNS).Round(time.Millisecond))
	}

	// The leakage rows time the TVLA evaluator over the unmasked and masked
	// cores; the verdicts double as a correctness pin (the unmasked core
	// must leak, the masked one must not). The floor keeps the t-test
	// populated enough for a stable verdict at tiny -runs.
	pairs := *runs / 8
	if pairs < 128 {
		pairs = 128
	}
	leaks := make([]leakageReport, 0, 2)
	for _, scheme := range []core.Scheme{core.SchemeThreeInOne, core.SchemeMaskedDup} {
		rep, err := benchLeakage(scheme, pairs, *seed)
		if err != nil {
			return err
		}
		leaks = append(leaks, rep)
		if *out != "-" {
			fmt.Fprintf(stdout, "leak %-12s %10.0f traces/s  max|t|=%6.1f leaks=%-5v  (%s)\n",
				rep.Scheme, rep.TracesPerSec, rep.MaxAbsT, rep.Leaks,
				time.Duration(rep.ElapsedNS).Round(time.Millisecond))
		}
	}
	if !leaks[0].Leaks || leaks[1].Leaks {
		return fmt.Errorf("leakage verdicts inverted: %+v", leaks)
	}

	doc := map[string]any{
		"bench":      "present80-scaling-suite",
		"spec":       "present80",
		"scheme":     core.SchemeWire(core.SchemeThreeInOne),
		"runs":       *runs,
		"seed":       service.U64(*seed),
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"engine": map[string]any{
			"parallelism": engineCfg.Parallelism,
			"batch_runs":  engineCfg.BatchRuns,
			"pinned":      enginePinned,
		},
		"scaling":    scaling,
		"variants":   reports,
		"multifault": mf,
		"leakage":    leaks,
	}
	if *out == "-" {
		return service.WriteJSON(stdout, doc)
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := service.WriteJSON(f, doc); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s\n", *out)
	return nil
}

// benchCampaign builds the Figure 4 prime-variant campaign under the given
// engine configuration.
func benchCampaign(d *core.Design, runs int, seed uint64, cfg fault.EngineConfig) fault.Campaign {
	net := d.SboxInputNet(core.BranchActual, benchSbox, benchBit)
	return fault.Campaign{
		Design: d,
		Key:    benchKey,
		Faults: []fault.Fault{fault.At(net, fault.StuckAt0, d.LastRoundCycle())},
		Runs:   runs,
		Seed:   seed,
		Engine: cfg,
	}
}

// benchScaling sweeps the engine-configuration matrix over one campaign and
// verifies every cell computes bit-identical tallies. The baseline cell is
// one worker with one batch per dispatch; the best cell wins on runs/sec.
func benchScaling(runs int, seed uint64) (scalingReport, error) {
	d, err := service.BuildDesign(service.DesignSpec{
		Cipher:  "present80",
		Scheme:  core.SchemeWire(core.SchemeThreeInOne),
		Entropy: "prime",
	})
	if err != nil {
		return scalingReport{}, err
	}
	parallels, batchRuns := matrixDims()
	var rep scalingReport
	for _, p := range parallels {
		for _, br := range batchRuns {
			camp := benchCampaign(d, runs, seed, fault.EngineConfig{Parallelism: p, BatchRuns: br})
			start := time.Now()
			res, err := camp.Execute(nil)
			elapsed := time.Since(start)
			if err != nil {
				return scalingReport{}, err
			}
			tallies := service.NewCampaignResult(res)
			if len(rep.Matrix) == 0 {
				rep.Campaign = tallies
			} else if tallies != rep.Campaign {
				return scalingReport{}, fmt.Errorf(
					"p=%d b=%d tallies %+v diverge from %+v",
					p, br, tallies, rep.Campaign)
			}
			cell := scalingCell{
				Parallelism: p,
				BatchRuns:   br,
				ElapsedNS:   elapsed.Nanoseconds(),
				RunsPerSec:  float64(runs) / elapsed.Seconds(),
			}
			rep.Matrix = append(rep.Matrix, cell)
			if cell.Parallelism == 1 && cell.BatchRuns == sim.Lanes {
				rep.Baseline = cell
			}
			if cell.RunsPerSec > rep.Best.RunsPerSec {
				rep.Best = cell
			}
		}
	}
	if rep.Baseline.RunsPerSec > 0 {
		rep.Speedup = rep.Best.RunsPerSec / rep.Baseline.RunsPerSec
	}
	return rep, nil
}

// multiFaultReport is the k=2 plan-sweep measurement: every pair of fault
// points in one S-box column, each pair its own campaign, outcome tallies
// folded so the row doubles as a determinism pin like the variant rows.
type multiFaultReport struct {
	K           int                    `json:"k"`
	Sites       int                    `json:"sites"`
	Placements  int                    `json:"placements"`
	RunsPerPair int                    `json:"runs_per_pair"`
	Totals      service.CampaignResult `json:"totals"`
	ElapsedNS   int64                  `json:"elapsed_ns"`
	RunsPerSec  float64                `json:"runs_per_sec"`
}

// benchMultiFault times the planning layer end to end: plan.New over the
// benchmark S-box column, then one campaign per tuple through the same
// engine the variant rows use. runs is split across the placements so the
// row's total simulation work matches one variant row.
func benchMultiFault(runs int, seed uint64, cfg fault.EngineConfig) (multiFaultReport, error) {
	d, err := service.BuildDesign(service.DesignSpec{
		Cipher:  "present80",
		Scheme:  core.SchemeWire(core.SchemeThreeInOne),
		Entropy: "prime",
	})
	if err != nil {
		return multiFaultReport{}, err
	}
	p, err := plan.New(d, plan.Request{K: 2, Sboxes: []int{benchSbox}})
	if err != nil {
		return multiFaultReport{}, err
	}
	perPair := runs / len(p.Tuples)
	if perPair < sim.Lanes {
		perPair = sim.Lanes
	}
	var total service.CampaignResult
	start := time.Now()
	for _, tuple := range p.Tuples {
		camp := fault.Campaign{
			Design: d,
			Key:    benchKey,
			Faults: p.Faults(tuple, fault.StuckAt0, d.LastRoundCycle()),
			Runs:   perPair,
			Seed:   seed,
			Engine: cfg,
		}
		res, err := camp.Execute(nil)
		if err != nil {
			return multiFaultReport{}, err
		}
		total.Add(res)
	}
	elapsed := time.Since(start)
	return multiFaultReport{
		K:           p.K,
		Sites:       len(p.Sites),
		Placements:  len(p.Tuples),
		RunsPerPair: perPair,
		Totals:      total,
		ElapsedNS:   elapsed.Nanoseconds(),
		RunsPerSec:  float64(perPair*len(p.Tuples)) / elapsed.Seconds(),
	}, nil
}

// benchVariant builds the three-in-one PRESENT-80 design with the given
// entropy mode and times one campaign over it under the selected engine
// configuration.
func benchVariant(entropy string, runs int, seed uint64, cfg fault.EngineConfig, evals *obs.Counter) (variantReport, error) {
	d, err := service.BuildDesign(service.DesignSpec{
		Cipher:  "present80",
		Scheme:  core.SchemeWire(core.SchemeThreeInOne),
		Entropy: entropy,
	})
	if err != nil {
		return variantReport{}, err
	}
	camp := benchCampaign(d, runs, seed, cfg)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	evalsBefore := evals.Value()
	start := time.Now()
	res, err := camp.Execute(nil)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return variantReport{}, err
	}

	evalCount := evals.Value() - evalsBefore
	rep := variantReport{
		Entropy:      entropy,
		Campaign:     service.NewCampaignResult(res),
		ElapsedNS:    elapsed.Nanoseconds(),
		RunsPerSec:   float64(runs) / elapsed.Seconds(),
		Evals:        evalCount,
		AllocsPerRun: float64(after.Mallocs-before.Mallocs) / float64(runs),
		BytesPerRun:  float64(after.TotalAlloc-before.TotalAlloc) / float64(runs),
	}
	if evalCount > 0 {
		rep.NSPerEval = float64(elapsed.Nanoseconds()) / float64(evalCount)
	}
	return rep, nil
}

// leakageReport is one TVLA evaluator measurement: the fixed-vs-random
// sweep over one scheme, with the verdict pinned so a perf run doubles as
// a first-order leakage check.
type leakageReport struct {
	Scheme       string  `json:"scheme"`
	Model        string  `json:"model"`
	Pairs        int     `json:"pairs"`
	MaxAbsT      float64 `json:"max_abs_t"`
	Leaks        bool    `json:"leaks"`
	ElapsedNS    int64   `json:"elapsed_ns"`
	TracesPerSec float64 `json:"traces_per_sec"`
}

// benchLeakage times the trace-collection plus t-test pipeline end to end
// over the given scheme under the Hamming-distance model.
func benchLeakage(scheme core.Scheme, pairs int, seed uint64) (leakageReport, error) {
	d, err := service.BuildDesign(service.DesignSpec{
		Cipher:  "present80",
		Scheme:  core.SchemeWire(scheme),
		Entropy: "prime",
	})
	if err != nil {
		return leakageReport{}, err
	}
	ev, err := leakage.New(leakage.Config{
		Design:  d,
		Key:     benchKey,
		Model:   power.HammingDistance,
		Pairs:   pairs,
		Seed:    seed,
		FixedPT: 0x0123456789ABCDEF,
	})
	if err != nil {
		return leakageReport{}, err
	}
	start := time.Now()
	for !ev.Done() {
		ev.Step()
	}
	elapsed := time.Since(start)
	res := ev.Result()
	return leakageReport{
		Scheme:       core.SchemeWire(scheme),
		Model:        res.Model,
		Pairs:        res.Pairs,
		MaxAbsT:      res.MaxAbsT,
		Leaks:        res.Leaks,
		ElapsedNS:    elapsed.Nanoseconds(),
		TracesPerSec: float64(res.Fixed+res.Random+res.Discarded) / elapsed.Seconds(),
	}, nil
}
