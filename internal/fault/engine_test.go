package fault

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/cipher/present"
	"repro/internal/core"
	"repro/internal/synth"
)

func TestEngineConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  EngineConfig
		ok   bool
	}{
		{"zero", EngineConfig{}, true},
		{"default", EngineConfig{Parallelism: runtime.GOMAXPROCS(0), BatchRuns: 64}, true},
		{"parallelism-negative", EngineConfig{Parallelism: -2}, false},
		{"batch-runs-negative", EngineConfig{BatchRuns: -64}, false},
		{"full", EngineConfig{Parallelism: 8, BatchRuns: 1024}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.ok && err != nil {
				t.Errorf("Validate() = %v, want nil", err)
			}
			if !tc.ok && err == nil {
				t.Error("Validate() = nil, want error")
			}
		})
	}
}

func TestEngineConfigResolveDefaults(t *testing.T) {
	r, err := EngineConfig{}.resolve()
	if err != nil {
		t.Fatal(err)
	}
	if want := runtime.GOMAXPROCS(0); r.workers != want {
		t.Errorf("workers = %d, want GOMAXPROCS %d", r.workers, want)
	}
	if r.shardBatches != 1 {
		t.Errorf("shardBatches = %d, want 1", r.shardBatches)
	}

	// Explicit parallelism is honoured.
	r, err = EngineConfig{Parallelism: 5}.resolve()
	if err != nil {
		t.Fatal(err)
	}
	if r.workers != 5 {
		t.Errorf("workers = %d, want 5", r.workers)
	}

	// BatchRuns rounds up to whole 64-run batches.
	for _, tc := range []struct{ runs, batches int }{
		{1, 1}, {64, 1}, {65, 2}, {300, 5}, {math.MaxInt, math.MaxInt/64 + 1},
	} {
		r, err = EngineConfig{BatchRuns: tc.runs}.resolve()
		if err != nil {
			t.Fatal(err)
		}
		if r.shardBatches != tc.batches {
			t.Errorf("BatchRuns=%d: shardBatches = %d, want %d", tc.runs, r.shardBatches, tc.batches)
		}
	}

	if _, err := (EngineConfig{Parallelism: -1}).resolve(); err == nil {
		t.Error("resolve accepted negative parallelism")
	}
}

// TestEngineConfigMatrixBitIdentity is the engine's determinism
// acceptance: every (parallelism, batch size) execution configuration must
// produce the identical Result and the identical observer-visible run
// stream as the single-worker one-batch engine, for all three entropy
// variants. The run count is deliberately not a multiple of 64 so the final
// batch is partial, and not a multiple of the shard size either.
func TestEngineConfigMatrixBitIdentity(t *testing.T) {
	entropies := []struct {
		name    string
		entropy core.Entropy
	}{
		{"prime", core.EntropyPrime},
		{"per-round", core.EntropyPerRound},
		{"per-sbox", core.EntropyPerSbox},
	}
	parallelisms := []int{1, 2, runtime.NumCPU()}
	batchRuns := []int{0, 300}

	for _, e := range entropies {
		t.Run(e.name, func(t *testing.T) {
			d, err := core.Build(present.Spec(), core.Options{
				Scheme:  core.SchemeThreeInOne,
				Entropy: e.entropy,
				Engine:  synth.EngineANF,
			})
			if err != nil {
				t.Fatal(err)
			}
			net := d.SboxInputNet(core.BranchActual, 13, 2)
			campaign := func(cfg EngineConfig) *Campaign {
				return &Campaign{
					Design: d,
					Key:    goldenKey,
					Faults: []Fault{At(net, StuckAt0, d.LastRoundCycle())},
					Runs:   700,
					Seed:   0x5C09E2021,
					Engine: cfg,
				}
			}

			ref, refDigest := hashRuns(t, campaign(EngineConfig{Parallelism: 1}))
			if ref.Total != 700 {
				t.Fatalf("reference total = %d, want 700", ref.Total)
			}
			for _, p := range parallelisms {
				for _, br := range batchRuns {
					cfg := EngineConfig{Parallelism: p, BatchRuns: br}
					res, digest := hashRuns(t, campaign(cfg))
					if res != ref {
						t.Errorf("p=%d b=%d: result %v differs from reference %v", p, br, res, ref)
					}
					if digest != refDigest {
						t.Errorf("p=%d b=%d: run-stream digest %#x differs from %#x", p, br, digest, refDigest)
					}
				}
			}
		})
	}
}

// TestEngineConfigGoldenDigestsUnchanged re-runs the pinned golden campaigns
// at a parallel, coarse-shard configuration: the historic digests produced
// by the original interpreted evaluator must survive verbatim.
func TestEngineConfigGoldenDigestsUnchanged(t *testing.T) {
	cases := []struct {
		name       string
		scheme     core.Scheme
		wantCounts [outcomeCount]int
		wantDigest uint64
	}{
		{"naive-dup", core.SchemeNaiveDup, [outcomeCount]int{498, 502, 0}, 0x3b65c928c52a21d2},
		{"three-in-one", core.SchemeThreeInOne, [outcomeCount]int{492, 508, 0}, 0xa188d67a405a7a39},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := goldenDesign(t, tc.scheme)
			net := d.SboxInputNet(core.BranchActual, 13, 2)
			camp := Campaign{
				Design: d,
				Key:    goldenKey,
				Faults: []Fault{At(net, StuckAt0, d.LastRoundCycle())},
				Runs:   1000,
				Seed:   0x5C09E2021,
				Engine: EngineConfig{Parallelism: 8, BatchRuns: 512},
			}
			res, digest := hashRuns(t, &camp)
			if res.Counts != tc.wantCounts {
				t.Errorf("counts = %v, want %v", res.Counts, tc.wantCounts)
			}
			if digest != tc.wantDigest {
				t.Errorf("run-stream digest = %#x, want %#x", digest, tc.wantDigest)
			}
		})
	}
}

// TestEngineConfigBatchRunsInvariance proves dispatch granularity is pure
// policy: any shard size yields the identical run stream.
func TestEngineConfigBatchRunsInvariance(t *testing.T) {
	d := goldenDesign(t, core.SchemeThreeInOne)
	net := d.SboxInputNet(core.BranchActual, 5, 1)
	var ref Result
	var refDigest uint64
	for i, br := range []int{0, 64, 128, 500, 4096, math.MaxInt} {
		camp := Campaign{
			Design: d,
			Key:    goldenKey,
			Faults: []Fault{At(net, BitFlip, d.LastRoundCycle())},
			Runs:   700,
			Seed:   99,
			Engine: EngineConfig{Parallelism: 3, BatchRuns: br},
		}
		res, digest := hashRuns(t, &camp)
		if i == 0 {
			ref, refDigest = res, digest
			continue
		}
		if res != ref || digest != refDigest {
			t.Errorf("BatchRuns=%d: (result, digest) = (%v, %#x), want (%v, %#x)",
				br, res, digest, ref, refDigest)
		}
	}
}

// TestEngineConfigInvalidRejected proves the executor validates before
// building any runner.
func TestEngineConfigInvalidRejected(t *testing.T) {
	d := goldenDesign(t, core.SchemeNaiveDup)
	net := d.SboxInputNet(core.BranchActual, 0, 0)
	camp := Campaign{
		Design: d,
		Key:    goldenKey,
		Faults: []Fault{At(net, StuckAt0, d.LastRoundCycle())},
		Runs:   64,
		Seed:   1,
		Engine: EngineConfig{Parallelism: -1},
	}
	if _, err := camp.Execute(nil); err == nil {
		t.Fatal("Execute accepted negative parallelism")
	}
}

// TestEngineConfigHugeBatchRuns guards the shard-size rounding against
// overflow: BatchRuns near math.MaxInt must not wrap the shard size
// negative, which would start no worker and return an empty Result with a
// nil error. Such a configuration runs the whole campaign in a single shard
// and tallies exactly like the zero configuration.
func TestEngineConfigHugeBatchRuns(t *testing.T) {
	d := goldenDesign(t, core.SchemeThreeInOne)
	net := d.SboxInputNet(core.BranchActual, 13, 2)
	campaign := func(cfg EngineConfig) *Campaign {
		return &Campaign{
			Design: d,
			Key:    goldenKey,
			Faults: []Fault{At(net, StuckAt0, d.LastRoundCycle())},
			Runs:   256,
			Seed:   0x5C09E2021,
			Engine: cfg,
		}
	}
	want, err := campaign(EngineConfig{}).Execute(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := campaign(EngineConfig{BatchRuns: math.MaxInt}).Execute(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Total != 256 || got != want {
		t.Fatalf("BatchRuns=MaxInt result %v, want %v", got, want)
	}
}
