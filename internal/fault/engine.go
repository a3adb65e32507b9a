package fault

import (
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/spn"
)

// EngineConfig is the execution configuration of the campaign engine:
// worker parallelism and dispatch granularity. It is pure execution policy —
// every configuration computes bit-identical results from the same (Design,
// Key, Faults, Runs, Seed), and none of its fields enter a campaign's
// content address, so cached batches replay across configurations.
//
// The zero value is the default: GOMAXPROCS workers, one 64-run batch per
// dispatch. Validate rejects impossible configurations; the executor
// validates before building any runner.
type EngineConfig struct {
	// Parallelism bounds the worker goroutines sharding the batch range
	// (0 = GOMAXPROCS). Workers own contiguous shards, so scheduling
	// never reorders results.
	Parallelism int
	// BatchRuns is the number of runs dispatched to a worker at a time,
	// rounded up to whole 64-run batches; 0 means one batch. Larger
	// shards reduce dispatch overhead on huge campaigns; cancellation
	// trims whole shards off the tail.
	BatchRuns int
}

// Validate rejects configurations the engine cannot run: negative
// parallelism or batch size.
func (c EngineConfig) Validate() error {
	if c.Parallelism < 0 {
		return fmt.Errorf("fault: engine parallelism must be non-negative (got %d)", c.Parallelism)
	}
	if c.BatchRuns < 0 {
		return fmt.Errorf("fault: engine batch runs must be non-negative (got %d)", c.BatchRuns)
	}
	return nil
}

// resolvedEngine is a validated EngineConfig with every default applied.
type resolvedEngine struct {
	workers      int // worker goroutine count
	shardBatches int // 64-run batches per dispatched shard (at least 1)
}

// resolve validates the configuration and applies defaults.
func (c EngineConfig) resolve() (resolvedEngine, error) {
	if err := c.Validate(); err != nil {
		return resolvedEngine{}, err
	}
	r := resolvedEngine{workers: c.Parallelism, shardBatches: 1}
	if r.workers == 0 {
		r.workers = runtime.GOMAXPROCS(0)
	}
	if c.BatchRuns > 0 {
		// Ceiling division written so BatchRuns near math.MaxInt cannot
		// overflow.
		r.shardBatches = (c.BatchRuns-1)/sim.Lanes + 1
	}
	return r, nil
}

// batchRunner executes one 64-run batch per simulator pass; the campaign
// executor holds one per worker. All per-batch working state —
// plaintext/garbage draws, per-cycle λ words, the generator itself — lives
// in scratch buffers allocated once per worker, which keeps the
// per-round/per-sbox variants free of per-run allocations.
type batchRunner struct {
	c *Campaign
	r *core.Runner
	// ref is the campaign key's precomputed reference encrypter;
	// classification calls it once per run, so the expanded schedule and
	// fused substitution/linear tables are what keep the reference off the
	// critical path.
	ref *spn.RefEncrypter

	// gen is reseeded per batch from (Seed, batch index), so a batch's
	// draw stream does not depend on which worker runs it or when.
	gen *rng.Xoshiro

	pts, garbage []uint64
	// λ scratch: lambda0 backs the prime variant's constant word;
	// lamCycles[cyc] backs the fresh-per-cycle variants, filled lazily
	// per batch (lamFilled marks which cycles have been drawn).
	lambda0   []uint64
	lamCycles [][]uint64
	lamFilled []bool
	// masks backs the masked schemes' per-lane mask port draws. The draws
	// are appended AFTER the unmasked stream (pt/garbage interleaved, then
	// λ), so unmasked schemes' draw streams — and therefore every stored
	// campaign digest — are unchanged by the masked variant's existence.
	masks *core.MaskSet
}

func (c *Campaign) newBatchRunner(simD *core.Design, compiled *sim.Compiled, inj *Injector) *batchRunner {
	const lanes = sim.Lanes
	r := core.NewRunnerFrom(simD, compiled)
	r.S.SetInjector(inj)
	br := &batchRunner{
		c:       c,
		r:       r,
		ref:     c.Design.Spec.NewRefEncrypter(c.Key),
		gen:     rng.NewXoshiro(0),
		pts:     make([]uint64, lanes),
		garbage: make([]uint64, lanes),
	}
	if c.Design.LambdaWidth > 0 {
		br.lambda0 = make([]uint64, lanes)
		cycles := c.Design.Spec.Rounds + 1
		back := make([]uint64, cycles*lanes)
		br.lamCycles = make([][]uint64, cycles)
		for i := range br.lamCycles {
			br.lamCycles[i] = back[i*lanes : (i+1)*lanes]
		}
		br.lamFilled = make([]bool, cycles)
	}
	if c.Design.Opts.Scheme.Masked() {
		br.masks = &core.MaskSet{
			StateEven: make([]uint64, lanes),
			StateOdd:  make([]uint64, lanes),
			Lambda:    make([]uint64, lanes),
		}
		if c.Design.MaskPoolWidth > 0 {
			br.masks.RandEven = make([]uint64, lanes)
			br.masks.RandOdd = make([]uint64, lanes)
		}
	}
	return br
}

// run executes batch b in one simulator pass and returns its tallies —
// and, when retain is set, its Run records in lane order. Every random
// value comes from the (Seed, b)-derived generator in a fixed order:
// plaintext/garbage interleaved, then λ per cycle on first touch, then the
// masked schemes' mask draws.
func (br *batchRunner) run(b int, retain bool) batchOut {
	c := br.c
	d := c.Design
	gen := br.gen
	gen.Reseed(c.Seed ^ (uint64(b)+1)*0x9E3779B97F4A7C15)
	n := c.BatchRuns(b)
	pts, garbage := br.pts[:n], br.garbage[:n]
	for i := range pts {
		pts[i] = gen.Uint64()
		garbage[i] = gen.Uint64()
	}

	drawLambda := func(vals []uint64) {
		for i := range vals {
			vals[i] = gen.Bits(d.LambdaWidth)
		}
	}

	var lf core.LambdaFunc
	var lambda0 []uint64
	if d.LambdaWidth > 0 {
		if d.Opts.Entropy == core.EntropyPrime {
			lambda0 = br.lambda0[:n]
			drawLambda(lambda0)
			lf = core.LambdaConst(lambda0)
		} else {
			// Fresh λ per cycle, deterministic in the cycle index,
			// memoised in per-cycle scratch (cycle 0 pre-drawn so it can
			// be recorded).
			for i := range br.lamFilled {
				br.lamFilled[i] = false
			}
			lf = func(cyc int) []uint64 {
				vals := br.lamCycles[cyc][:n]
				if !br.lamFilled[cyc] {
					drawLambda(vals)
					br.lamFilled[cyc] = true
				}
				return vals
			}
			lambda0 = lf(0)
		}
	}

	if ms := br.masks; ms != nil {
		// Masked schemes extend the batch's draw stream with the mask
		// port values, per lane in fixed order: state-even, state-odd,
		// refresh-pool-even, refresh-pool-odd, λ-mask. Masked implies
		// EntropyPrime, so the eager λ draw above has already consumed its
		// part of the stream.
		for i := 0; i < n; i++ {
			ms.StateEven[i] = gen.Bits(d.Spec.BlockBits)
			ms.StateOdd[i] = gen.Bits(d.Spec.BlockBits)
			if d.MaskPoolWidth > 0 {
				ms.RandEven[i] = gen.Bits(d.MaskPoolWidth)
				ms.RandOdd[i] = gen.Bits(d.MaskPoolWidth)
			}
			ms.Lambda[i] = gen.Bits(1)
		}
		br.r.Masks = ms
	}

	res := br.r.EncryptBatchReuse(pts, c.Key, garbage, lf)
	correcting := d.Opts.Scheme.Correcting()
	out := batchOut{batch: b}
	if retain {
		out.runs = make([]Run, 0, n)
	}
	for lane, pt := range pts {
		// The reference is always the clean cipher — under a persistent
		// fault the simulated design computes with the corrupted table
		// while classification compares against what the device should
		// have produced.
		ref := br.ref.Encrypt(pt)
		r := Run{PT: pt, CT: res.CT[lane], RefCT: ref}
		if lambda0 != nil {
			r.Lambda0 = lambda0[lane]
		}
		switch {
		case res.Fault[lane] && correcting && res.CT[lane] == ref:
			r.Outcome = OutcomeCorrected
		case res.Fault[lane]:
			r.Outcome = OutcomeDetected
		case res.CT[lane] == ref:
			r.Outcome = OutcomeIneffective
		default:
			r.Outcome = OutcomeEffective
		}
		out.res.Total++
		out.res.Counts[r.Outcome]++
		if retain {
			out.runs = append(out.runs, r)
		}
	}
	return out
}
