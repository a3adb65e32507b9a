package fault

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/spn"
)

// Outcome classifies one faulted encryption, following the terminology of
// the SIFA literature and the paper's Section IV-A.
type Outcome int

// Possible run outcomes.
const (
	// OutcomeIneffective: the fault did not change the released output
	// (it hit a value it could not alter). SIFA feeds on these runs.
	OutcomeIneffective Outcome = iota
	// OutcomeDetected: the countermeasure's comparator fired and the
	// recovery output (garbage) was released.
	OutcomeDetected
	// OutcomeEffective: a *wrong* ciphertext was released without
	// detection — the dangerous case that enables DFA.
	OutcomeEffective
	// OutcomeCorrected: the countermeasure sensed a disagreement and
	// still released the *correct* ciphertext — only correcting
	// (majority-vote) designs produce this outcome; on detect-only
	// designs a sensed fault always classifies as OutcomeDetected.
	OutcomeCorrected
	outcomeCount
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case OutcomeIneffective:
		return "ineffective"
	case OutcomeDetected:
		return "detected"
	case OutcomeEffective:
		return "effective"
	case OutcomeCorrected:
		return "corrected"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Run records one simulated encryption of a campaign.
type Run struct {
	PT uint64
	// CT is the released output (garbage when detected).
	CT uint64
	// RefCT is the fault-free ciphertext from the software reference.
	RefCT uint64
	// Lambda0 is the λ word supplied at the load cycle (0 when the
	// scheme is not randomised).
	Lambda0 uint64
	Outcome Outcome
}

// Campaign describes a fault-simulation campaign over one design: the same
// fault set across many runs with fresh plaintexts and λ, exactly the
// protocol of the paper's Section IV-A. Faults may name any number of
// injection points — multi-point tuples run exactly like single faults —
// and Persistent, when set, additionally corrupts the cipher's S-box table
// for the whole campaign.
type Campaign struct {
	Design *core.Design
	Key    spn.KeyState
	Faults []Fault
	Runs   int
	Seed   uint64
	// Engine configures the execution engine: parallelism and dispatch
	// granularity. The zero value is the default (GOMAXPROCS workers, one
	// batch per dispatch). Execution configuration is pure policy —
	// results, golden digests and stored content addresses are identical
	// across all valid configurations.
	Engine EngineConfig
	// Persistent, when non-nil, corrupts one S-box table entry before
	// the campaign starts: every branch of every run computes with the
	// corrupted table, so the corruption survives across encryptions (the
	// PFA fault model). Classification still compares against the clean
	// reference cipher.
	Persistent *PersistentFault

	// persistentDesign memoises the corrupted rebuild across chunked
	// ExecuteBatches calls of one job.
	persistentDesign *core.Design
}

// Result aggregates campaign outcomes.
type Result struct {
	Total  int
	Counts [outcomeCount]int
}

// Ineffective, Detected and Effective return the per-outcome counts.
func (r Result) Ineffective() int { return r.Counts[OutcomeIneffective] }

// Detected returns the number of detected runs.
func (r Result) Detected() int { return r.Counts[OutcomeDetected] }

// Effective returns the number of undetected wrong outputs.
func (r Result) Effective() int { return r.Counts[OutcomeEffective] }

// Corrected returns the number of sensed-and-recovered runs.
func (r Result) Corrected() int { return r.Counts[OutcomeCorrected] }

// String summarises the result.
func (r Result) String() string {
	s := fmt.Sprintf("%d runs: %d ineffective, %d detected, %d effective (escaped)",
		r.Total, r.Ineffective(), r.Detected(), r.Effective())
	if c := r.Corrected(); c > 0 {
		s += fmt.Sprintf(", %d corrected", c)
	}
	return s
}

// EngineVersion identifies the campaign engine's deterministic result
// semantics: the (Seed, batch) randomness derivation, the 64-run batch
// size, the outcome classification. It is part of every stored batch's
// content address, so bumping it when any of those change invalidates all
// cached results at once instead of silently replaying stale ones.
//
// Version 2 adds the persistent-fault model and the corrected outcome
// class. Campaigns that cannot exercise either — no persistent fault and a
// non-correcting design — classify bit-identically to version 1, so their
// content addresses keep the legacy engine string (see EngineID) and every
// pre-existing cached batch stays valid.
const EngineVersion = "scone-campaign/2-lanes64"

// EngineVersionLegacy is version 1's identifier, still emitted for
// campaigns whose results are bit-identical under both versions.
const EngineVersionLegacy = "scone-campaign/1-lanes64"

// EngineID returns the engine string that addresses this campaign's stored
// batches: the legacy identifier when the campaign's semantics predate
// version 2 (keeping old digests valid), the current one otherwise.
func (c *Campaign) EngineID() string {
	if c.Persistent == nil && !c.Design.Opts.Scheme.Correcting() {
		return EngineVersionLegacy
	}
	return EngineVersion
}

// NumBatches returns the number of sim.Lanes-wide batches the campaign is
// split into. Batch b derives all of its randomness from (Seed, b), so any
// contiguous batch range can be executed — or re-executed — independently
// with ExecuteBatches and the combined counts and observer stream are
// identical to a single uninterrupted Execute.
func (c *Campaign) NumBatches() int {
	return (c.Runs + sim.Lanes - 1) / sim.Lanes
}

// BatchRuns returns the run count of batch b: sim.Lanes for every batch
// except the campaign's final one, which carries the remainder.
func (c *Campaign) BatchRuns(b int) int {
	n := sim.Lanes
	if rem := c.Runs - b*sim.Lanes; rem < n {
		n = rem
	}
	return n
}

// Execute runs the campaign. observe, when non-nil, is called once per run
// from the calling goroutine, in a deterministic order given the seed:
// batch by batch, lane by lane, regardless of how the batches were
// scheduled across workers. Without an observer the workers aggregate
// outcome counts directly and no Run is retained, so memory stays flat no
// matter how large the campaign is.
func (c *Campaign) Execute(observe func(Run)) (Result, error) {
	return c.ExecuteContext(context.Background(), observe)
}

// ExecuteContext is Execute with cancellation: between batches the workers
// watch ctx and exit early once it is done. On cancellation the counts (and
// observer stream) of a contiguous prefix of batches are returned together
// with ctx.Err(); a later ExecuteBatches from the next batch boundary
// continues the campaign with bit-identical final results.
func (c *Campaign) ExecuteContext(ctx context.Context, observe func(Run)) (Result, error) {
	return c.ExecuteBatches(ctx, 0, c.NumBatches(), observe)
}

// batchOut carries one finished batch from a worker to the reorder buffer.
type batchOut struct {
	batch int
	runs  []Run // retained only when an observer is attached
	res   Result
}

// ExecuteBatches runs the half-open batch range [first, last) of the
// campaign. It is the checkpoint/resume primitive: a service that persists
// (completed-batch count, accumulated counts) after each call can be killed
// and later resume from the recorded boundary, and the summed Result is
// bit-identical to an uninterrupted Execute with the same seed.
//
// The returned Result covers a contiguous prefix of the range: batches are
// handed to workers in order and a dispatched batch always runs to
// completion, so cancellation can only trim whole batches off the tail.
// When the range is cut short the partial Result is returned with ctx.Err();
// Result.Total / sim.Lanes then gives the number of completed batches
// (every completed batch is full, because only the campaign's final batch
// can be partial and it is always the last to complete).
func (c *Campaign) ExecuteBatches(ctx context.Context, first, last int, observe func(Run)) (Result, error) {
	return c.ExecuteBatchesFunc(ctx, first, last, observe, nil)
}

// ExecuteBatchesFunc is ExecuteBatches with a per-batch hook: onBatch, when
// non-nil, is called from the calling goroutine once per completed batch, in
// batch order, with that batch's own Result. It is the result store's feed —
// a caller can persist each batch tally under its content address while the
// aggregate Result and observer stream stay exactly those of ExecuteBatches.
// Like observe, onBatch sees a contiguous prefix of the range on
// cancellation.
func (c *Campaign) ExecuteBatchesFunc(ctx context.Context, first, last int, observe func(Run), onBatch func(batch int, res Result)) (Result, error) {
	if c.Runs <= 0 {
		return Result{}, fmt.Errorf("fault: campaign needs a positive run count")
	}
	if batches := c.NumBatches(); first < 0 || last > batches || first > last {
		return Result{}, fmt.Errorf("fault: batch range [%d,%d) outside the campaign's %d batches", first, last, batches)
	}
	cfg, err := c.Engine.resolve()
	if err != nil {
		return Result{}, err
	}
	simD, err := c.simDesign()
	if err != nil {
		return Result{}, err
	}
	compiled, err := sim.CompileCached(simD.Mod)
	if err != nil {
		return Result{}, err
	}
	if first == last {
		return Result{}, nil
	}
	numShards := (last-first-1)/cfg.shardBatches + 1
	workers := min(cfg.workers, numShards)

	inj := NewInjector(c.Faults...)

	shardCh := make(chan [2]int)
	// One slot per worker lets each hand off a finished batch without
	// waiting for the reorder loop.
	outCh := make(chan batchOut, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			br := c.newBatchRunner(simD, compiled, inj)
			for sh := range shardCh {
				for b := sh[0]; b < sh[1]; b++ {
					var start time.Time
					mm := met.Load()
					if mm != nil {
						start = time.Now()
					}
					out := br.run(b, observe != nil)
					if mm != nil {
						mm.countBatch(time.Since(start).Nanoseconds(), len(c.Faults), out.res)
					}
					outCh <- out
				}
			}
		}()
	}
	// The feeder hands each worker a contiguous shard of batches and
	// stops dispatching once ctx is done; shards already handed to a
	// worker run to completion, so the completed set is a contiguous
	// prefix of the range.
	go func() {
		defer close(shardCh)
		for lo := first; lo < last; lo += cfg.shardBatches {
			hi := lo + min(cfg.shardBatches, last-lo)
			// Checking Err first makes an already-cancelled context
			// deterministic: select alone picks randomly when both the
			// send and Done are ready.
			if ctx.Err() != nil {
				return
			}
			select {
			case shardCh <- [2]int{lo, hi}:
				met.Load().countShard()
			case <-ctx.Done():
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(outCh)
	}()

	// Batches finish out of order; the reorder buffer delivers runs to
	// the observer batch by batch, lane by lane, regardless of worker
	// scheduling, and bounds retained memory by the workers' spread
	// instead of the whole campaign.
	var res Result
	mm := met.Load()
	pending := make(map[int]batchOut)
	next := first
	for out := range outCh {
		pending[out.batch] = out
		for {
			o, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			res.Total += o.res.Total
			for i, n := range o.res.Counts {
				res.Counts[i] += n
			}
			for _, r := range o.runs {
				observe(r)
			}
			if onBatch != nil {
				onBatch(next, o.res)
			}
			next++
		}
		mm.setReorderDepth(len(pending))
	}
	if next < last {
		return res, ctx.Err()
	}
	return res, nil
}
