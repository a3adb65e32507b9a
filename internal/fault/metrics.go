package fault

import (
	"sync/atomic"

	"repro/internal/obs"
)

// metrics is the fault engine's instrument set, swapped in atomically by
// EnableObservability so campaign workers pay one pointer load per batch
// while observability is disabled.
type metrics struct {
	runs        *obs.Counter
	batches     *obs.Counter
	injections  *obs.Counter
	detected    *obs.Counter
	ineffective *obs.Counter
	effective   *obs.Counter
	corrected   *obs.Counter
	batchNS     *obs.Histogram
	reorder     *obs.Gauge
	shards      *obs.Counter

	// Replay counters are fed by CountReplay, never by the engine itself:
	// scone_fault_runs_total / scone_fault_batches_total count only work
	// the simulator actually performed, so throughput dashboards dividing
	// runs by wall time are not inflated by cache hits.
	runsReplayed    *obs.Counter
	batchesReplayed *obs.Counter
}

var met atomic.Pointer[metrics]

// EnableObservability registers the fault engine's metrics on reg and starts
// recording into them. Passing nil reverts to the free no-op default.
// Instruments are updated outside the deterministic (seed, batch) randomness
// derivation, so campaign results are bit-identical with observability on or
// off.
func EnableObservability(reg *obs.Registry) {
	if reg == nil {
		met.Store(nil)
		return
	}
	met.Store(&metrics{
		runs:        reg.NewCounter("scone_fault_runs_total", "Faulted encryptions simulated"),
		batches:     reg.NewCounter("scone_fault_batches_total", "64-lane campaign batches completed"),
		injections:  reg.NewCounter("scone_fault_injections_total", "Fault injection points armed per batch (faults x batches)"),
		detected:    reg.NewCounter("scone_fault_detected_total", "Runs where the comparator fired and garbage was released"),
		ineffective: reg.NewCounter("scone_fault_ineffective_total", "Runs where the fault did not change the released output"),
		effective:   reg.NewCounter("scone_fault_effective_total", "Runs releasing an undetected wrong ciphertext"),
		corrected:   reg.NewCounter("scone_fault_corrected_total", "Runs where the majority vote sensed and recovered a fault"),
		batchNS:     reg.NewHistogram("scone_fault_batch_ns", "Wall time of one 64-run batch", obs.ExpBuckets(4_000, 4, 14)),
		reorder:     reg.NewGauge("scone_fault_reorder_depth_count", "Batches parked in the reorder buffer awaiting in-order delivery"),
		shards:      reg.NewCounter("scone_fault_shards_total", "Contiguous batch shards dispatched to campaign workers"),

		runsReplayed:    reg.NewCounter("scone_fault_runs_replayed_total", "Campaign runs served from the result store without simulation"),
		batchesReplayed: reg.NewCounter("scone_fault_batches_replayed_total", "Campaign batches served from the result store without simulation"),
	})
}

// CountReplay records batches whose results were served from a result store
// instead of the simulator. The split keeps scone_fault_runs_total an honest
// simulation-throughput counter: replayed work lands here, simulated work in
// countBatch, and the two never mix.
func CountReplay(batches int, res Result) {
	m := met.Load()
	if m == nil {
		return
	}
	m.batchesReplayed.Add(int64(batches))
	m.runsReplayed.Add(int64(res.Total))
}

// countBatch records one completed batch: its wall time, run outcomes and
// the number of armed injection points.
func (m *metrics) countBatch(ns int64, faults int, res Result) {
	if m == nil {
		return
	}
	m.batches.Inc()
	m.batchNS.Observe(ns)
	m.injections.Add(int64(faults))
	m.runs.Add(int64(res.Total))
	m.ineffective.Add(int64(res.Counts[OutcomeIneffective]))
	m.detected.Add(int64(res.Counts[OutcomeDetected]))
	m.effective.Add(int64(res.Counts[OutcomeEffective]))
	m.corrected.Add(int64(res.Counts[OutcomeCorrected]))
}

// setReorderDepth mirrors the reorder buffer's occupancy.
func (m *metrics) setReorderDepth(n int) {
	if m == nil {
		return
	}
	m.reorder.Set(int64(n))
}

// countShard records one shard handed to a worker.
func (m *metrics) countShard() {
	if m == nil {
		return
	}
	m.shards.Inc()
}
