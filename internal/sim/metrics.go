package sim

import (
	"sync/atomic"

	"repro/internal/obs"
)

// metrics is the package's instrument set. It is swapped in atomically by
// EnableObservability so the hot paths pay one pointer load (and nothing
// else) while observability is disabled.
type metrics struct {
	cacheHits   *obs.Counter
	cacheMisses *obs.Counter
	compiles    *obs.Counter
	evals       *obs.Counter
	lanes       *obs.Counter
	progInsts   *obs.Gauge
	progRuns    *obs.Gauge
}

var met atomic.Pointer[metrics]

// EnableObservability registers the simulator's metrics on reg and starts
// recording into them. Passing nil reverts to the free no-op default. The
// instruments only count work performed; they never influence evaluation, so
// simulation results are identical with observability on or off.
func EnableObservability(reg *obs.Registry) {
	if reg == nil {
		met.Store(nil)
		return
	}
	met.Store(&metrics{
		cacheHits:   reg.NewCounter("scone_sim_compile_cache_hits_total", "Requests for a design's program served by its earlier compilation"),
		cacheMisses: reg.NewCounter("scone_sim_compile_cache_misses_total", "Requests for a design's program that compiled it (first use of the design)"),
		compiles:    reg.NewCounter("scone_sim_compiles_total", "Modules lowered to instruction streams"),
		evals:       reg.NewCounter("scone_sim_evals_total", "Combinational evaluation passes executed"),
		lanes:       reg.NewCounter("scone_sim_lanes_total", "Simulation lanes evaluated (64 per eval pass)"),
		progInsts:   reg.NewGauge("scone_sim_run_table_instructions_count", "Fast-stream instructions in the most recently compiled module"),
		progRuns:    reg.NewGauge("scone_sim_run_table_runs_count", "Homogeneous opcode runs in the most recently compiled module"),
	})
}

// countEval records one combinational pass; called from Eval.
func countEval() {
	if m := met.Load(); m != nil {
		m.evals.Inc()
		m.lanes.Add(Lanes)
	}
}

// countCompile records a fresh compilation and the occupancy of its run
// table (instructions and homogeneous runs — the ratio is the average run
// length the specialised loops get to execute).
func countCompile(p *program) {
	if m := met.Load(); m != nil {
		m.compiles.Inc()
		m.progInsts.Set(int64(len(p.rOut)))
		m.progRuns.Set(int64(len(p.runs)))
	}
}

// CountProgramUse records one request for a built design's compiled
// program: a hit when the design's program was reused, a miss when the
// request compiled it. The program memo lives on core.Design; the counters
// stay with the simulator's other instruments.
func CountProgramUse(reused bool) {
	if m := met.Load(); m != nil {
		if reused {
			m.cacheHits.Inc()
		} else {
			m.cacheMisses.Inc()
		}
	}
}
