package core_test

import (
	"context"
	"testing"

	"repro/internal/attack"
	"repro/internal/cipher/present"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/spn"
)

// compileCounts enables the simulator's instruments on a fresh registry and
// returns a reader of the compile-cache (hits, misses) counters.
func compileCounts(t *testing.T) func() (hits, misses int64) {
	t.Helper()
	reg := obs.NewRegistry()
	sim.EnableObservability(reg)
	t.Cleanup(func() { sim.EnableObservability(nil) })
	// Registration is idempotent: these are the instruments sim registered.
	h := reg.NewCounter("scone_sim_compile_cache_hits_total", "")
	m := reg.NewCounter("scone_sim_compile_cache_misses_total", "")
	return func() (int64, int64) { return h.Value(), m.Value() }
}

func buildThreeInOne(t *testing.T) *core.Design {
	t.Helper()
	d, err := core.Build(present.Spec(), core.Options{Scheme: core.SchemeThreeInOne, Entropy: core.EntropyPrime})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDesignCompilesOnce pins the compile-cache counters: a design is
// compiled on its first use (one miss) and every runner, attack target and
// campaign range over it reuses that program (hits).
func TestDesignCompilesOnce(t *testing.T) {
	counts := compileCounts(t)
	d := buildThreeInOne(t)

	r1, err := core.NewRunner(d)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := core.NewRunner(d)
	if err != nil {
		t.Fatal(err)
	}
	if r1.S == r2.S {
		t.Fatal("runners share one simulator")
	}
	key := spn.KeyState{0x0123456789ABCDEF, 0x8421}
	if _, err := attack.NewTarget(d, key, 1); err != nil {
		t.Fatal(err)
	}
	camp := &fault.Campaign{
		Design: d,
		Key:    key,
		Faults: []fault.Fault{fault.At(d.SboxInputNet(core.BranchActual, 13, 2), fault.StuckAt0, d.LastRoundCycle())},
		Runs:   2 * sim.Lanes,
		Seed:   1,
	}
	for b := 0; b < camp.NumBatches(); b++ {
		if _, err := camp.ExecuteBatchesFunc(context.Background(), b, b+1, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if hits, misses := counts(); misses != 1 || hits != 4 {
		t.Fatalf("one design: %d misses, %d hits; want 1 miss, 4 hits", misses, hits)
	}

	c1, err := d.Compiled()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := buildThreeInOne(t).Compiled()
	if err != nil {
		t.Fatal(err)
	}
	if c1 == c2 {
		t.Fatal("two builds share one program")
	}
	if hits, misses := counts(); misses != 2 || hits != 5 {
		t.Fatalf("two builds of one spec: %d misses, %d hits; want 2 misses, 5 hits", misses, hits)
	}
}
