package power_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"repro/internal/cipher/present"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/leakage"
	"repro/internal/netlist"
	"repro/internal/power"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/spn"
	"repro/internal/synth"
)

var goldenKey = spn.KeyState{0x0123456789ABCDEF, 0x2468}

func goldenDesign(t *testing.T, scheme core.Scheme) *core.Design {
	t.Helper()
	return core.MustBuild(present.Spec(), core.Options{
		Scheme: scheme, Entropy: core.EntropyPrime, Engine: synth.EngineANF,
	})
}

func putFloat(h hash.Hash, v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	h.Write(b[:])
}

func putInt(h hash.Hash, v int) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	h.Write(b[:])
}

// batchDigest runs one full 64-lane batch with seeded plaintexts, λ values
// and (for masked designs) mask port values, and hashes every sample of
// every lane's trace.
func batchDigest(t *testing.T, d *core.Design, model power.Model, restrict []netlist.Net) string {
	t.Helper()
	r, err := core.NewRunner(d)
	if err != nil {
		t.Fatal(err)
	}
	gen := rng.NewXoshiro(0x90_1DE7)
	pts := make([]uint64, sim.Lanes)
	lams := make([]uint64, sim.Lanes)
	for i := range pts {
		pts[i] = gen.Uint64()
		lams[i] = gen.Bits(d.LambdaWidth)
	}
	if d.Opts.Scheme.Masked() {
		ms := &core.MaskSet{
			StateEven: make([]uint64, sim.Lanes),
			StateOdd:  make([]uint64, sim.Lanes),
			Lambda:    make([]uint64, sim.Lanes),
		}
		if d.MaskPoolWidth > 0 {
			ms.RandEven = make([]uint64, sim.Lanes)
			ms.RandOdd = make([]uint64, sim.Lanes)
		}
		for i := 0; i < sim.Lanes; i++ {
			ms.StateEven[i] = gen.Bits(d.Spec.BlockBits)
			ms.StateOdd[i] = gen.Bits(d.Spec.BlockBits)
			if d.MaskPoolWidth > 0 {
				ms.RandEven[i] = gen.Bits(d.MaskPoolWidth)
				ms.RandOdd[i] = gen.Bits(d.MaskPoolWidth)
			}
			ms.Lambda[i] = gen.Bits(1)
		}
		r.Masks = ms
	}
	p := power.Attach(r, model)
	p.Restrict(restrict)
	p.BeginBatch()
	r.EncryptBatch(pts, goldenKey, nil, core.LambdaConst(lams))
	h := sha256.New()
	traces := p.Traces()
	putInt(h, len(traces))
	for _, tr := range traces {
		putInt(h, len(tr))
		for _, v := range tr {
			putFloat(h, v)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// resultDigest hashes every field of a finished 256-pair evaluation.
func resultDigest(t *testing.T, cfg leakage.Config) string {
	t.Helper()
	e, err := leakage.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for !e.Done() {
		e.Step()
	}
	res := e.Result()
	h := sha256.New()
	h.Write([]byte(res.Model))
	for _, v := range []int{res.Pairs, res.Fixed, res.Random, res.Discarded, res.Samples, len(res.TValues)} {
		putInt(h, v)
	}
	for _, v := range res.TValues {
		putFloat(h, v)
	}
	putFloat(h, res.MaxAbsT)
	if res.Leaks {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestProbeGolden pins the exact power traces and TVLA results of the
// PRESENT-80 three-in-one and masked cores. Samples are integer counts,
// so any change to how the probe reduces net values must reproduce these
// digests bit for bit; the values were recorded with the original per-bit
// sampling loop.
func TestProbeGolden(t *testing.T) {
	schemes := []struct {
		name   string
		scheme core.Scheme
	}{
		{"three-in-one", core.SchemeThreeInOne},
		{"masked", core.SchemeMaskedDup},
	}
	traceWant := map[string]string{
		"three-in-one/hamming-distance/global": "aefee3e7fbbb8324eba25d1afea537c189f70187c72d430cacebf1a5b874f5ed",
		"three-in-one/hamming-distance/actual": "952a929ab65192fe454b752985a7e73c82538ad5a6ee4b8eec5faca6a35343e0",
		"three-in-one/hamming-weight/global":   "632563c412c70f0799fd1d8239ae0bcff128cab28e5aa2b6bc6ebb83c4dcb51f",
		"three-in-one/hamming-weight/actual":   "a58257c829384e1c439a928bd5a3340b30a3172ae4b96f0c1e4705102e3d1ade",
		"masked/hamming-distance/global":       "3b5b3d3dcf69f35a655125719a10bc004d0a27e8a2ee7ea7189011a49e28e595",
		"masked/hamming-distance/actual":       "eeecad07d08e2ff519e713ecb72778bbeb745d4204aa08eae7ee70ddf578c6c3",
		"masked/hamming-weight/global":         "4cf641438d7acf6ecb711e9d129f73ad6de07ca46ab290c5a64cfcd66e55c42a",
		"masked/hamming-weight/actual":         "b75669e3410ffcb98fbc63bd0b381b5db1d41a53cf0ee43af04144087b3809cd",
	}
	resultWant := map[string]string{
		"three-in-one/unfaulted": "c1831d91a53da87ff8a06247d19bf7e5695283d89a7d1c405dbb4ca7a872cd1f",
		"three-in-one/faulted":   "9a7d5b9b430ca5bc405a1f8580109727fd909c8c4602cee5773a9f9b95ff9a71",
		"masked/unfaulted":       "8a117a07129f9363cf1551e5689d91c09d829dd1521c78101e9f2560ea593905",
		"masked/faulted":         "489343cf3f063c3f6804bf1c158bd4e0188126c819ed884173140ba9cf45969a",
	}
	for _, s := range schemes {
		d := goldenDesign(t, s.scheme)
		for _, model := range []power.Model{power.HammingDistance, power.HammingWeight} {
			for _, view := range []struct {
				name string
				nets []netlist.Net
			}{
				{"global", nil},
				{"actual", d.BranchNets(core.BranchActual)},
			} {
				key := s.name + "/" + model.String() + "/" + view.name
				if got := batchDigest(t, d, model, view.nets); got != traceWant[key] {
					t.Errorf("%s: trace digest %s, want %s", key, got, traceWant[key])
				}
			}
		}

		cfg := leakage.Config{Design: d, Key: goldenKey, Model: power.HammingDistance,
			Pairs: 256, Seed: 0x601D, FixedPT: 0x0123456789ABCDEF}
		if got := resultDigest(t, cfg); got != resultWant[s.name+"/unfaulted"] {
			t.Errorf("%s unfaulted: result digest %s, want %s", s.name, got, resultWant[s.name+"/unfaulted"])
		}
		cfg.Model = power.HammingWeight
		cfg.Faults = []fault.Fault{
			fault.At(d.SboxInputNet(core.BranchActual, 2, 1), fault.StuckAt0, d.LastRoundCycle()),
		}
		if got := resultDigest(t, cfg); got != resultWant[s.name+"/faulted"] {
			t.Errorf("%s faulted: result digest %s, want %s", s.name, got, resultWant[s.name+"/faulted"])
		}
	}
}
