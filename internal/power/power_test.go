package power

import (
	"testing"

	"repro/internal/cipher/present"
	"repro/internal/core"
	"repro/internal/spn"
	"repro/internal/synth"
)

var key = spn.KeyState{0x1111222233334444, 0x5555}

func runner(t *testing.T, scheme core.Scheme) (*core.Design, *core.Runner) {
	t.Helper()
	d := core.MustBuild(present.Spec(), core.Options{
		Scheme: scheme, Entropy: core.EntropyPrime, Engine: synth.EngineANF,
	})
	r, err := core.NewRunner(d)
	if err != nil {
		t.Fatal(err)
	}
	return d, r
}

func TestTraceShape(t *testing.T) {
	d, r := runner(t, core.SchemeUnprotected)
	p := Attach(r, HammingDistance)
	p.BeginBatch()
	r.EncryptBatch([]uint64{1, 2, 3}, key, nil, nil)
	traces := p.Traces()
	if len(traces[0]) != d.CyclesPerRun() {
		t.Fatalf("trace length %d, want %d", len(traces[0]), d.CyclesPerRun())
	}
	// Different plaintexts must give different activity somewhere.
	same := true
	for i := range traces[0] {
		if traces[0][i] != traces[1][i] {
			same = false
		}
	}
	if same {
		t.Fatal("distinct plaintexts produced identical traces")
	}
}

func TestTracesAreDeterministic(t *testing.T) {
	_, r := runner(t, core.SchemeUnprotected)
	p := Attach(r, HammingDistance)
	collect := func() []float64 {
		p.BeginBatch()
		r.EncryptBatch([]uint64{0xABCD}, key, nil, nil)
		return append([]float64(nil), p.Traces()[0]...)
	}
	a := collect()
	b := collect()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same stimulus must give identical traces")
		}
	}
}

func TestGlobalLambdaBalance(t *testing.T) {
	// The structural property found by the leakage experiment: with the
	// λ / ¬λ branch pairing, the GLOBAL activity trace is identical for
	// λ=0 and λ=1 under both leakage models (the branches swap roles).
	for _, model := range []Model{HammingDistance, HammingWeight} {
		_, r := runner(t, core.SchemeThreeInOne)
		p := Attach(r, model)
		trace := func(lam uint64) []float64 {
			p.BeginBatch()
			r.EncryptBatch([]uint64{0x123456789ABCDEF0}, key, nil,
				core.LambdaConst([]uint64{lam}))
			return append([]float64(nil), p.Traces()[0]...)
		}
		t0, t1 := trace(0), trace(1)
		for i := range t0 {
			if t0[i] != t1[i] {
				t.Fatalf("%v: global trace differs at cycle %d (%v vs %v)", model, i, t0[i], t1[i])
			}
		}
	}
}

func TestLocalizedProbeSeesLambda(t *testing.T) {
	d, r := runner(t, core.SchemeThreeInOne)
	p := Attach(r, HammingWeight)
	p.Restrict(d.BranchNets(core.BranchActual))
	trace := func(lam uint64) []float64 {
		p.BeginBatch()
		r.EncryptBatch([]uint64{0x123456789ABCDEF0}, key, nil,
			core.LambdaConst([]uint64{lam}))
		return append([]float64(nil), p.Traces()[0]...)
	}
	t0, t1 := trace(0), trace(1)
	differs := false
	for i := range t0 {
		if t0[i] != t1[i] {
			differs = true
		}
	}
	if !differs {
		t.Fatal("a branch-local probe must distinguish the encodings")
	}
}

func TestRestrictNilRestoresGlobalView(t *testing.T) {
	d, r := runner(t, core.SchemeThreeInOne)
	p := Attach(r, HammingWeight)
	global := func() []float64 {
		p.BeginBatch()
		r.EncryptBatch([]uint64{42}, key, nil, core.LambdaConst([]uint64{0}))
		return append([]float64(nil), p.Traces()[0]...)
	}
	a := global()
	p.Restrict(d.BranchNets(core.BranchActual))
	p.Restrict(nil)
	b := global()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Restrict(nil) did not restore the global view")
		}
	}
}

// ParseModel resolves every wire token, defaults the empty string to the
// Hamming-distance model, and rejects junk.
func TestParseModel(t *testing.T) {
	cases := []struct {
		token string
		model Model
		ok    bool
	}{
		{"", HammingDistance, true},
		{"hd", HammingDistance, true},
		{"hamming-distance", HammingDistance, true},
		{"hw", HammingWeight, true},
		{"hamming-weight", HammingWeight, true},
		{"HD", 0, false},
		{"sasebo", 0, false},
	}
	for _, tc := range cases {
		m, ok := ParseModel(tc.token)
		if ok != tc.ok || (ok && m != tc.model) {
			t.Errorf("ParseModel(%q) = (%v, %v), want (%v, %v)",
				tc.token, m, ok, tc.model, tc.ok)
		}
		if ok && (m.String() == "") {
			t.Errorf("model %v has empty name", m)
		}
	}
}
