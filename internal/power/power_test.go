package power

import (
	"bytes"
	"encoding/binary"
	mathbits "math/bits"
	"testing"
	"time"

	"repro/internal/cipher/present"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/spn"
	"repro/internal/stats"
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

// perBitCounts is the reference the bit-sliced counter must match: it
// walks the set bits of every word and bumps the count of that bit's
// lane, one step per set bit.
func perBitCounts(words []uint64) (counts [sim.Lanes]uint64) {
	for _, w := range words {
		for w != 0 {
			counts[mathbits.TrailingZeros64(w)]++
			w &= w - 1
		}
	}
	return counts
}

// FuzzLaneCounter feeds a word sequence, split into two add calls at a
// fuzzed point, to the bit-sliced counter and requires the per-bit
// oracle's counts; a second pass checks take left the counter empty.
func FuzzLaneCounter(f *testing.F) {
	gen := rng.NewXoshiro(0xC0FFEE)
	words := func(n int) []byte {
		b := make([]byte, 8*n)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(b[8*i:], gen.Uint64())
		}
		return b
	}
	f.Add([]byte{}, uint(0))
	f.Add(words(1), uint(0))
	f.Add(words(7), uint(3))
	f.Add(words(9), uint(8))
	f.Add(words(21), uint(5))
	f.Add(append(words(16), 0xAB, 0xCD), uint(11))
	// A long all-ones run: every lane counts 8197, which reaches plane 13.
	f.Add(bytes.Repeat([]byte{0xFF}, 8*8197), uint(4099))
	f.Fuzz(func(t *testing.T, data []byte, split uint) {
		ws := make([]uint64, (len(data)+7)/8)
		for i := range ws {
			var b [8]byte
			copy(b[:], data[8*i:])
			ws[i] = binary.LittleEndian.Uint64(b[:])
		}
		want := perBitCounts(ws)
		k := int(split % uint(len(ws)+1))
		var c laneCounter
		var got [sim.Lanes]uint64
		c.add(ws[:k])
		c.add(ws[k:])
		c.take(&got)
		if got != want {
			t.Fatalf("split %d of %d words: counts %v, want %v", k, len(ws), got, want)
		}
		c.add(ws)
		c.take(&got)
		if got != want {
			t.Fatalf("second pass over %d words: counts %v, want %v", len(ws), got, want)
		}
	})
}

// Batches run without a BeginBatch in front — right after Attach, or a
// second batch after one BeginBatch — must each leave one
// CyclesPerRun-long trace per lane that a t-test accepts, and BeginBatch
// must not disturb the traces of a batch the caller still holds.
func TestProbeBatchWithoutBeginBatch(t *testing.T) {
	d, r := runner(t, core.SchemeUnprotected)
	for _, begin := range []bool{false, true} {
		p := Attach(r, HammingDistance)
		if begin {
			p.BeginBatch()
		}
		tt := stats.NewTTest(d.CyclesPerRun())
		for batch := 0; batch < 2; batch++ {
			r.EncryptBatch([]uint64{1, 2, 3}, key, nil, nil)
			for lane, tr := range p.Traces() {
				if len(tr) != d.CyclesPerRun() {
					t.Fatalf("begin=%v batch %d lane %d: trace length %d, want %d",
						begin, batch, lane, len(tr), d.CyclesPerRun())
				}
			}
			tt.Add(0, p.Traces()[0])
			tt.Add(1, p.Traces()[1])
		}
		kept := p.Traces()
		snapshot := append([]float64(nil), kept[0]...)
		p.BeginBatch()
		r.EncryptBatch([]uint64{0xFFFF_FFFF_FFFF_FFFF}, key, nil, nil)
		for c, v := range snapshot {
			if kept[0][c] != v {
				t.Fatalf("BeginBatch overwrote the previous batch's sample at cycle %d", c)
			}
		}
		p.Detach()
	}
}

// BenchmarkProbeSample times the probe's per-cycle reduction on the masked
// core under the Hamming-distance model, one 64-lane batch with random
// plaintexts, λ and masks per iteration;
// ns/net-cycle is the sampling time alone per sampled net per cycle.
func BenchmarkProbeSample(b *testing.B) {
	d := core.MustBuild(present.Spec(), core.Options{
		Scheme: core.SchemeMaskedDup, Entropy: core.EntropyPrime, Engine: synth.EngineANF,
	})
	r, err := core.NewRunner(d)
	if err != nil {
		b.Fatal(err)
	}
	gen := rng.NewXoshiro(0xBE7C)
	pts := make([]uint64, sim.Lanes)
	lams := make([]uint64, sim.Lanes)
	for i := range pts {
		pts[i] = gen.Uint64()
		lams[i] = gen.Bits(d.LambdaWidth)
	}
	ms := &core.MaskSet{
		StateEven: make([]uint64, sim.Lanes),
		StateOdd:  make([]uint64, sim.Lanes),
		RandEven:  make([]uint64, sim.Lanes),
		RandOdd:   make([]uint64, sim.Lanes),
		Lambda:    make([]uint64, sim.Lanes),
	}
	for i := 0; i < sim.Lanes; i++ {
		ms.StateEven[i] = gen.Bits(d.Spec.BlockBits)
		ms.StateOdd[i] = gen.Bits(d.Spec.BlockBits)
		ms.RandEven[i] = gen.Bits(d.MaskPoolWidth)
		ms.RandOdd[i] = gen.Bits(d.MaskPoolWidth)
		ms.Lambda[i] = gen.Bits(1)
	}
	r.Masks = ms
	p := Attach(r, HammingDistance)
	var sampling time.Duration
	r.CycleHook = func(cycle int) {
		start := time.Now()
		p.sample(cycle)
		sampling += time.Since(start)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.BeginBatch()
		r.EncryptBatch(pts, key, nil, core.LambdaConst(lams))
	}
	b.StopTimer()
	netCycles := float64(b.N) * float64(d.CyclesPerRun()) * float64(len(p.sampled))
	b.ReportMetric(float64(sampling.Nanoseconds())/netCycles, "ns/net-cycle")
}
