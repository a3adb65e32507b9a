package present

import (
	"testing"

	"repro/internal/netlist"
	"repro/internal/sim"
	"repro/internal/spn"
	"repro/internal/synth"
)

// TestKeySchedNetMatchesSoftware compares the combinational key-schedule
// slice against the software functions for one round at a time.
func TestKeySchedNetMatchesSoftware(t *testing.T) {
	m := netlist.New("ks")
	ksBus := m.AddInput("ks", KeyBits80)
	cnt := m.AddInput("cnt", 6)
	sboxMod := SboxTruthTable().SynthesizeANF("sbox", "x", "y")
	sboxFn := func(mm *netlist.Module, inst string, in netlist.Bus) netlist.Bus {
		return mm.MustInstantiate(sboxMod, inst, map[string]netlist.Bus{"x": in})["y"]
	}
	mask, next := keySchedNet(m, ksBus, cnt, sboxFn)
	m.AddOutput("mask", mask)
	m.AddOutput("next_lo", next.Slice(0, 64))
	m.AddOutput("next_hi", next.Slice(64, 80))

	c, err := sim.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	s := c.NewSimulator()

	cases := []struct {
		ks    Key80
		round int
	}{
		{Key80{0, 0}, 1},
		{Key80{^uint64(0), 0xFFFF}, 31},
		{Key80{0x0123456789ABCDEF, 0x8421}, 7},
		{Key80{0xDEADBEEFCAFEF00D, 0x1337}, 16},
	}
	for _, tc := range cases {
		s.SetInputBroadcast("ks", 0) // clear lanes
		// Key state is wider than 64 bits: drive per-net words.
		words := make([]uint64, KeyBits80)
		for i := 0; i < KeyBits80; i++ {
			if tc.ks.Bit(i) == 1 {
				words[i] = ^uint64(0)
			}
		}
		s.SetInputWords("ks", words)
		s.SetInputBroadcast("cnt", uint64(tc.round))
		s.Eval()

		wantMask := roundKey80(tc.ks)
		if got := s.OutputLane("mask", 0); got != wantMask {
			t.Fatalf("round key for %x: %016X, want %016X", tc.ks, got, wantMask)
		}
		wantNext := nextKeyState80(tc.ks, tc.round)
		gotNext := Key80{s.OutputLane("next_lo", 0), s.OutputLane("next_hi", 0)}
		if gotNext != wantNext {
			t.Fatalf("next key state for %x round %d: %x, want %x", tc.ks, tc.round, gotNext, wantNext)
		}
	}
}

func TestRoundKeysAgainstEncrypt(t *testing.T) {
	// Applying the expanded round keys manually must equal Encrypt.
	key := NewKey80(0xBEEF, 0x0123456789ABCDEF)
	rks := RoundKeys(key)
	if len(rks) != 32 {
		t.Fatalf("expected 32 round keys, got %d", len(rks))
	}
	spec := Spec()
	state := uint64(0x5555AAAA5555AAAA)
	want := Encrypt(state, key)
	for r := 0; r < Rounds; r++ {
		state ^= rks[r]
		state = spec.SboxLayer(state)
		var out uint64
		for i, p := range Perm {
			out |= ((state >> uint(i)) & 1) << uint(p)
		}
		state = out
	}
	state ^= rks[Rounds]
	if state != want {
		t.Fatalf("manual round-key application diverges: %016X vs %016X", state, want)
	}
}

func TestKeyFromFinalState(t *testing.T) {
	key := NewKey80(0x1357, 0xFEDCBA9876543210)
	ks := spn.KeyState(key)
	for r := 1; r <= Rounds; r++ {
		ks = nextKeyState80(ks, r)
	}
	if got := KeyFromFinalState(ks); got != key {
		t.Fatalf("schedule inversion failed: %x != %x", got, key)
	}
}

func TestRecoverKeyFromK32(t *testing.T) {
	key := NewKey80(0xACE5, 0x1122334455667788)
	rks := RoundKeys(key)
	pt := uint64(0xDEAFBEEFFEEDF00D)
	ct := Encrypt(pt, key)
	got, ok := RecoverKeyFromK32(rks[Rounds], pt, ct)
	if !ok || got != key {
		t.Fatalf("RecoverKeyFromK32 failed: ok=%v got=%x", ok, got)
	}
}

func TestSboxNetlistExhaustive(t *testing.T) {
	for _, engine := range []synth.Engine{synth.EngineANF, synth.EngineBDD} {
		m := SboxTruthTable().Synthesize(engine, "s", "x", "y")
		c, err := sim.Compile(m)
		if err != nil {
			t.Fatal(err)
		}
		for x := uint64(0); x < 16; x++ {
			if got := sim.EvalComb(c, map[string]uint64{"x": x})["y"]; got != Sbox[x] {
				t.Fatalf("%v: S(%X) = %X, want %X", engine, x, got, Sbox[x])
			}
		}
	}
}
