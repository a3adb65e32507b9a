package netlist_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/cipher/present"
	"repro/internal/core"
	"repro/internal/synth"
)

// TestWriteTextGolden pins WriteText byte for byte on the synthesised
// cores. The text is what the result store hashes into a campaign's
// content address, so these digests must not move: a changed byte would
// orphan every stored batch.
func TestWriteTextGolden(t *testing.T) {
	golden := []struct {
		name    string
		scheme  core.Scheme
		entropy core.Entropy
		sha256  string
	}{
		{"three-in-one/prime", core.SchemeThreeInOne, core.EntropyPrime, "d325e47c2158d37d10d4834ca02a3b5c7a7326125563c48b3c91d8233c236971"},
		{"three-in-one/per-round", core.SchemeThreeInOne, core.EntropyPerRound, "e96d9f707bcf64b657714d7835c9267572c93d7fb11f2213025ce304d659b3a2"},
		{"three-in-one/per-sbox", core.SchemeThreeInOne, core.EntropyPerSbox, "31fbfc38822e77e86a933f7c5e4326e79fe8ddcad52df81b173f2475662d1e5f"},
		{"masked/prime", core.SchemeMaskedDup, core.EntropyPrime, "440a1fc87d07f688159e628c0b9f108d6108a4486f804bbba0ffe0d5b785afcf"},
	}
	for _, g := range golden {
		d, err := core.Build(present.Spec(), core.Options{Scheme: g.scheme, Entropy: g.entropy, Engine: synth.EngineANF})
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		if err := d.Mod.WriteText(h); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != g.sha256 {
			t.Errorf("present80 %s: WriteText SHA-256 = %s, want %s", g.name, got, g.sha256)
		}
	}
}
