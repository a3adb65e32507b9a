// Package core implements the paper's contribution: the three-in-one
// randomised-duplication countermeasure (DATE 2021), together with the
// baselines it is compared against — plain (naive) duplication and the
// ACISP 2020 randomised duplication it extends.
//
// The constructions are generic over spn.Spec cipher descriptions and come
// in two forms:
//
//   - a software bit-level model (Protect / SoftwareCM), which implements
//     Algorithm 1 of the paper directly and is used by the examples and
//     property tests; and
//   - a netlist construction (Build), which emits the technology-mapped
//     gate-level designs the fault-simulation campaigns and area tables
//     operate on.
package core

import "fmt"

// Scheme selects the protection scheme.
type Scheme int

// Protection schemes, ordered by increasing capability.
const (
	// SchemeUnprotected is the bare cipher core.
	SchemeUnprotected Scheme = iota
	// SchemeNaiveDup is classic duplicate-and-compare (Figure 2 of the
	// paper): protects DFA, bypassed by identical-fault DFA, SIFA, FTA.
	SchemeNaiveDup
	// SchemeACISP is the ACISP 2020 randomised duplication: both
	// computations share one encoding bit λ. Protects DFA and SIFA,
	// bypassed by identical-fault DFA and FTA.
	SchemeACISP
	// SchemeThreeInOne is the paper's countermeasure: the actual
	// computation uses λ and the redundant one uses ¬λ, with merged
	// (n+1)-bit S-boxes. Protects DFA (including identical faults),
	// SIFA and FTA.
	SchemeThreeInOne
	// SchemeCorrect is the fault-*correction* baseline the multi-fault
	// evaluation compares the paper's detect-only schemes against:
	// majority-of-three with λ-diverse branches (λ, ¬λ, λ). Instead of
	// releasing garbage on a mismatch it releases the bitwise majority
	// of the three decoded results, so a single faulted branch — or two
	// branches hit by the *same* fault, whose λ-complementary encodings
	// turn it into complementary errors — still yields the correct
	// ciphertext. The fault output reports any disagreement, so detection
	// telemetry survives alongside correction.
	SchemeCorrect
	// SchemeMaskedDup is the three-in-one countermeasure over a
	// first-order Boolean-masked datapath: state and λ travel as share
	// pairs (share 1 is a per-encryption mask re-established every round,
	// so it never needs a register), S-boxes are domain-oriented-masking
	// AND/XOR gadget networks over the merged table, and the shares are
	// recombined only behind a last-cycle gate at the detect/output
	// boundary. Fault-detection behaviour is identical to three-in-one;
	// the masking removes the first-order power leakage the leakage job
	// kind measures.
	SchemeMaskedDup
)

// String names the scheme as used in reports.
func (s Scheme) String() string {
	switch s {
	case SchemeUnprotected:
		return "unprotected"
	case SchemeNaiveDup:
		return "naive-duplication"
	case SchemeACISP:
		return "acisp20-randomized-dup"
	case SchemeThreeInOne:
		return "three-in-one"
	case SchemeCorrect:
		return "correct-majority"
	case SchemeMaskedDup:
		return "masked-dup"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Duplicated reports whether the scheme has a redundant computation.
func (s Scheme) Duplicated() bool { return s != SchemeUnprotected }

// Randomized reports whether the scheme consumes encoding randomness λ.
func (s Scheme) Randomized() bool {
	return s == SchemeACISP || s == SchemeThreeInOne || s == SchemeCorrect || s == SchemeMaskedDup
}

// Correcting reports whether the scheme recovers from detected faults by
// majority voting instead of releasing garbage.
func (s Scheme) Correcting() bool { return s == SchemeCorrect }

// NumBranches returns 1 for the unprotected scheme, 3 for the correcting
// (majority-of-three) scheme and 2 otherwise.
func (s Scheme) NumBranches() int {
	switch {
	case s.Correcting():
		return 3
	case s.Duplicated():
		return 2
	default:
		return 1
	}
}

// Masked reports whether the scheme carries the datapath as first-order
// Boolean share pairs and consumes the mask_* ports.
func (s Scheme) Masked() bool { return s == SchemeMaskedDup }

// Entropy selects how much randomness the countermeasure consumes, the
// paper's three variations (Section III, "Additional Features", second
// amendment).
type Entropy int

// Entropy variants.
const (
	// EntropyPrime uses a single λ bit per invocation. This is the
	// variant Table II prices; it needs no λ register.
	EntropyPrime Entropy = iota
	// EntropyPerRound draws a fresh λ bit every round (e.g. 31 bits per
	// PRESENT-80 encryption).
	EntropyPerRound
	// EntropyPerSbox draws a fresh λ bit per S-box per round (e.g.
	// 31 x 16 bits per PRESENT-80 encryption).
	EntropyPerSbox
)

// String names the entropy variant.
func (e Entropy) String() string {
	switch e {
	case EntropyPrime:
		return "prime"
	case EntropyPerRound:
		return "per-round"
	case EntropyPerSbox:
		return "per-sbox"
	default:
		return fmt.Sprintf("Entropy(%d)", int(e))
	}
}

// Branch identifies one of the computations of a duplicated scheme.
type Branch int

// The computations: every duplicated scheme has an actual and a redundant
// branch; the correcting scheme adds a second redundant branch for its
// majority vote.
const (
	BranchActual     Branch = 0
	BranchRedundant  Branch = 1
	BranchRedundant2 Branch = 2
)

// String names the branch.
func (b Branch) String() string {
	switch b {
	case BranchActual:
		return "actual"
	case BranchRedundant2:
		return "redundant2"
	default:
		return "redundant"
	}
}
