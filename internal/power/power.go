// Package power is a behavioural side-channel model: it samples the
// switching activity (Hamming distance of all nets between consecutive
// cycles) or the state weight (Hamming weight of all nets) of a simulated
// design, producing one power trace per simulation lane per encryption —
// the standard CMOS leakage models used in side-channel evaluation.
//
// The paper's Section IV-B-2 claims the countermeasure "does not open up
// any additional side channel vulnerability"; the leakage experiments
// built on this package (internal/experiments) assess that claim with
// Welch's t-test, and also quantify an assumption the claim rests on: the
// encoding bit λ itself is visible to a power adversary (complemented
// wires flip the weight of the whole state), so the side-channel
// protection of λ must come from a dedicated SCA countermeasure layered on
// top — either externally, as the paper presumes, or with the masked
// scheme variant (core.SchemeMaskedDup) the leakage service jobs measure.
package power

import (
	mathbits "math/bits"

	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// Model selects the leakage model.
type Model int

// Leakage models.
const (
	// HammingDistance leaks the number of nets that toggled between
	// consecutive cycles (dynamic power, the usual CMOS model).
	HammingDistance Model = iota
	// HammingWeight leaks the number of nets at logic 1 each cycle
	// (static/bus model).
	HammingWeight
)

// String names the model.
func (m Model) String() string {
	if m == HammingDistance {
		return "hamming-distance"
	}
	return "hamming-weight"
}

// ParseModel resolves a wire token ("hd", "hamming-distance", "hw",
// "hamming-weight", or "" for the HD default) to its Model.
func ParseModel(token string) (Model, bool) {
	switch token {
	case "", "hd", "hamming-distance":
		return HammingDistance, true
	case "hw", "hamming-weight":
		return HammingWeight, true
	}
	return 0, false
}

// Probe attaches to a Runner and records one sample per cycle per lane.
type Probe struct {
	r     *core.Runner
	model Model
	nets  int
	prev  []uint64
	// include restricts sampling to a subset of nets (nil = all) — a
	// localized EM probe rather than a global power measurement.
	include []bool
	// traces[lane] accumulates samples for the CURRENT batch.
	traces [][]float64
}

// Attach installs the probe on the runner's cycle hook. Only one probe can
// be attached to a runner at a time.
func Attach(r *core.Runner, model Model) *Probe {
	p := &Probe{
		r:     r,
		model: model,
		nets:  r.D.Mod.NumNets(),
		prev:  make([]uint64, r.D.Mod.NumNets()+1),
	}
	r.CycleHook = p.sample
	return p
}

// Detach removes the probe from the runner.
func (p *Probe) Detach() { p.r.CycleHook = nil }

// Restrict limits the probe to the given nets, modelling a localized EM
// probe over one part of the die (e.g. one of the two computations).
// Passing nil restores the global view.
func (p *Probe) Restrict(nets []netlist.Net) {
	if nets == nil {
		p.include = nil
		return
	}
	p.include = make([]bool, p.nets+1)
	for _, n := range nets {
		if n > 0 && int(n) <= p.nets {
			p.include[n] = true
		}
	}
}

// BeginBatch resets the per-batch trace buffers; call before each
// EncryptBatch whose traces should be captured.
func (p *Probe) BeginBatch() {
	p.traces = make([][]float64, sim.Lanes)
	for i := range p.prev {
		p.prev[i] = 0
	}
}

// Traces returns the recorded traces of the last batch: traces[lane][t] is
// the leakage sample of that lane at cycle t.
func (p *Probe) Traces() [][]float64 { return p.traces }

// sample is the cycle hook: it reduces the simulator's net values into one
// leakage sample per lane.
func (p *Probe) sample(cycle int) {
	var perLane [sim.Lanes]float64
	s := p.r.S
	for n := 1; n <= p.nets; n++ {
		if p.include != nil && !p.include[n] {
			continue
		}
		w := s.NetWord(netlist.Net(n))
		var contrib uint64
		if p.model == HammingDistance {
			contrib = w ^ p.prev[n]
			p.prev[n] = w
		} else {
			contrib = w
		}
		for contrib != 0 {
			lane := mathbits.TrailingZeros64(contrib)
			perLane[lane]++
			contrib &= contrib - 1
		}
	}
	for lane := 0; lane < sim.Lanes; lane++ {
		p.traces[lane] = append(p.traces[lane], perLane[lane])
	}
}
