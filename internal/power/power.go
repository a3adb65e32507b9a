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
//
// A sample is an exact per-lane count of set bits across the sampled nets'
// 64-lane words. The probe counts all 64 lanes at once with a bit-sliced
// counter (bit lane of plane j is bit j of that lane's count) fed through
// Harley–Seal carry-save adders, so a net costs a few word operations per
// cycle rather than one step per toggled lane; the lane counts are
// extracted once per cycle.
package power

import (
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
	r      *core.Runner
	model  Model
	nets   int
	cycles int
	prev   []uint64
	// sampled lists the nets the probe reads each cycle: every net, or
	// the subset Restrict selected (a localized EM probe rather than a
	// global power measurement).
	sampled []netlist.Net
	// words holds one cycle's contribution word per sampled net.
	words []uint64
	// traces[lane][cycle] is the CURRENT batch's sample; every lane's
	// trace is a window of one flat backing array.
	traces [][]float64
}

// Attach installs the probe on the runner's cycle hook. Only one probe can
// be attached to a runner at a time.
func Attach(r *core.Runner, model Model) *Probe {
	p := &Probe{
		r:      r,
		model:  model,
		nets:   r.D.Mod.NumNets(),
		cycles: r.D.CyclesPerRun(),
		prev:   make([]uint64, r.D.Mod.NumNets()+1),
	}
	p.Restrict(nil)
	p.traces = p.newTraces()
	r.CycleHook = p.sample
	return p
}

// Detach removes the probe from the runner.
func (p *Probe) Detach() { p.r.CycleHook = nil }

// Restrict limits the probe to the given nets, modelling a localized EM
// probe over one part of the die (e.g. one of the two computations).
// Passing nil restores the global view.
func (p *Probe) Restrict(nets []netlist.Net) {
	include := make([]bool, p.nets+1)
	for _, n := range nets {
		if n > 0 && int(n) <= p.nets {
			include[n] = true
		}
	}
	p.sampled = p.sampled[:0]
	for n := 1; n <= p.nets; n++ {
		if nets == nil || include[n] {
			p.sampled = append(p.sampled, netlist.Net(n))
		}
	}
	p.words = make([]uint64, len(p.sampled))
}

// BeginBatch starts fresh per-batch trace buffers and clears the
// Hamming-distance history; call before each EncryptBatch whose traces
// should be captured. Traces returned for an earlier batch stay valid.
func (p *Probe) BeginBatch() {
	p.traces = p.newTraces()
	clear(p.prev)
}

// newTraces allocates one batch's traces over a single flat backing array.
func (p *Probe) newTraces() [][]float64 {
	flat := make([]float64, sim.Lanes*p.cycles)
	traces := make([][]float64, sim.Lanes)
	for lane := range traces {
		traces[lane] = flat[lane*p.cycles : (lane+1)*p.cycles : (lane+1)*p.cycles]
	}
	return traces
}

// Traces returns the recorded traces of the last batch: traces[lane][t] is
// the leakage sample of that lane at cycle t.
func (p *Probe) Traces() [][]float64 { return p.traces }

// sample is the cycle hook: it reduces the simulator's net values into one
// leakage sample per lane, written to column cycle of the batch's traces.
func (p *Probe) sample(cycle int) {
	s, sampled, prev := p.r.S, p.sampled, p.prev
	words := p.words[:len(sampled)]
	if p.model == HammingDistance {
		for i, n := range sampled {
			w := s.NetWord(n)
			words[i] = w ^ prev[n]
			prev[n] = w
		}
	} else {
		for i, n := range sampled {
			words[i] = s.NetWord(n)
		}
	}
	var c laneCounter
	c.add(words)
	var counts [sim.Lanes]uint64
	c.take(&counts)
	for lane, n := range counts {
		p.traces[lane][cycle] = float64(n)
	}
}

// counterPlanes bounds a lane count below 2^counterPlanes.
const counterPlanes = 32

// laneCounter counts, for each of the 64 lanes, how many of the words fed
// to it have that lane's bit set. The count is bit-sliced: bit lane of
// planes[j] is bit j of that lane's count, so one word operation advances
// all 64 counters at once. Words go in through Harley–Seal carry-save
// adders — each block of 8 words folds into the ones/twos/fours
// accumulators and only the resulting eights word ripples into the planes —
// so a word costs a few bitwise operations, not one step per set bit.
type laneCounter struct {
	ones, twos, fours uint64
	planes            [counterPlanes]uint64
}

// csa is a bitwise full adder: per bit, a+b+c = 2*carry + sum.
func csa(a, b, c uint64) (carry, sum uint64) {
	u := a ^ b
	return a&b | u&c, u ^ c
}

// add counts words into the running per-lane totals.
func (c *laneCounter) add(words []uint64) {
	ones, twos, fours := c.ones, c.twos, c.fours
	i := 0
	for ; i+8 <= len(words); i += 8 {
		w := words[i : i+8 : i+8]
		twosA, o := csa(ones, w[0], w[1])
		twosB, o := csa(o, w[2], w[3])
		foursA, t := csa(twos, twosA, twosB)
		twosA, o = csa(o, w[4], w[5])
		twosB, ones = csa(o, w[6], w[7])
		var foursB, eights uint64
		foursB, twos = csa(t, twosA, twosB)
		eights, fours = csa(fours, foursA, foursB)
		c.ripple(eights, 3)
	}
	c.ones, c.twos, c.fours = ones, twos, fours
	for _, w := range words[i:] {
		c.ripple(w, 0)
	}
}

// ripple adds x, weighted 2^j, into the planes.
func (c *laneCounter) ripple(x uint64, j int) {
	for x != 0 {
		x, c.planes[j] = c.planes[j]&x, c.planes[j]^x
		j++
	}
}

// take stores every lane's total in counts[lane] and resets the counter.
func (c *laneCounter) take(counts *[sim.Lanes]uint64) {
	c.ripple(c.ones, 0)
	c.ripple(c.twos, 1)
	c.ripple(c.fours, 2)
	top := counterPlanes
	for top > 0 && c.planes[top-1] == 0 {
		top--
	}
	for lane := range counts {
		var n uint64
		for j, plane := range c.planes[:top] {
			n |= (plane >> uint(lane) & 1) << uint(j)
		}
		counts[lane] = n
	}
	*c = laneCounter{}
}
