// Package sim provides a levelized, 64-lane bit-parallel gate-level
// simulator for netlist.Module designs.
//
// Every net carries a 64-bit word in which bit L is the logic value seen by
// simulation lane L, so one pass over the netlist evaluates 64 independent
// stimulus patterns. This is the property that makes the 80,000-run fault
// campaigns of the paper cheap: a campaign batches runs 64 at a time.
//
// Compile lowers the levelized netlist into a compiled instruction stream
// (struct-of-arrays program storage with constants folded and BUF chains
// collapsed) that Eval executes with one of three specialised loops: a
// branchless fast path when no injector is installed, a segmented path that
// only pauses at nets pre-marked by Injector.Nets(), and a full-fidelity
// fallback when a fault targets a folded net. EvalReference retains the
// original per-cell interpreter for differential testing and benchmarking.
//
// Sequential designs are simulated cycle by cycle: Step evaluates the
// combinational logic with the current register state, then clocks every
// DFF. Fault injection is provided through the Injector interface; the
// fault package implements it.
package sim

import (
	"fmt"

	"repro/internal/netlist"
)

// Lanes is the number of parallel simulation lanes in one pass. It is also
// the campaign batch size, which stored content addresses are keyed on.
const Lanes = 64

// Injector mutates net values during simulation. Apply is called for every
// net listed by Nets() immediately after the net's value is computed (gate
// output, register output at clocking time, or primary input at load time).
// Apply must be a pure function of (cycle, net, value): the compiled
// evaluator schedules independent gates for throughput, so the relative
// order of Apply calls across different nets within one cycle is
// unspecified.
type Injector interface {
	// Nets returns the set of nets the injector wants to observe; the
	// simulator only calls Apply for these.
	Nets() []netlist.Net
	// Apply returns the (possibly faulted) value of net n in cycle c,
	// given the fault-free lane word v.
	Apply(c int, n netlist.Net, v uint64) uint64
}

// evalMode selects which compiled loop Eval runs.
type evalMode uint8

const (
	// evalFast: no injector; run the branchless fast stream end to end.
	evalFast evalMode = iota
	// evalSegment: an injector is installed and every faulted net is
	// materialised by the fast stream; run it in segments, applying the
	// injector at each pre-marked instruction boundary.
	evalSegment
	// evalFull: a fault targets a folded net (collapsed BUF output or
	// constant); run the full per-cell stream with the reference
	// injection semantics.
	evalFull
)

// Simulator executes one Module. It is not safe for concurrent use; create
// one Simulator per goroutine (construction is cheap after the first
// compilation, which is cached in the module wrapper Compiled).
type Simulator struct {
	mod    *netlist.Module
	c      *Compiled
	values []uint64
	dffTmp []uint64
	cycle  int

	mode evalMode
	// read maps a net to the value slot holding its current logic value:
	// the alias table in fast/segmented mode (collapsed nets resolve to
	// their source), the identity table in full mode.
	read []int32
	// segs lists fast-stream instruction indices whose output net is
	// fault-marked, in topological order (segmented mode only).
	segs []int32

	hasFault []bool
	injector Injector
}

// Compiled caches the levelization and the lowered instruction stream of a
// module so many Simulators can be created without re-sorting.
type Compiled struct {
	Mod   *netlist.Module
	order []int
	dffs  []int
	prog  *program
}

// Compile levelizes the module once and lowers it to the instruction-stream
// program. It returns an error if the module has combinational cycles or
// fails validation.
func Compile(m *netlist.Module) (*Compiled, error) {
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("sim: module %q invalid: %w", m.Name, err)
	}
	order, err := m.Levelize()
	if err != nil {
		return nil, err
	}
	var dffs []int
	for ci := range m.Cells {
		if m.Cells[ci].Kind.IsSequential() {
			dffs = append(dffs, ci)
		}
	}
	p := lower(m, order, dffs)
	countCompile(p)
	return &Compiled{Mod: m, order: order, dffs: dffs, prog: p}, nil
}

// MustCompile is Compile that panics on error.
func MustCompile(m *netlist.Module) *Compiled {
	c, err := Compile(m)
	if err != nil {
		panic(err)
	}
	return c
}

// NewSimulator creates a simulator over the compiled module with all state
// and inputs initialised to zero (and folded constants pre-loaded).
func (c *Compiled) NewSimulator() *Simulator {
	s := &Simulator{
		mod:    c.Mod,
		c:      c,
		values: make([]uint64, c.prog.nets+1),
		mode:   evalFast,
		read:   c.prog.alias,
	}
	for i, n := range c.prog.constNets {
		s.values[n] = c.prog.constVals[i]
	}
	return s
}

// New compiles m and returns a simulator; it panics if the module is
// invalid. Prefer Compile + NewSimulator when creating many simulators.
func New(m *netlist.Module) *Simulator {
	return MustCompile(m).NewSimulator()
}

// Module returns the simulated module.
func (s *Simulator) Module() *netlist.Module { return s.mod }

// Cycle returns the index of the next cycle Step will execute.
func (s *Simulator) Cycle() int { return s.cycle }

// SetInjector installs (or clears, with nil) the fault injector and selects
// the matching evaluation path: segmented when every faulted net is
// materialised by the fast stream, full-fidelity otherwise.
func (s *Simulator) SetInjector(inj Injector) {
	s.injector = inj
	p := s.c.prog
	// A previous full-fidelity run may have left faulted values on folded
	// constants; restore them before picking the new path.
	for i, n := range p.constNets {
		s.values[n] = p.constVals[i]
	}
	if inj == nil {
		s.hasFault = nil
		s.segs = nil
		s.mode = evalFast
		s.read = p.alias
		return
	}
	s.hasFault = make([]bool, s.mod.NumNets()+1)
	fallback := false
	for _, n := range inj.Nets() {
		if n > 0 && int(n) <= s.mod.NumNets() {
			s.hasFault[n] = true
			if p.folded[n] {
				fallback = true
			}
		}
	}
	if fallback {
		s.segs = nil
		s.mode = evalFull
		s.read = p.ident
		return
	}
	s.segs = s.segs[:0]
	for i, o := range p.rOut {
		if s.hasFault[o] {
			s.segs = append(s.segs, int32(i))
		}
	}
	s.mode = evalSegment
	s.read = p.alias
}

// Reset zeroes all register state and the cycle counter. Input values are
// retained.
func (s *Simulator) Reset() {
	s.cycle = 0
	for _, o := range s.c.prog.dffOut {
		s.values[o] = 0
	}
}

// SetInput loads a primary-input port. vals[L] supplies the port value for
// lane L (bit i of vals[L] drives bit i of the bus in lane L); missing lanes
// default to zero. It panics if the port does not exist or len(vals) exceeds
// Lanes.
func (s *Simulator) SetInput(port string, vals []uint64) {
	p := s.mod.FindInput(port)
	if p == nil {
		panic(fmt.Sprintf("sim: module %q has no input %q", s.mod.Name, port))
	}
	if len(vals) > Lanes {
		panic(fmt.Sprintf("sim: %d lane values exceed %d lanes", len(vals), Lanes))
	}
	for bi, n := range p.Bits {
		var w uint64
		for lane, v := range vals {
			w |= ((v >> uint(bi)) & 1) << uint(lane)
		}
		s.values[n] = s.applyFault(n, w)
	}
}

// SetInputBroadcast loads the same value into every lane of the port.
func (s *Simulator) SetInputBroadcast(port string, val uint64) {
	p := s.mod.FindInput(port)
	if p == nil {
		panic(fmt.Sprintf("sim: module %q has no input %q", s.mod.Name, port))
	}
	for bi, n := range p.Bits {
		var w uint64
		if (val>>uint(bi))&1 == 1 {
			w = ^uint64(0)
		}
		s.values[n] = s.applyFault(n, w)
	}
}

// SetInputWords loads pre-transposed lane words: words[bi] is the lane
// word for bit bi of the port.
func (s *Simulator) SetInputWords(port string, words []uint64) {
	p := s.mod.FindInput(port)
	if p == nil {
		panic(fmt.Sprintf("sim: module %q has no input %q", s.mod.Name, port))
	}
	if len(words) != p.Width() {
		panic(fmt.Sprintf("sim: port %q width %d, got %d words", port, p.Width(), len(words)))
	}
	for bi, n := range p.Bits {
		s.values[n] = s.applyFault(n, words[bi])
	}
}

func (s *Simulator) applyFault(n netlist.Net, v uint64) uint64 {
	if s.hasFault != nil && s.hasFault[n] {
		return s.injector.Apply(s.cycle, n, v)
	}
	return v
}

// Eval evaluates all combinational logic with the current inputs and
// register state, without advancing the clock. For purely combinational
// modules this is a complete simulation pass.
func (s *Simulator) Eval() {
	countEval()
	switch s.mode {
	case evalFast:
		p := s.c.prog
		p.evalRange(s.values, 0, len(p.rOut))
	case evalSegment:
		s.evalSegmented()
	default:
		s.evalFull()
	}
}

// evalSegmented runs the fast stream in segments, applying the injector at
// each instruction whose output net is fault-marked — the same per-net
// injection points, in the same topological order, as the reference
// interpreter.
func (s *Simulator) evalSegmented() {
	p := s.c.prog
	v := s.values
	lo := 0
	for _, si := range s.segs {
		p.evalRange(v, lo, int(si)+1)
		o := p.rOut[si]
		v[o] = s.injector.Apply(s.cycle, netlist.Net(o), v[o])
		lo = int(si) + 1
	}
	p.evalRange(v, lo, len(p.rOut))
}

// evalFull executes the unfolded per-cell stream with injection checks on
// every output — bit-for-bit the reference interpreter semantics, used when
// a fault targets a net the fast stream folds away.
func (s *Simulator) evalFull() {
	p := s.c.prog
	v := s.values
	for i := range p.aOp {
		var out uint64
		switch netlist.CellKind(p.aOp[i]) {
		case netlist.KindConst0:
			out = 0
		case netlist.KindConst1:
			out = ^uint64(0)
		case netlist.KindBuf:
			out = v[p.aIn0[i]]
		case netlist.KindInv:
			out = ^v[p.aIn0[i]]
		case netlist.KindAnd2:
			out = v[p.aIn0[i]] & v[p.aIn1[i]]
		case netlist.KindOr2:
			out = v[p.aIn0[i]] | v[p.aIn1[i]]
		case netlist.KindNand2:
			out = ^(v[p.aIn0[i]] & v[p.aIn1[i]])
		case netlist.KindNor2:
			out = ^(v[p.aIn0[i]] | v[p.aIn1[i]])
		case netlist.KindXor2:
			out = v[p.aIn0[i]] ^ v[p.aIn1[i]]
		case netlist.KindXnor2:
			out = ^(v[p.aIn0[i]] ^ v[p.aIn1[i]])
		case netlist.KindMux2:
			sel := v[p.aIn2[i]]
			out = (v[p.aIn0[i]] &^ sel) | (v[p.aIn1[i]] & sel)
		default:
			panic(fmt.Sprintf("sim: unexpected cell kind %s in combinational order", netlist.CellKind(p.aOp[i])))
		}
		o := p.aOut[i]
		if s.hasFault[o] {
			out = s.injector.Apply(s.cycle, netlist.Net(o), out)
		}
		v[o] = out
	}
}

// EvalReference is the original interpreted evaluator: a per-cell switch
// over the levelized netlist, with injection checks on every cell output.
// It computes exactly what Eval computes (materialising every net at its
// own slot) and exists as the differential-testing and benchmarking
// baseline for the compiled instruction stream.
func (s *Simulator) EvalReference() {
	v := s.values
	cells := s.mod.Cells
	faulted := s.hasFault != nil
	for _, ci := range s.c.order {
		c := &cells[ci]
		var out uint64
		switch c.Kind {
		case netlist.KindConst0:
			out = 0
		case netlist.KindConst1:
			out = ^uint64(0)
		case netlist.KindBuf:
			out = v[c.In[0]]
		case netlist.KindInv:
			out = ^v[c.In[0]]
		case netlist.KindAnd2:
			out = v[c.In[0]] & v[c.In[1]]
		case netlist.KindOr2:
			out = v[c.In[0]] | v[c.In[1]]
		case netlist.KindNand2:
			out = ^(v[c.In[0]] & v[c.In[1]])
		case netlist.KindNor2:
			out = ^(v[c.In[0]] | v[c.In[1]])
		case netlist.KindXor2:
			out = v[c.In[0]] ^ v[c.In[1]]
		case netlist.KindXnor2:
			out = ^(v[c.In[0]] ^ v[c.In[1]])
		case netlist.KindMux2:
			sel := v[c.In[2]]
			out = (v[c.In[0]] &^ sel) | (v[c.In[1]] & sel)
		default:
			panic(fmt.Sprintf("sim: unexpected cell kind %s in combinational order", c.Kind))
		}
		if faulted && s.hasFault[c.Out] {
			out = s.injector.Apply(s.cycle, c.Out, out)
		}
		v[c.Out] = out
	}
}

// Step runs one clock cycle: combinational evaluation followed by clocking
// every DFF (Q <- D), then advances the cycle counter.
func (s *Simulator) Step() {
	s.Eval()
	// Two-phase latch so chained DFFs shift correctly regardless of
	// Cells order: capture all D values first, then commit.
	p := s.c.prog
	din := p.dffInFast
	if s.mode == evalFull {
		din = p.dffInFull
	}
	if cap(s.dffTmp) < len(din) {
		s.dffTmp = make([]uint64, len(din))
	}
	tmp := s.dffTmp[:len(din)]
	for i, idx := range din {
		tmp[i] = s.values[idx]
	}
	for i, o := range p.dffOut {
		out := tmp[i]
		if s.hasFault != nil && s.hasFault[o] {
			out = s.injector.Apply(s.cycle, netlist.Net(o), out)
		}
		s.values[o] = out
	}
	s.cycle++
}

// Run executes n clock cycles.
func (s *Simulator) Run(n int) {
	for i := 0; i < n; i++ {
		s.Step()
	}
}

// Output reads a primary-output port, returning one value per lane.
func (s *Simulator) Output(port string) []uint64 {
	return s.OutputInto(port, make([]uint64, Lanes))
}

// OutputInto reads a primary-output port into the caller's buffer, which
// must hold Lanes values; it returns out for convenience. Campaign workers
// use it to keep the read-out allocation-free.
func (s *Simulator) OutputInto(port string, out []uint64) []uint64 {
	p := s.mod.FindOutput(port)
	if p == nil {
		panic(fmt.Sprintf("sim: module %q has no output %q", s.mod.Name, port))
	}
	if len(out) < Lanes {
		panic(fmt.Sprintf("sim: output buffer holds %d of %d lanes", len(out), Lanes))
	}
	out = out[:Lanes]
	for i := range out {
		out[i] = 0
	}
	for bi, n := range p.Bits {
		w := s.values[s.read[n]]
		for lane := range out {
			out[lane] |= ((w >> uint(lane)) & 1) << uint(bi)
		}
	}
	return out
}

// OutputLane reads a single lane of a primary-output port.
func (s *Simulator) OutputLane(port string, lane int) uint64 {
	p := s.mod.FindOutput(port)
	if p == nil {
		panic(fmt.Sprintf("sim: module %q has no output %q", s.mod.Name, port))
	}
	var out uint64
	for bi, n := range p.Bits {
		out |= ((s.values[s.read[n]] >> uint(lane)) & 1) << uint(bi)
	}
	return out
}

// NetWord returns the raw 64-lane word currently on net n.
func (s *Simulator) NetWord(n netlist.Net) uint64 { return s.values[s.read[n]] }

// BusLane reads the value of an arbitrary bus in one lane; useful for
// probing internal state (e.g. the S-box input a SIFA histogram bins on).
func (s *Simulator) BusLane(bus netlist.Bus, lane int) uint64 {
	var out uint64
	for bi, n := range bus {
		out |= ((s.values[s.read[n]] >> uint(lane)) & 1) << uint(bi)
	}
	return out
}

// BusLanes reads an arbitrary bus across all lanes.
func (s *Simulator) BusLanes(bus netlist.Bus) []uint64 {
	out := make([]uint64, Lanes)
	for bi, n := range bus {
		w := s.values[s.read[n]]
		for lane := 0; lane < Lanes; lane++ {
			out[lane] |= ((w >> uint(lane)) & 1) << uint(bi)
		}
	}
	return out
}

// EvalComb is a convenience for purely combinational modules: it loads the
// given input ports (broadcast across lanes from the single-lane values),
// evaluates, and returns the single-lane value of every output port.
func EvalComb(c *Compiled, inputs map[string]uint64) map[string]uint64 {
	s := c.NewSimulator()
	for name, val := range inputs {
		s.SetInputBroadcast(name, val)
	}
	s.Eval()
	out := make(map[string]uint64, len(c.Mod.Outputs))
	for i := range c.Mod.Outputs {
		out[c.Mod.Outputs[i].Name] = s.OutputLane(c.Mod.Outputs[i].Name, 0)
	}
	return out
}
