package sim

import (
	"math/rand"
	"testing"

	"repro/internal/netlist"
)

// randomModule builds a pseudo-random DAG exercising every cell kind,
// including BUF chains (which the compiler collapses), constants (which it
// folds) and DFFs, with a deterministic shape per seed.
func randomModule(t *testing.T, seed int64, cells int, sequential bool) *netlist.Module {
	t.Helper()
	gen := rand.New(rand.NewSource(seed))
	m := netlist.New("rand")
	pool := append(netlist.Bus{}, m.AddInput("x", 8)...)
	pool = append(pool, m.Const0(), m.Const1())
	pick := func() netlist.Net { return pool[gen.Intn(len(pool))] }
	for i := 0; i < cells; i++ {
		var n netlist.Net
		switch k := gen.Intn(11); k {
		case 0:
			n = m.Buf(pick())
		case 1:
			n = m.Not(pick())
		case 2:
			n = m.And(pick(), pick())
		case 3:
			n = m.Or(pick(), pick())
		case 4:
			n = m.Nand(pick(), pick())
		case 5:
			n = m.Nor(pick(), pick())
		case 6:
			n = m.Xor(pick(), pick())
		case 7:
			n = m.Xnor(pick(), pick())
		case 8:
			n = m.Mux(pick(), pick(), pick())
		case 9:
			// A BUF chain: several hops the compiler must collapse.
			n = m.Buf(m.Buf(m.Buf(pick())))
		default:
			if sequential {
				n = m.DFF(pick())
			} else {
				n = m.Xor(pick(), pick())
			}
		}
		pool = append(pool, n)
	}
	out := make(netlist.Bus, 8)
	for i := range out {
		out[i] = pool[len(pool)-1-i]
	}
	m.AddOutput("y", out)
	if err := m.Validate(); err != nil {
		t.Fatalf("random module invalid: %v", err)
	}
	return m
}

// everyNetInjector faults every net of the module, forcing the full-stream
// fallback and touching every injection point at once.
type everyNetInjector struct {
	nets []netlist.Net
	mask uint64
}

func (e everyNetInjector) Nets() []netlist.Net { return e.nets }
func (e everyNetInjector) Apply(c int, n netlist.Net, v uint64) uint64 {
	return v ^ (e.mask * uint64(c%2+1) * uint64(n&7+1) & e.mask)
}

// compareAllNets checks that two simulators agree on the observable value
// of every net of the module.
func compareAllNets(t *testing.T, m *netlist.Module, got, want *Simulator, ctx string) {
	t.Helper()
	for n := netlist.Net(1); int(n) <= m.NumNets(); n++ {
		if gw, ww := got.NetWord(n), want.NetWord(n); gw != ww {
			t.Fatalf("%s: net %d (%s): compiled %#x, reference %#x", ctx, n, m.NetName(n), gw, ww)
		}
	}
}

// TestCompiledMatchesReferenceCombinational drives random combinational
// modules with random stimuli and checks the compiled fast path against the
// retained interpreter, net for net.
func TestCompiledMatchesReferenceCombinational(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		m := randomModule(t, seed, 200, false)
		c := MustCompile(m)
		fast := c.NewSimulator()
		ref := c.NewSimulator()
		gen := rand.New(rand.NewSource(seed * 101))
		for trial := 0; trial < 4; trial++ {
			words := make([]uint64, 8)
			for i := range words {
				words[i] = gen.Uint64()
			}
			fast.SetInputWords("x", words)
			ref.SetInputWords("x", words)
			fast.Eval()
			ref.EvalReference()
			compareAllNets(t, m, fast, ref, "combinational")
		}
	}
}

// TestCompiledMatchesReferenceSequential runs multi-cycle simulations of
// random sequential modules under three injector configurations: none,
// faults on ordinary gate outputs (segmented path), and faults on every net
// including collapsed BUF outputs and folded constants (full fallback).
func TestCompiledMatchesReferenceSequential(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		m := randomModule(t, seed, 150, true)
		c := MustCompile(m)

		var all []netlist.Net
		for n := netlist.Net(1); int(n) <= m.NumNets(); n++ {
			all = append(all, n)
		}
		injectors := []Injector{
			nil,
			everyNetInjector{nets: all[len(all)/2 : len(all)/2+4], mask: 0xF0F0F0F0F0F0F0F0},
			everyNetInjector{nets: all, mask: 0xDEADBEEFCAFE1234},
		}
		for ii, inj := range injectors {
			fast := c.NewSimulator()
			ref := referenceSimulator(c)
			fast.SetInjector(inj)
			ref.SetInjector(inj)
			gen := rand.New(rand.NewSource(seed * 7))
			words := make([]uint64, 8)
			for i := range words {
				words[i] = gen.Uint64()
			}
			fast.SetInputWords("x", words)
			ref.SetInputWords("x", words)
			for cyc := 0; cyc < 6; cyc++ {
				fast.Step()
				ref.stepReference()
				compareAllNets(t, m, fast, ref, "sequential")
			}
			_ = ii
		}
	}
}

// referenceSimulator returns a simulator whose values are always fully
// materialised by the reference interpreter (reads resolve literally).
func referenceSimulator(c *Compiled) *Simulator {
	s := c.NewSimulator()
	s.read = c.prog.ident
	return s
}

// stepReference is Step with EvalReference as the combinational pass — the
// pre-rewrite cycle semantics, for differential testing.
func (s *Simulator) stepReference() {
	s.EvalReference()
	p := s.c.prog
	if cap(s.dffTmp) < len(p.dffInFull) {
		s.dffTmp = make([]uint64, len(p.dffInFull))
	}
	tmp := s.dffTmp[:len(p.dffInFull)]
	for i, idx := range p.dffInFull {
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

// TestInjectorOnFoldedNets pins the fallback behaviour directly: a fault on
// a collapsed BUF output and on a folded constant must behave exactly as in
// the interpreter (the faulted value is observable on the folded net and
// propagates to its consumers).
func TestInjectorOnFoldedNets(t *testing.T) {
	m := netlist.New("folded")
	in := m.AddInput("d", 1)
	buf := m.Buf(in[0])
	c1 := m.Const1()
	m.AddOutput("viabuf", netlist.Bus{m.Buf(buf)})
	m.AddOutput("viaconst", netlist.Bus{m.And(c1, in[0])})
	s := New(m)

	s.SetInjector(flipInjector{net: buf, cycle: 0})
	s.SetInputBroadcast("d", 0)
	s.Eval()
	if got := s.OutputLane("viabuf", 0); got != 1 {
		t.Fatalf("fault on collapsed BUF output not applied: viabuf=%d", got)
	}
	if got := s.NetWord(buf); got != ^uint64(0) {
		t.Fatalf("faulted BUF net not observable: %#x", got)
	}

	s.SetInjector(flipInjector{net: c1, cycle: 0})
	s.SetInputBroadcast("d", 1)
	s.Eval()
	if got := s.OutputLane("viaconst", 0); got != 0 {
		t.Fatalf("fault on folded constant not applied: viaconst=%d", got)
	}

	// Clearing the injector restores the fast path and the folded values.
	s.SetInjector(nil)
	s.Eval()
	if got := s.OutputLane("viaconst", 0); got != 1 {
		t.Fatalf("fast path after fallback: viaconst=%d", got)
	}
	if got := s.OutputLane("viabuf", 0); got != 1 {
		t.Fatalf("fast path after fallback: viabuf=%d", got)
	}
}

// TestBufChainCollapse checks the alias table end to end: a long BUF chain
// costs zero instructions yet stays observable on every intermediate net.
func TestBufChainCollapse(t *testing.T) {
	m := netlist.New("chain")
	in := m.AddInput("d", 1)
	n := in[0]
	var chain []netlist.Net
	for i := 0; i < 10; i++ {
		n = m.Buf(n)
		chain = append(chain, n)
	}
	m.AddOutput("q", netlist.Bus{n})
	c := MustCompile(m)
	if got := c.NumInstructions(); got != 0 {
		t.Fatalf("BUF chain compiled to %d instructions, want 0", got)
	}
	s := c.NewSimulator()
	s.SetInputBroadcast("d", 1)
	s.Eval()
	for _, cn := range chain {
		if s.NetWord(cn) != ^uint64(0) {
			t.Fatalf("collapsed net %d lost its value", cn)
		}
	}
	if s.OutputLane("q", 0) != 1 {
		t.Fatal("output did not follow the collapsed chain")
	}
}

// TestConstantFolding checks folded constants survive Reset and feed gates.
func TestConstantFolding(t *testing.T) {
	m := netlist.New("consts")
	in := m.AddInput("d", 1)
	m.AddOutput("a", netlist.Bus{m.And(in[0], m.Const1())})
	m.AddOutput("o", netlist.Bus{m.Or(in[0], m.Const0())})
	m.AddOutput("q", netlist.Bus{m.DFF(m.Const1())})
	s := New(m)
	s.SetInputBroadcast("d", 1)
	s.Step()
	s.Reset()
	s.Step()
	if got := s.OutputLane("q", 0); got != 1 {
		t.Fatalf("constant lost after Reset: q=%d", got)
	}
	s.Eval()
	if s.OutputLane("a", 0) != 1 || s.OutputLane("o", 0) != 1 {
		t.Fatal("folded constants did not feed gates")
	}
}

// TestRunScheduleIsTopological validates the (level, opcode) schedule on
// random modules: every instruction's operands must be produced (or be
// primary inputs / DFF outputs / constants) before it executes.
func TestRunScheduleIsTopological(t *testing.T) {
	for seed := int64(30); seed < 36; seed++ {
		m := randomModule(t, seed, 300, true)
		c := MustCompile(m)
		p := c.prog
		produced := make([]bool, m.NumNets()+1)
		isInstrOut := make([]bool, m.NumNets()+1)
		for _, o := range p.rOut {
			isInstrOut[o] = true
		}
		for i := range p.rOut {
			ins := []int32{p.rIn0[i], p.rIn1[i]}
			if op := instrOp(p, i); op == uint8(netlist.KindMux2) {
				ins = append(ins, p.rIn2[i])
			}
			for _, in := range ins[:arityOf(p, i)] {
				if isInstrOut[in] && !produced[in] {
					t.Fatalf("seed %d: instruction %d reads slot %d before it is produced", seed, i, in)
				}
			}
			produced[p.rOut[i]] = true
		}
	}
}

func instrOp(p *program, i int) uint8 {
	for _, r := range p.runs {
		if int32(i) >= r.lo && int32(i) < r.hi {
			return r.op
		}
	}
	return 0
}

func arityOf(p *program, i int) int {
	return netlist.CellKind(instrOp(p, i)).Arity()
}
