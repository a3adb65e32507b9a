package synth

import (
	"testing"
	"testing/quick"

	"repro/internal/netlist"
	"repro/internal/sim"
)

// behaviourEqual exhaustively compares two combinational modules with the
// same single input port "x" and output port "y".
func behaviourEqual(t *testing.T, a, b *netlist.Module, inputBits int) {
	t.Helper()
	ca, err := sim.Compile(a)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := sim.Compile(b)
	if err != nil {
		t.Fatal(err)
	}
	for x := uint64(0); x < 1<<uint(inputBits); x++ {
		ya := sim.EvalComb(ca, map[string]uint64{"x": x})["y"]
		yb := sim.EvalComb(cb, map[string]uint64{"x": x})["y"]
		if ya != yb {
			t.Fatalf("optimisation changed behaviour at %X: %X vs %X", x, ya, yb)
		}
	}
}

func TestOptimizePreservesBehaviour(t *testing.T) {
	tt := FromSbox(presentSbox, 4)
	for _, eng := range []Engine{EngineANF, EngineBDD} {
		m := tt.Synthesize(eng, "s", "x", "y")
		o := Optimize(m, DefaultOptOptions())
		behaviourEqual(t, m, o, 4)
		if len(o.Cells) > len(m.Cells) {
			t.Errorf("%s: optimisation grew the netlist %d -> %d", eng, len(m.Cells), len(o.Cells))
		}
	}
}

// TestOptimizeMergedTablePreservesBehaviour covers the merged (n+1)-bit
// table the three-in-one core instantiates: for both synthesis engines the
// optimised netlist must match the unoptimised one and still compute the
// table on every input.
func TestOptimizeMergedTablePreservesBehaviour(t *testing.T) {
	tt := FromSbox(presentSbox, 4).Merged()
	for _, eng := range []Engine{EngineANF, EngineBDD} {
		m := tt.Synthesize(eng, "m", "x", "y")
		o := Optimize(m, DefaultOptOptions())
		behaviourEqual(t, m, o, tt.NumInputs)
		checkAgainstTable(t, o, tt)
		if len(o.Cells) > len(m.Cells) {
			t.Errorf("%s: optimisation grew the merged netlist %d -> %d", eng, len(m.Cells), len(o.Cells))
		}
	}
}

func TestOptimizeRandomFunctionsProperty(t *testing.T) {
	f := func(raw [16]uint8) bool {
		table := make([]uint64, 16)
		for i, v := range raw {
			table[i] = uint64(v & 0xF)
		}
		tt := FromSbox(table, 4)
		m := tt.SynthesizeANF("r", "x", "y")
		o := Optimize(m, DefaultOptOptions())
		cm, err1 := sim.Compile(m)
		co, err2 := sim.Compile(o)
		if err1 != nil || err2 != nil {
			return false
		}
		for x := uint64(0); x < 16; x++ {
			if sim.EvalComb(cm, map[string]uint64{"x": x})["y"] !=
				sim.EvalComb(co, map[string]uint64{"x": x})["y"] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestConstantFolding(t *testing.T) {
	m := netlist.New("fold")
	in := m.AddInput("x", 1)
	one := m.Const1()
	zero := m.Const0()
	y := m.Or(m.And(in[0], one), m.And(in[0], zero)) // = x
	m.AddOutput("y", netlist.Bus{y})
	o := Optimize(m, DefaultOptOptions())
	// Should fold to a wire: no combinational cells at all.
	if o.NumCombinational() != 0 {
		t.Fatalf("expected full fold, got %d cells:\n%s", o.NumCombinational(), o.CollectStats())
	}
	behaviourEqual(t, m, o, 1)
}

func TestCSEMergesDuplicates(t *testing.T) {
	m := netlist.New("cse")
	in := m.AddInput("x", 2)
	a := m.And(in[0], in[1])
	b := m.And(in[1], in[0]) // commutative duplicate
	y := m.Xor(a, b)         // = 0
	m.AddOutput("y", netlist.Bus{y})
	o := Optimize(m, DefaultOptOptions())
	if o.NumCombinational() != 0 {
		t.Fatalf("expected commutative CSE + xor fold, got:\n%s", o.CollectStats())
	}
}

func TestDoubleInverterRemoval(t *testing.T) {
	m := netlist.New("dinv")
	in := m.AddInput("x", 1)
	y := m.Not(m.Not(in[0]))
	m.AddOutput("y", netlist.Bus{y})
	o := Optimize(m, DefaultOptOptions())
	if o.NumCombinational() != 0 {
		t.Fatalf("expected INV(INV(x)) removal, got:\n%s", o.CollectStats())
	}
}

func TestDCERemovesDeadLogic(t *testing.T) {
	m := netlist.New("dce")
	in := m.AddInput("x", 2)
	_ = m.And(in[0], in[1]) // dead
	dead := m.DFF(in[0])    // dead register
	_ = dead
	m.AddOutput("y", netlist.Bus{m.Buf(in[0])})
	o := Optimize(m, DefaultOptOptions())
	if len(o.Cells) != 0 { // even the buffer folds to a wire
		t.Fatalf("expected empty netlist, got:\n%s", o.CollectStats())
	}
}

func TestKeepBlocksMergingAndRemoval(t *testing.T) {
	// Two identical redundant branches; the second is marked Keep. The
	// optimiser must not merge them — this is the property that makes
	// duplication-based countermeasures survive synthesis.
	m := netlist.New("keep")
	in := m.AddInput("x", 2)
	a := m.Xor(in[0], in[1])
	bNet := m.NewNet("b")
	c := m.AddCell(netlist.KindXor2, bNet, in[0], in[1])
	c.Keep = true
	diff := m.Xor(a, bNet)
	m.AddOutput("y", netlist.Bus{diff})
	o := Optimize(m, DefaultOptOptions())
	// Without Keep, CSE folds b into a and diff into const 0; with
	// Keep, both XORs and the comparator must survive.
	keepCount := 0
	for i := range o.Cells {
		if o.Cells[i].Keep {
			keepCount++
		}
	}
	if keepCount != 1 {
		t.Fatalf("Keep cell lost: %d keep cells in\n%s", keepCount, o.CollectStats())
	}
	if o.CollectStats().ByKind[netlist.KindXor2] < 3 {
		t.Fatalf("redundant branch merged away:\n%s", o.CollectStats())
	}
	behaviourEqual(t, m, o, 2)
}

func TestKeepDFFSurvivesDCE(t *testing.T) {
	m := netlist.New("keepdff")
	in := m.AddInput("x", 1)
	qNet := m.NewNet("q")
	c := m.AddCell(netlist.KindDFF, qNet, in[0])
	c.Keep = true // dead but kept
	m.AddOutput("y", netlist.Bus{m.Buf(in[0])})
	o := Optimize(m, DefaultOptOptions())
	if o.NumDFFs() != 1 {
		t.Fatal("Keep DFF was removed by DCE")
	}
}

func TestMuxFoldings(t *testing.T) {
	m := netlist.New("mux")
	in := m.AddInput("x", 2)
	one := m.Const1()
	zero := m.Const0()
	outs := netlist.Bus{
		m.Mux(in[0], in[1], zero),  // = x0
		m.Mux(in[0], in[1], one),   // = x1
		m.Mux(zero, one, in[0]),    // = x0
		m.Mux(one, zero, in[0]),    // = !x0
		m.Mux(in[0], in[0], in[1]), // = x0
	}
	m.AddOutput("y", outs)
	o := Optimize(m, DefaultOptOptions())
	if got := o.CollectStats().ByKind[netlist.KindMux2]; got != 0 {
		t.Fatalf("expected every mux folded, %d remain", got)
	}
	behaviourEqual(t, m, o, 2)
}

func TestOptimizeSequentialPreservesBehaviour(t *testing.T) {
	// A 2-bit counter with an enable: optimisation must keep the cycle
	// behaviour identical.
	build := func() *netlist.Module {
		m := netlist.New("cnt")
		en := m.AddInput("x", 1)
		q0 := m.NewNet("q0")
		q1 := m.NewNet("q1")
		d0 := m.Xor(q0, en[0])
		d1 := m.Xor(q1, m.And(q0, en[0]))
		m.AddCell(netlist.KindDFF, q0, d0)
		m.AddCell(netlist.KindDFF, q1, d1)
		m.AddOutput("y", netlist.Bus{q0, q1})
		return m
	}
	m := build()
	o := Optimize(m, DefaultOptOptions())
	sm := sim.New(m)
	so := sim.New(o)
	sm.SetInputBroadcast("x", 1)
	so.SetInputBroadcast("x", 1)
	for cyc := 0; cyc < 7; cyc++ {
		sm.Step()
		so.Step()
		if sm.Output("y")[0] != so.Output("y")[0] {
			t.Fatalf("cycle %d: %d vs %d", cyc, sm.Output("y")[0], so.Output("y")[0])
		}
	}
}
