package sim

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/netlist"
	"repro/internal/obs"
)

// buildGateModule creates a module computing every 2-input kind of one
// input pair, for exhaustive truth-table checks.
func buildGateModule() *netlist.Module {
	m := netlist.New("gates")
	in := m.AddInput("x", 2)
	a, b := in[0], in[1]
	m.AddOutput("and", netlist.Bus{m.And(a, b)})
	m.AddOutput("or", netlist.Bus{m.Or(a, b)})
	m.AddOutput("nand", netlist.Bus{m.Nand(a, b)})
	m.AddOutput("nor", netlist.Bus{m.Nor(a, b)})
	m.AddOutput("xor", netlist.Bus{m.Xor(a, b)})
	m.AddOutput("xnor", netlist.Bus{m.Xnor(a, b)})
	m.AddOutput("inv", netlist.Bus{m.Not(a)})
	m.AddOutput("buf", netlist.Bus{m.Buf(a)})
	m.AddOutput("c0", netlist.Bus{m.Const0()})
	m.AddOutput("c1", netlist.Bus{m.Const1()})
	return m
}

func TestGateTruthTables(t *testing.T) {
	c := MustCompile(buildGateModule())
	for x := uint64(0); x < 4; x++ {
		out := EvalComb(c, map[string]uint64{"x": x})
		a, b := x&1, (x>>1)&1
		want := map[string]uint64{
			"and": a & b, "or": a | b,
			"nand": 1 &^ (a & b), "nor": 1 &^ (a | b),
			"xor": a ^ b, "xnor": 1 ^ a ^ b,
			"inv": 1 ^ a, "buf": a, "c0": 0, "c1": 1,
		}
		for name, w := range want {
			if out[name] != w {
				t.Errorf("x=%d: %s = %d, want %d", x, name, out[name], w)
			}
		}
	}
}

func TestMuxTruthTable(t *testing.T) {
	m := netlist.New("mux")
	in := m.AddInput("x", 3)
	m.AddOutput("y", netlist.Bus{m.Mux(in[0], in[1], in[2])})
	c := MustCompile(m)
	for x := uint64(0); x < 8; x++ {
		a, b, sel := x&1, (x>>1)&1, (x>>2)&1
		want := a
		if sel == 1 {
			want = b
		}
		if got := EvalComb(c, map[string]uint64{"x": x})["y"]; got != want {
			t.Errorf("mux(%d,%d,sel=%d) = %d, want %d", a, b, sel, got, want)
		}
	}
}

func TestLanesAreIndependent(t *testing.T) {
	m := netlist.New("adder1")
	in := m.AddInput("x", 2)
	m.AddOutput("s", netlist.Bus{m.Xor(in[0], in[1])})
	m.AddOutput("c", netlist.Bus{m.And(in[0], in[1])})
	s := New(m)

	vals := make([]uint64, Lanes)
	for i := range vals {
		vals[i] = uint64(i % 4)
	}
	s.SetInput("x", vals)
	s.Eval()
	sums := s.Output("s")
	carries := s.Output("c")
	for i, v := range vals {
		a, b := v&1, (v>>1)&1
		if sums[i] != a^b || carries[i] != a&b {
			t.Fatalf("lane %d: got s=%d c=%d for x=%d", i, sums[i], carries[i], v)
		}
	}
}

func TestShiftRegisterSequencing(t *testing.T) {
	// Three chained DFFs: q3 <- q2 <- q1 <- in. Declaring the cells in
	// reverse order exercises the two-phase latch.
	m := netlist.New("shift")
	in := m.AddInput("d", 1)
	q1 := m.NewNet("q1")
	q2 := m.NewNet("q2")
	q3 := m.NewNet("q3")
	m.AddCell(netlist.KindDFF, q3, q2)
	m.AddCell(netlist.KindDFF, q2, q1)
	m.AddCell(netlist.KindDFF, q1, in[0])
	m.AddOutput("q", netlist.Bus{q3})

	s := New(m)
	s.SetInputBroadcast("d", 1)
	s.Step() // q1=1
	s.SetInputBroadcast("d", 0)
	if got := s.Output("q")[0]; got != 0 {
		t.Fatalf("after 1 cycle q=%d", got)
	}
	s.Step() // q2=1
	s.Step() // q3=1
	if got := s.Output("q")[0]; got != 1 {
		t.Fatalf("bit did not shift through in 3 cycles")
	}
	s.Step()
	if got := s.Output("q")[0]; got != 0 {
		t.Fatalf("bit did not clear after passing through")
	}
}

func TestResetClearsState(t *testing.T) {
	m := netlist.New("reg")
	in := m.AddInput("d", 1)
	m.AddOutput("q", netlist.Bus{m.DFF(in[0])})
	s := New(m)
	s.SetInputBroadcast("d", 1)
	s.Step()
	if s.Output("q")[0] != 1 {
		t.Fatal("register did not latch")
	}
	s.Reset()
	if s.Output("q")[0] != 0 || s.Cycle() != 0 {
		t.Fatal("reset did not clear state")
	}
}

type flipInjector struct {
	net   netlist.Net
	cycle int
}

func (f flipInjector) Nets() []netlist.Net { return []netlist.Net{f.net} }
func (f flipInjector) Apply(c int, n netlist.Net, v uint64) uint64 {
	if c == f.cycle {
		return ^v
	}
	return v
}

func TestInjectorWindow(t *testing.T) {
	m := netlist.New("pipe")
	in := m.AddInput("d", 1)
	mid := m.Buf(in[0])
	m.AddOutput("q", netlist.Bus{m.DFF(mid)})
	s := New(m)
	s.SetInjector(flipInjector{net: mid, cycle: 1})
	s.SetInputBroadcast("d", 0)
	s.Step() // cycle 0: no fault, q=0
	if s.Output("q")[0] != 0 {
		t.Fatal("fault applied outside its window")
	}
	s.Step() // cycle 1: flip active, q latches 1
	if s.Output("q")[0] != 1 {
		t.Fatal("fault not applied in its window")
	}
	s.Step() // cycle 2: back to normal
	if s.Output("q")[0] != 0 {
		t.Fatal("fault persisted beyond its window")
	}
}

func TestCompileRejectsInvalidModule(t *testing.T) {
	m := netlist.New("bad")
	a := m.NewNet("floating")
	m.AddOutput("y", netlist.Bus{m.Not(a)})
	if _, err := Compile(m); err == nil {
		t.Fatal("expected compile error")
	}
}

func TestBusLaneProbes(t *testing.T) {
	m := netlist.New("probe")
	in := m.AddInput("x", 4)
	inv := m.NotBus(in)
	m.AddOutput("y", inv)
	s := New(m)
	f := func(x uint8) bool {
		v := uint64(x & 0xF)
		s.SetInput("x", []uint64{v, ^v & 0xF})
		s.Eval()
		return s.BusLane(inv, 0) == (^v&0xF) && s.BusLanes(inv)[1] == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSetInputUnknownPortPanics(t *testing.T) {
	m := netlist.New("t")
	in := m.AddInput("x", 1)
	m.AddOutput("y", netlist.Bus{m.Buf(in[0])})
	s := New(m)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.SetInputBroadcast("nope", 1)
}

// TestOutputIntoReusesBuffer pins the allocation contract of the campaign
// hot path: OutputInto must fill the caller's buffer and return it.
func TestOutputIntoReusesBuffer(t *testing.T) {
	m := netlist.New("buf1")
	in := m.AddInput("x", 1)
	m.AddOutput("y", netlist.Bus{m.Buf(in[0])})
	s := New(m)
	vals := make([]uint64, Lanes)
	for i := range vals {
		vals[i] = uint64(i) & 1
	}
	s.SetInput("x", vals)
	s.Eval()
	buf := make([]uint64, Lanes)
	out := s.OutputInto("y", buf)
	if &out[0] != &buf[0] {
		t.Fatal("OutputInto did not fill the provided buffer")
	}
	for i, v := range vals {
		if out[i] != v {
			t.Fatalf("lane %d: y = %d, want %d", i, out[i], v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for short buffer")
		}
	}()
	s.OutputInto("y", make([]uint64, Lanes-1))
}

// TestMetricsCountPasses checks the simulator's instruments: every Eval is
// one 64-lane pass, a fresh compilation is counted once, and no lane-width
// family is exported (the simulator has one width).
func TestMetricsCountPasses(t *testing.T) {
	reg := obs.NewRegistry()
	EnableObservability(reg)
	defer EnableObservability(nil)

	s := MustCompile(buildGateModule()).NewSimulator()
	for i := 0; i < 3; i++ {
		s.Eval()
	}
	var dump strings.Builder
	if err := reg.WritePrometheus(&dump); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"scone_sim_compiles_total 1",
		"scone_sim_evals_total 3",
		"scone_sim_lanes_total 192",
	} {
		if !strings.Contains(dump.String(), want+"\n") {
			t.Errorf("metric %q missing from:\n%s", want, dump.String())
		}
	}
	for _, gone := range []string{"lane_words", "wide_engines"} {
		if strings.Contains(dump.String(), gone) {
			t.Errorf("exposition still carries %q:\n%s", gone, dump.String())
		}
	}
}
