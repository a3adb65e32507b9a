package sim

import (
	"testing"

	"repro/internal/netlist"
)

// buildWideXorTree makes a deep combinational module for throughput
// benchmarks.
func buildWideXorTree(width int) *netlist.Module {
	m := netlist.New("xortree")
	in := m.AddInput("x", width)
	m.AddOutput("y", netlist.Bus{m.XorReduce(in)})
	return m
}

func BenchmarkEval64Lanes(b *testing.B) {
	s := New(buildWideXorTree(64))
	vals := make([]uint64, Lanes)
	for i := range vals {
		vals[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	s.SetInput("x", vals)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Eval()
	}
	b.ReportMetric(float64(Lanes), "lanes/op")
}

// benchRandomEval measures raw gate-eval throughput of one combinational
// pass over a large random module, reporting gate-lanes/sec (gate
// evaluations × 64 lanes per second).
func benchRandomEval(b *testing.B, eval func(*Simulator)) {
	m := randomBenchModule(4000)
	c := MustCompile(m)
	s := c.NewSimulator()
	vals := make([]uint64, Lanes)
	for i := range vals {
		vals[i] = uint64(i)*0x9E3779B97F4A7C15 + 1
	}
	s.SetInputWords("x", vals[:8])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval(s)
	}
	gates := float64(c.NumInstructions())
	b.ReportMetric(gates, "gates/op")
	b.ReportMetric(gates*Lanes*float64(b.N)/b.Elapsed().Seconds(), "gate-lanes/sec")
}

// randomBenchModule is randomModule without the testing.T plumbing, with a
// gate-kind mix resembling synthesised cipher cores.
func randomBenchModule(cells int) *netlist.Module {
	m := netlist.New("bench")
	pool := append(netlist.Bus{}, m.AddInput("x", 8)...)
	state := uint64(0x123456789ABCDEF1)
	next := func() uint64 { state ^= state << 13; state ^= state >> 7; state ^= state << 17; return state }
	pick := func() netlist.Net { return pool[next()%uint64(len(pool))] }
	for i := 0; i < cells; i++ {
		var n netlist.Net
		switch next() % 8 {
		case 0:
			n = m.Not(pick())
		case 1, 2:
			n = m.And(pick(), pick())
		case 3:
			n = m.Or(pick(), pick())
		case 4, 5, 6:
			n = m.Xor(pick(), pick())
		default:
			n = m.Mux(pick(), pick(), pick())
		}
		pool = append(pool, n)
	}
	out := make(netlist.Bus, 8)
	for i := range out {
		out[i] = pool[len(pool)-1-i]
	}
	m.AddOutput("y", out)
	return m
}

func BenchmarkRandomEvalCompiled(b *testing.B) {
	benchRandomEval(b, (*Simulator).Eval)
}

func BenchmarkRandomEvalInterpreted(b *testing.B) {
	benchRandomEval(b, (*Simulator).EvalReference)
}

func BenchmarkSequentialStep(b *testing.B) {
	m := netlist.New("shift64")
	in := m.AddInput("d", 1)
	cur := in[0]
	for i := 0; i < 64; i++ {
		cur = m.DFF(m.Not(cur))
	}
	m.AddOutput("q", netlist.Bus{cur})
	s := New(m)
	s.SetInputBroadcast("d", 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}
