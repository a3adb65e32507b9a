package sim

import (
	"sort"
	"sync"

	"repro/internal/netlist"
)

// program is the compiled instruction-stream form of a module's
// combinational logic: struct-of-arrays operand storage (contiguous in0 /
// in1 / in2 / out slices) plus a run table. Lowering folds constants (their
// values are written once at simulator construction), collapses BUF chains
// into an alias table, and schedules the remaining gates by (logic level,
// opcode): gates on the same level are mutually independent, so a stable
// sort inside each level groups same-opcode gates into long homogeneous
// runs. Evaluation then dispatches once per run instead of once per gate,
// and each run executes a tight loop specialised for its opcode — this is
// where the speedup over the per-cell interpreter comes from.
//
// A second, unfolded stream (aOp/aIn*/aOut, strict levelization order)
// mirrors every cell of the module; it is the fallback used when a fault
// injector targets a net the fast stream does not materialise (a collapsed
// BUF output or a folded constant), and it reproduces the per-cell
// injection semantics of the reference interpreter exactly.
type program struct {
	nets int // number of module nets; slots 1..nets hold net values

	// alias[n] is the slot consumers read for net n when no fault forces
	// full materialisation: BUF outputs alias their transitive source.
	alias []int32
	// ident is the identity slot map, used while the full stream runs.
	ident []int32
	// folded[n] reports that the fast stream does not recompute net n each
	// Eval (collapsed BUF outputs and folded constants).
	folded []bool

	// Constant cells, applied once at simulator construction.
	constNets []int32
	constVals []uint64

	// Fast stream: run-scheduled instructions. rIn2 is only meaningful for
	// MUX2 instructions (the select operand).
	rIn0, rIn1, rIn2, rOut []int32
	runs                   []opRun

	// Full stream (every cell, original opcodes, levelization order).
	aOp              []uint8
	aIn0, aIn1, aIn2 []int32
	aOut             []int32

	// Sequential cells: Q nets and D inputs (alias-resolved for the fast
	// and segmented paths, literal for the full path).
	dffOut    []int32
	dffInFast []int32
	dffInFull []int32
}

// opRun is one homogeneous span [lo, hi) of the fast stream.
type opRun struct {
	op     uint8
	lo, hi int32
}

// lower builds the program for a validated, levelized module.
func lower(m *netlist.Module, order, dffs []int) *program {
	nets := m.NumNets()
	p := &program{nets: nets}
	p.alias = make([]int32, nets+1)
	p.ident = make([]int32, nets+1)
	p.folded = make([]bool, nets+1)
	for i := range p.alias {
		p.alias[i] = int32(i)
		p.ident[i] = int32(i)
	}

	// First pass, in levelization order: fold constants, collapse BUF
	// chains, compute logic levels, and collect the surviving gates.
	type inst struct {
		op            uint8
		in0, in1, in2 int32
		out           int32
		level, seq    int
	}
	level := make([]int, nets+1)
	insts := make([]inst, 0, len(order))
	for _, ci := range order {
		c := &m.Cells[ci]
		out := int32(c.Out)
		lv := 0
		for _, in := range c.Inputs() {
			if level[in] > lv {
				lv = level[in]
			}
		}
		switch c.Kind {
		case netlist.KindConst0:
			p.constNets = append(p.constNets, out)
			p.constVals = append(p.constVals, 0)
			p.folded[out] = true
			level[out] = 0
		case netlist.KindConst1:
			p.constNets = append(p.constNets, out)
			p.constVals = append(p.constVals, ^uint64(0))
			p.folded[out] = true
			level[out] = 0
		case netlist.KindBuf:
			p.alias[out] = p.alias[c.In[0]]
			p.folded[out] = true
			level[out] = level[c.In[0]]
		default:
			lv++
			level[out] = lv
			insts = append(insts, inst{
				op:  uint8(c.Kind),
				in0: p.alias[c.In[0]], in1: p.alias[c.In[1]], in2: p.alias[c.In[2]],
				out: out, level: lv, seq: len(insts),
			})
		}
	}

	// Schedule: stable (level, opcode) sort. Gates sharing a level are
	// independent, so grouping them by opcode is a legal topological order
	// and maximises run length.
	sort.Slice(insts, func(a, b int) bool {
		ia, ib := &insts[a], &insts[b]
		if ia.level != ib.level {
			return ia.level < ib.level
		}
		if ia.op != ib.op {
			return ia.op < ib.op
		}
		return ia.seq < ib.seq
	})
	for i := range insts {
		in := &insts[i]
		if len(p.runs) == 0 || p.runs[len(p.runs)-1].op != in.op {
			p.runs = append(p.runs, opRun{op: in.op, lo: int32(i), hi: int32(i)})
		}
		p.runs[len(p.runs)-1].hi = int32(i + 1)
		p.rIn0 = append(p.rIn0, in.in0)
		p.rIn1 = append(p.rIn1, in.in1)
		p.rIn2 = append(p.rIn2, in.in2)
		p.rOut = append(p.rOut, in.out)
	}

	// Full stream: every combinational cell with its original opcode.
	p.aOp = make([]uint8, 0, len(order))
	for _, ci := range order {
		c := &m.Cells[ci]
		p.aOp = append(p.aOp, uint8(c.Kind))
		p.aIn0 = append(p.aIn0, int32(c.In[0]))
		p.aIn1 = append(p.aIn1, int32(c.In[1]))
		p.aIn2 = append(p.aIn2, int32(c.In[2]))
		p.aOut = append(p.aOut, int32(c.Out))
	}

	for _, ci := range dffs {
		c := &m.Cells[ci]
		p.dffOut = append(p.dffOut, int32(c.Out))
		p.dffInFull = append(p.dffInFull, int32(c.In[0]))
		p.dffInFast = append(p.dffInFast, p.alias[c.In[0]])
	}
	return p
}

// evalRange executes fast-stream instructions [lo, hi) against the value
// slots: one opcode dispatch per run, then a tight specialised loop.
func (p *program) evalRange(v []uint64, lo, hi int) {
	for _, r := range p.runs {
		if int(r.lo) >= hi {
			return
		}
		a, b := int(r.lo), int(r.hi)
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if a >= b {
			continue
		}
		in0 := p.rIn0[a:b]
		in1 := p.rIn1[a:b]
		out := p.rOut[a:b]
		switch netlist.CellKind(r.op) {
		case netlist.KindInv:
			for i, o := range out {
				v[o] = ^v[in0[i]]
			}
		case netlist.KindAnd2:
			for i, o := range out {
				v[o] = v[in0[i]] & v[in1[i]]
			}
		case netlist.KindOr2:
			for i, o := range out {
				v[o] = v[in0[i]] | v[in1[i]]
			}
		case netlist.KindNand2:
			for i, o := range out {
				v[o] = ^(v[in0[i]] & v[in1[i]])
			}
		case netlist.KindNor2:
			for i, o := range out {
				v[o] = ^(v[in0[i]] | v[in1[i]])
			}
		case netlist.KindXor2:
			for i, o := range out {
				v[o] = v[in0[i]] ^ v[in1[i]]
			}
		case netlist.KindXnor2:
			for i, o := range out {
				v[o] = ^(v[in0[i]] ^ v[in1[i]])
			}
		case netlist.KindMux2:
			in2 := p.rIn2[a:b]
			for i, o := range out {
				sel := v[in2[i]]
				v[o] = (v[in0[i]] &^ sel) | (v[in1[i]] & sel)
			}
		}
	}
}

// NumInstructions returns the fast-stream instruction count — the number of
// gate evaluations one Eval performs (folded constants and collapsed BUFs
// excluded). Benchmarks use it to report gate-lane throughput.
func (c *Compiled) NumInstructions() int { return len(c.prog.rOut) }

// compileCache memoises Compile results process-wide, keyed by module
// pointer identity. Campaigns, the experiments package and the command-line
// tools all funnel the same built designs through Compile; the cache makes
// re-levelizing and re-lowering them free. Modules must not be structurally
// modified after their first compilation (annotation-only updates such as
// SetTag are safe).
var compileCache sync.Map // *netlist.Module -> *Compiled

// CompileCached is Compile with process-wide memoisation on the module
// pointer. Errors are not cached.
func CompileCached(m *netlist.Module) (*Compiled, error) {
	if c, ok := compileCache.Load(m); ok {
		countCacheHit()
		return c.(*Compiled), nil
	}
	countCacheMiss()
	c, err := Compile(m)
	if err != nil {
		return nil, err
	}
	actual, _ := compileCache.LoadOrStore(m, c)
	return actual.(*Compiled), nil
}
