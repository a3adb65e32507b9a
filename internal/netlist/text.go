package netlist

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteText serialises the module in the compact "scone netlist" text
// format. The format is line oriented:
//
//	# comment
//	module <name>
//	nets <count>
//	netname <id> <name>
//	input <portname> <id> <id> ...
//	output <portname> <id> <id> ...
//	cell <KIND> <out-id> <in-id>... [keep] [tag=<tag>]
//	endmodule
//
// Tags must not contain whitespace; the builders in this repository only
// create such tags.
func (m *Module) WriteText(w io.Writer) error {
	// bufio.Writer latches the first write error and Flush returns it,
	// so the individual writes go unchecked.
	bw := bufio.NewWriter(w)
	var scratch [20]byte
	putNet := func(n Net) {
		bw.WriteByte(' ')
		bw.Write(strconv.AppendInt(scratch[:0], int64(n), 10))
	}
	putPort := func(dir string, p *Port) {
		bw.WriteString(dir)
		bw.WriteString(p.Name)
		for _, n := range p.Bits {
			putNet(n)
		}
		bw.WriteByte('\n')
	}

	bw.WriteString("# scone netlist v1\nmodule ")
	bw.WriteString(m.Name)
	bw.WriteString("\nnets")
	putNet(Net(m.NumNets()))
	bw.WriteByte('\n')
	for n := 1; n <= m.NumNets(); n++ {
		if name := m.netNames[n]; name != "" {
			bw.WriteString("netname")
			putNet(Net(n))
			bw.WriteByte(' ')
			bw.WriteString(strings.ReplaceAll(name, " ", "_"))
			bw.WriteByte('\n')
		}
	}
	for i := range m.Inputs {
		putPort("input ", &m.Inputs[i])
	}
	for i := range m.Outputs {
		putPort("output ", &m.Outputs[i])
	}
	for ci := range m.Cells {
		c := &m.Cells[ci]
		bw.WriteString("cell ")
		bw.WriteString(c.Kind.String())
		putNet(c.Out)
		for _, in := range c.Inputs() {
			putNet(in)
		}
		if c.Keep {
			bw.WriteString(" keep")
		}
		if c.Tag != "" {
			bw.WriteString(" tag=")
			bw.WriteString(strings.ReplaceAll(c.Tag, " ", "_"))
		}
		bw.WriteByte('\n')
	}
	bw.WriteString("endmodule\n")
	return bw.Flush()
}

// ReadText parses a module previously written with WriteText. The parsed
// module must pass Validate; use ReadTextLax to load structurally broken
// netlists (for example the seeded-violation fixtures the linter's tests
// run on).
func ReadText(r io.Reader) (*Module, error) {
	return readText(r, true)
}

// ReadTextLax parses a module without requiring it to pass Validate. Net
// IDs and cell arities are still checked (the in-memory IR cannot
// represent those errors); floating nets, driven inputs, duplicate ports
// and combinational loops are allowed through so that static-analysis
// tools can diagnose them.
func ReadTextLax(r io.Reader) (*Module, error) {
	return readText(r, false)
}

func readText(r io.Reader, validate bool) (*Module, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	var m *Module
	lineNo := 0
	declaredNets := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "module":
			if len(fields) != 2 {
				return nil, fmt.Errorf("netlist: line %d: malformed module line", lineNo)
			}
			m = New(fields[1])
		case "nets":
			if m == nil {
				return nil, fmt.Errorf("netlist: line %d: nets before module", lineNo)
			}
			if len(fields) != 2 {
				return nil, fmt.Errorf("netlist: line %d: malformed nets line", lineNo)
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 0 {
				return nil, fmt.Errorf("netlist: line %d: bad net count", lineNo)
			}
			declaredNets = n
			for i := 0; i < n; i++ {
				m.NewNet("")
			}
		case "netname":
			if m == nil || len(fields) != 3 {
				return nil, fmt.Errorf("netlist: line %d: malformed netname line", lineNo)
			}
			id, err := strconv.Atoi(fields[1])
			if err != nil || id <= 0 || id > declaredNets {
				return nil, fmt.Errorf("netlist: line %d: bad net id", lineNo)
			}
			m.netNames[id] = fields[2]
		case "input", "output":
			if m == nil || len(fields) < 2 {
				return nil, fmt.Errorf("netlist: line %d: malformed port line", lineNo)
			}
			bus, err := parseNetIDs(fields[2:], declaredNets)
			if err != nil {
				return nil, fmt.Errorf("netlist: line %d: %v", lineNo, err)
			}
			port := Port{Name: fields[1], Bits: bus}
			if fields[0] == "input" {
				m.Inputs = append(m.Inputs, port)
			} else {
				m.Outputs = append(m.Outputs, port)
			}
		case "cell":
			if m == nil || len(fields) < 3 {
				return nil, fmt.Errorf("netlist: line %d: malformed cell line", lineNo)
			}
			kind, err := KindFromString(fields[1])
			if err != nil {
				return nil, fmt.Errorf("netlist: line %d: %v", lineNo, err)
			}
			rest := fields[2:]
			keep := false
			tag := ""
			for len(rest) > 0 {
				last := rest[len(rest)-1]
				if last == "keep" {
					keep = true
					rest = rest[:len(rest)-1]
				} else if strings.HasPrefix(last, "tag=") {
					tag = strings.TrimPrefix(last, "tag=")
					rest = rest[:len(rest)-1]
				} else {
					break
				}
			}
			ids, err := parseNetIDs(rest, declaredNets)
			if err != nil {
				return nil, fmt.Errorf("netlist: line %d: %v", lineNo, err)
			}
			if len(ids) != 1+kind.Arity() {
				return nil, fmt.Errorf("netlist: line %d: %s expects %d inputs, got %d",
					lineNo, kind, kind.Arity(), len(ids)-1)
			}
			if m.Driver(ids[0]) >= 0 {
				return nil, fmt.Errorf("netlist: line %d: net %d already driven", lineNo, ids[0])
			}
			c := m.AddCell(kind, ids[0], ids[1:]...)
			c.Keep = keep
			c.Tag = tag
		case "endmodule":
			if m == nil {
				return nil, fmt.Errorf("netlist: line %d: endmodule before module", lineNo)
			}
			if validate {
				if err := m.Validate(); err != nil {
					return nil, fmt.Errorf("netlist: parsed module invalid: %w", err)
				}
			}
			return m, nil
		default:
			return nil, fmt.Errorf("netlist: line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("netlist: missing endmodule")
}

func parseNetIDs(fields []string, max int) (Bus, error) {
	bus := make(Bus, 0, len(fields))
	for _, f := range fields {
		id, err := strconv.Atoi(f)
		if err != nil || id <= 0 || id > max {
			return nil, fmt.Errorf("bad net id %q", f)
		}
		bus = append(bus, Net(id))
	}
	return bus, nil
}

// WriteDOT emits a Graphviz representation of the module, useful for
// inspecting small S-box netlists.
func (m *Module) WriteDOT(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "digraph %q {\n  rankdir=LR;\n", m.Name)
	for i := range m.Inputs {
		for bi, n := range m.Inputs[i].Bits {
			fmt.Fprintf(bw, "  n%d [shape=triangle,label=\"%s[%d]\"];\n", n, m.Inputs[i].Name, bi)
		}
	}
	for ci := range m.Cells {
		c := &m.Cells[ci]
		shape := "box"
		if c.Kind.IsSequential() {
			shape = "box3d"
		}
		fmt.Fprintf(bw, "  c%d [shape=%s,label=\"%s\"];\n", ci, shape, c.Kind)
		for _, in := range c.Inputs() {
			if d := m.Driver(in); d >= 0 {
				fmt.Fprintf(bw, "  c%d -> c%d;\n", d, ci)
			} else {
				fmt.Fprintf(bw, "  n%d -> c%d;\n", in, ci)
			}
		}
	}
	for i := range m.Outputs {
		for bi, n := range m.Outputs[i].Bits {
			fmt.Fprintf(bw, "  o%d_%d [shape=invtriangle,label=\"%s[%d]\"];\n", i, bi, m.Outputs[i].Name, bi)
			if d := m.Driver(n); d >= 0 {
				fmt.Fprintf(bw, "  c%d -> o%d_%d;\n", d, i, bi)
			} else {
				fmt.Fprintf(bw, "  n%d -> o%d_%d;\n", n, i, bi)
			}
		}
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}
