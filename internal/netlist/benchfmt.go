package netlist

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
	"unicode/utf8"
)

// TechMap translates between generic ISCAS85 ".bench" Boolean operators and
// library cell names.
type TechMap struct {
	// OpToCell maps a bench operator (upper case) and its fanin count to a
	// library cell name.
	OpToCell func(op string, arity int) (string, error)
	// CellToOp maps a library cell name to a bench operator.
	CellToOp func(cellType string) (string, error)
}

// multiInputCells holds the X1 cell names of the 2-, 3- and 4-input
// NAND/NOR/AND/OR gates, indexed by arity − 2.
var multiInputCells = map[string][3]string{
	"NAND": {"NAND2_X1", "NAND3_X1", "NAND4_X1"},
	"NOR":  {"NOR2_X1", "NOR3_X1", "NOR4_X1"},
	"AND":  {"AND2_X1", "AND3_X1", "AND4_X1"},
	"OR":   {"OR2_X1", "OR3_X1", "OR4_X1"},
}

// DefaultTechMap maps bench operators to the X1 cells of the built-in
// library and back (cell names are of the form OP<arity>_X<drive>).
func DefaultTechMap() TechMap {
	return TechMap{
		OpToCell: func(op string, arity int) (string, error) {
			switch op {
			case "NOT", "INV":
				return "INV_X1", nil
			case "BUF", "BUFF":
				return "BUF_X1", nil
			case "NAND", "NOR", "AND", "OR":
				if arity < 2 || arity > 4 {
					return "", fmt.Errorf("netlist: no %d-input %s cell", arity, op)
				}
				return multiInputCells[op][arity-2], nil
			case "XOR":
				switch arity {
				case 2:
					return "XOR2_X1", nil
				case 3:
					return "XOR3_X1", nil
				}
				return "", fmt.Errorf("netlist: no %d-input XOR cell", arity)
			case "XNOR":
				if arity != 2 {
					return "", fmt.Errorf("netlist: no %d-input XNOR cell", arity)
				}
				return "XNOR2_X1", nil
			case "DFF":
				return "DFF_X1", nil
			default:
				return "", fmt.Errorf("netlist: unknown bench operator %q", op)
			}
		},
		CellToOp: func(cellType string) (string, error) {
			base := cellType
			if i := strings.Index(base, "_"); i >= 0 {
				base = base[:i]
			}
			switch {
			case strings.HasPrefix(base, "INV"):
				return "NOT", nil
			case strings.HasPrefix(base, "BUF"):
				return "BUFF", nil
			case strings.HasPrefix(base, "NAND"):
				return "NAND", nil
			case strings.HasPrefix(base, "NOR") && !strings.HasPrefix(base, "NOR2B"):
				return "NOR", nil
			case strings.HasPrefix(base, "AND"):
				return "AND", nil
			case strings.HasPrefix(base, "OR"):
				return "OR", nil
			case strings.HasPrefix(base, "XNOR"):
				return "XNOR", nil
			case strings.HasPrefix(base, "XOR"):
				return "XOR", nil
			case strings.HasPrefix(base, "DFF"):
				return "DFF", nil
			default:
				return "", fmt.Errorf("netlist: cell %q has no bench operator", cellType)
			}
		},
	}
}

// WriteBench renders the netlist in ISCAS85 .bench format. Gate types that
// have no bench operator (complex AOI cells etc.) cause an error; the
// synthetic benchmark suites restrict themselves to mappable cells.
func WriteBench(w io.Writer, n *Netlist, tm TechMap) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %s — %d inputs, %d gates\n", n.Name, n.NumPI, len(n.Gates))
	for i := 0; i < n.NumPI; i++ {
		fmt.Fprintf(bw, "INPUT(N%d)\n", i)
	}
	for _, o := range n.Outputs {
		fmt.Fprintf(bw, "OUTPUT(N%d)\n", o)
	}
	for gi, g := range n.Gates {
		op, err := tm.CellToOp(g.Type)
		if err != nil {
			return err
		}
		names := make([]string, len(g.Fanins))
		for j, f := range g.Fanins {
			names[j] = fmt.Sprintf("N%d", f)
		}
		fmt.Fprintf(bw, "N%d = %s(%s)\n", n.NumPI+gi, op, strings.Join(names, ", "))
	}
	return bw.Flush()
}

// ReadBench parses an ISCAS85 .bench file into a Netlist, mapping operators
// to library cells with tm. Node lines may appear in any order; the result
// is topologically sorted.
func ReadBench(r io.Reader, name string, tm TechMap) (*Netlist, error) {
	type rawGate struct {
		out    string
		op     string
		fanins []string
	}
	var inputs, outputs []string
	var raws []rawGate

	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		switch declKeyword(line) {
		case "INPUT(":
			inputs = append(inputs, extractParen(line))
		case "OUTPUT(":
			outputs = append(outputs, extractParen(line))
		default:
			eq := strings.Index(line, "=")
			if eq < 0 {
				return nil, fmt.Errorf("netlist: %s:%d: malformed line %q", name, lineNo, line)
			}
			out := strings.TrimSpace(line[:eq])
			rhs := strings.TrimSpace(line[eq+1:])
			po := strings.Index(rhs, "(")
			pc := strings.LastIndex(rhs, ")")
			if po < 0 || pc < po {
				return nil, fmt.Errorf("netlist: %s:%d: malformed expression %q", name, lineNo, rhs)
			}
			op := strings.ToUpper(strings.TrimSpace(rhs[:po]))
			fanins := strings.Split(rhs[po+1:pc], ",")
			for i, f := range fanins {
				fanins[i] = strings.TrimSpace(f)
			}
			raws = append(raws, rawGate{out: out, op: op, fanins: fanins})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("netlist: %s: %w", name, err)
	}

	// Assign node ids: inputs first, then gates in topological order.
	id := make(map[string]int, len(inputs)+len(raws))
	for i, in := range inputs {
		if _, dup := id[in]; dup {
			return nil, fmt.Errorf("netlist: %s: duplicate input %q", name, in)
		}
		id[in] = i
	}
	nl := &Netlist{Name: name, NumPI: len(inputs)}
	if len(raws) > 0 {
		nl.Gates = make([]Gate, 0, len(raws))
	}
	// Every gate's fanin ids are carved from one backing array, capped so
	// an append to one gate's fanins can never write into the next.
	nFanins := 0
	for _, rg := range raws {
		nFanins += len(rg.fanins)
	}
	faninPool := make([]int, nFanins)
	pending := raws
	for len(pending) > 0 {
		progressed := false
		var next []rawGate
		for _, rg := range pending {
			ready := true
			for _, f := range rg.fanins {
				if _, ok := id[f]; !ok {
					ready = false
					break
				}
			}
			if !ready {
				next = append(next, rg)
				continue
			}
			cellType, err := tm.OpToCell(rg.op, len(rg.fanins))
			if err != nil {
				return nil, fmt.Errorf("netlist: %s: node %s: %w", name, rg.out, err)
			}
			k := len(rg.fanins)
			fanins := faninPool[:k:k]
			faninPool = faninPool[k:]
			for j, f := range rg.fanins {
				fanins[j] = id[f]
			}
			if _, dup := id[rg.out]; dup {
				return nil, fmt.Errorf("netlist: %s: node %q driven twice", name, rg.out)
			}
			id[rg.out] = nl.NumNodes()
			nl.Gates = append(nl.Gates, Gate{Type: cellType, Fanins: fanins})
			progressed = true
		}
		if !progressed {
			return nil, fmt.Errorf("netlist: %s: combinational cycle or undriven node (%d gates unresolved)",
				name, len(pending))
		}
		pending = next
	}
	for _, o := range outputs {
		oid, ok := id[o]
		if !ok {
			return nil, fmt.Errorf("netlist: %s: output %q undriven", name, o)
		}
		nl.Outputs = append(nl.Outputs, oid)
	}
	sort.Ints(nl.Outputs)
	return nl, nl.Validate()
}

// declKeyword returns "INPUT(" or "OUTPUT(" when the upper-cased line
// starts with that declaration keyword, and "" otherwise. Gate lines, the
// bulk of a file, start with an ASCII byte that upper-cases to neither I
// nor O, which rules out both keywords without upper-casing the line.
func declKeyword(line string) string {
	if c := line[0]; c < utf8.RuneSelf && c&^0x20 != 'I' && c&^0x20 != 'O' {
		return ""
	}
	up := strings.ToUpper(line)
	for _, kw := range [...]string{"INPUT(", "OUTPUT("} {
		if strings.HasPrefix(up, kw) {
			return kw
		}
	}
	return ""
}

func extractParen(line string) string {
	po := strings.Index(line, "(")
	pc := strings.LastIndex(line, ")")
	if po < 0 || pc < po {
		return ""
	}
	return strings.TrimSpace(line[po+1 : pc])
}
