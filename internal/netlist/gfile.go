package netlist

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"tsg/internal/sg"
)

// This file reads and writes the `.g` Signal Transition Graph format
// used by petrify, versify and the other asynchronous-synthesis tools —
// the de-facto interchange format for STGs:
//
//	.model name
//	.inputs a b
//	.outputs c
//	.graph
//	a+ b+ c+        # source transition followed by its successors
//	b+ c-
//	.marking { <a+,b+> <b+,c-> }
//	.end
//
// Standard `.g` carries no delays; the writer emits and the reader
// accepts the extension directive
//
//	.delay <from> <to> <value>
//
// with unlisted arcs defaulting to delay 1. Only fully repetitive
// graphs (no prefix events, no disengageable arcs) are representable —
// that is the class classical STGs describe; use the .tsg format for
// graphs with an initial part.

// ReadG parses a `.g` Signal Transition Graph.
func ReadG(r io.Reader) (*sg.Graph, error) {
	lx := newLexer(r)
	b := sg.NewBuilder("stg")
	var (
		inGraph   bool
		ended     bool
		seenEvent = map[string]bool{}
		arcs      []([2]string)
		delays    = map[[2]string]float64{}
		marked    = map[[2]string]bool{}
	)
	declare := func(name string) {
		if !seenEvent[name] {
			seenEvent[name] = true
			b.Event(name)
		}
	}
	for lx.scan() {
		fields, line := lx.texts(), lx.line
		if len(fields) == 0 {
			continue
		}
		if ended {
			return nil, errf(line, "content after .end")
		}
		switch fields[0] {
		case ".model", ".name":
			if len(fields) != 2 {
				return nil, errf(line, "usage: .model <name>")
			}
			b = sg.NewBuilder(fields[1])
			seenEvent = map[string]bool{}
		case ".inputs", ".outputs", ".internal", ".dummy":
			// Signal classification: recorded only implicitly (events
			// appear when .graph references them).
		case ".graph":
			inGraph = true
		case ".marking":
			tokens := strings.Join(fields[1:], " ")
			tokens = strings.TrimPrefix(tokens, "{")
			tokens = strings.TrimSuffix(tokens, "}")
			for _, tok := range strings.Fields(tokens) {
				if !strings.HasPrefix(tok, "<") || !strings.HasSuffix(tok, ">") {
					return nil, errf(line, "marking token %q: want <from,to>", tok)
				}
				pair := strings.Split(tok[1:len(tok)-1], ",")
				if len(pair) != 2 {
					return nil, errf(line, "marking token %q: want <from,to>", tok)
				}
				marked[[2]string{pair[0], pair[1]}] = true
			}
		case ".delay":
			if len(fields) != 4 {
				return nil, errf(line, "usage: .delay <from> <to> <value>")
			}
			var d float64
			if _, err := fmt.Sscanf(fields[3], "%g", &d); err != nil {
				return nil, errf(line, "bad delay %q", fields[3])
			}
			delays[[2]string{fields[1], fields[2]}] = d
		case ".end":
			ended = true
		default:
			if strings.HasPrefix(fields[0], ".") {
				return nil, errf(line, "unknown directive %q", fields[0])
			}
			if !inGraph {
				return nil, errf(line, "transition list before .graph")
			}
			if len(fields) < 2 {
				return nil, errf(line, "graph line needs a source and at least one successor")
			}
			from := fields[0]
			declare(from)
			for _, to := range fields[1:] {
				declare(to)
				arcs = append(arcs, [2]string{from, to})
			}
		}
	}
	if lx.err != nil {
		return nil, lx.err
	}
	if !inGraph {
		return nil, errf(lx.line, "missing .graph section")
	}
	for _, a := range arcs {
		d, ok := delays[a]
		if !ok {
			d = 1
		}
		var opts []sg.ArcOption
		if marked[a] {
			opts = append(opts, sg.Marked())
			delete(marked, a)
		}
		b.Arc(a[0], a[1], d, opts...)
	}
	for pair := range marked {
		return nil, fmt.Errorf("netlist: marking on undeclared arc <%s,%s>", pair[0], pair[1])
	}
	return b.Build()
}

// WriteG serialises a fully repetitive graph in `.g` format (with the
// .delay extension for non-unit delays). Graphs with non-repetitive
// events or disengageable arcs are not representable; use WriteTSG.
func WriteG(w io.Writer, g *sg.Graph) error {
	for i := 0; i < g.NumEvents(); i++ {
		if !g.Event(sg.EventID(i)).Repetitive {
			return fmt.Errorf("netlist: event %q is non-repetitive; the .g format describes fully cyclic STGs only (use .tsg)",
				g.Event(sg.EventID(i)).Name)
		}
	}
	for i := 0; i < g.NumArcs(); i++ {
		if g.Arc(i).Once {
			return fmt.Errorf("netlist: disengageable arcs are not representable in .g format (use .tsg)")
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, ".model %s\n", g.Name())
	var signals []string
	seen := map[string]bool{}
	for i := 0; i < g.NumEvents(); i++ {
		s := g.Event(sg.EventID(i)).Signal
		if !seen[s] {
			seen[s] = true
			signals = append(signals, s)
		}
	}
	sort.Strings(signals)
	fmt.Fprintf(&b, ".outputs %s\n", strings.Join(signals, " "))
	b.WriteString(".graph\n")
	for e := 0; e < g.NumEvents(); e++ {
		outs := g.OutArcs(sg.EventID(e))
		if len(outs) == 0 {
			continue
		}
		b.WriteString(g.Event(sg.EventID(e)).Name)
		for _, ai := range outs {
			b.WriteByte(' ')
			b.WriteString(g.Event(g.Arc(ai).To).Name)
		}
		b.WriteByte('\n')
	}
	var marks []string
	for i := 0; i < g.NumArcs(); i++ {
		a := g.Arc(i)
		if a.Marked {
			marks = append(marks, fmt.Sprintf("<%s,%s>", g.Event(a.From).Name, g.Event(a.To).Name))
		}
	}
	fmt.Fprintf(&b, ".marking { %s }\n", strings.Join(marks, " "))
	for i := 0; i < g.NumArcs(); i++ {
		a := g.Arc(i)
		if a.Delay != 1 {
			fmt.Fprintf(&b, ".delay %s %s %g\n",
				g.Event(a.From).Name, g.Event(a.To).Name, a.Delay)
		}
	}
	b.WriteString(".end\n")
	_, err := io.WriteString(w, b.String())
	return err
}
