// Package netlist reads and writes the repository's two text formats:
//
//   - .tsg files describe Timed Signal Graphs (events, delay-labelled
//     arcs, initial marking, disengageable arcs);
//   - .ckt files describe gate-level circuits (inputs, gates with
//     per-pin delays, initial state, scripted input transitions).
//
// Both formats are line-oriented; '#' starts a comment. Parse errors
// carry 1-based line numbers.
package netlist

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"strconv"
	"strings"

	"tsg/internal/dist"
	"tsg/internal/sg"
)

// ParseError is a syntax or semantic error at a specific input line.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("line %d: %s", e.Line, e.Msg)
}

func errf(line int, format string, args ...interface{}) error {
	return &ParseError{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// ReadTSG parses a Timed Signal Graph:
//
//	tsg <name>
//	event <name> [nonrepetitive]
//	arc <from> <to> <delay> [marked] [once] [~<dist>] [@<group>]
//
// The optional statistical annotations — a delay distribution such as
// ~uniform(2,4) and a correlation-group tag such as @corr — are
// accepted and discarded here; ReadTSGDist returns them as a
// dist.Model. The graph is validated (sg.Validate); use ReadTSGLax to
// load invalid graphs for diagnosis.
func ReadTSG(r io.Reader) (*sg.Graph, error) {
	b, _, err := readTSG(r)
	if err != nil {
		return nil, err
	}
	return b.Build()
}

// ReadTSGLax parses like ReadTSG but skips semantic validation, so that
// tools can load a broken graph and report its problems.
func ReadTSGLax(r io.Reader) (*sg.Graph, error) {
	b, _, err := readTSG(r)
	if err != nil {
		return nil, err
	}
	return b.BuildUnchecked()
}

// ReadTSGDist parses a Timed Signal Graph together with its statistical
// delay annotations: arc lines may carry a distribution (e.g.
// ~uniform(2,4), ~normal(3,0.2), ~tri(1,2,4), ~choice(1:3,2:1)) and a
// correlation-group tag (@<name>; arcs sharing a tag share the sample
// variate, modelling common process variation). Arcs without a
// distribution stay points at their nominal delay, so a file without
// annotations yields the deterministic model.
func ReadTSGDist(r io.Reader) (*sg.Graph, *dist.Model, error) {
	b, anns, err := readTSG(r)
	if err != nil {
		return nil, nil, err
	}
	g, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	m, err := delayModel(g, anns)
	if err != nil {
		return nil, nil, err
	}
	return g, m, nil
}

// delayModel is the graph's nominal delays with the parsed annotations
// applied.
func delayModel(g *sg.Graph, anns []arcAnn) (*dist.Model, error) {
	nominal := make([]float64, g.NumArcs())
	for i := range nominal {
		nominal[i] = g.Arc(i).Delay
	}
	m, err := dist.NewModel(nominal)
	if err != nil {
		return nil, err
	}
	groups := map[string]int{}
	for _, a := range anns {
		if a.hasDist {
			if err := m.SetArc(a.arc, a.d); err != nil {
				return nil, errf(a.line, "%v", err)
			}
		}
		if a.group != "" {
			gid, ok := groups[a.group]
			if !ok {
				gid = len(groups)
				groups[a.group] = gid
			}
			if err := m.SetGroup(a.arc, gid); err != nil {
				return nil, errf(a.line, "%v", err)
			}
		}
	}
	return m, nil
}

// arcAnn is one arc's statistical annotation, collected during parsing.
type arcAnn struct {
	arc     int
	line    int
	d       dist.Dist
	hasDist bool
	group   string
}

// readTSG parses the input in one pass: the lexer splits each line
// into fields in place, and events and arcs stream into a DenseBuilder
// sized by directiveLines.
func readTSG(r io.Reader) (*sg.DenseBuilder, []arcAnn, error) {
	lx := newLexer(r)
	var b *sg.DenseBuilder
	var anns []arcAnn
	arcs := 0
	for lx.scan() {
		n, line := len(lx.fields), lx.line
		if n == 0 {
			continue
		}
		dir := lx.field(0)
		if b == nil && (string(dir) == "event" || string(dir) == "arc") {
			return nil, nil, errf(line, "%s before tsg header", dir)
		}
		switch string(dir) {
		case "tsg":
			if b != nil {
				return nil, nil, errf(line, "duplicate tsg header")
			}
			if n != 2 {
				return nil, nil, errf(line, "usage: tsg <name>")
			}
			events, arcs := directiveLines(lx.input[lx.pos:])
			b = sg.NewDenseBuilder(string(lx.field(1)), events, arcs)
		case "event":
			if n < 2 || n > 3 {
				return nil, nil, errf(line, "usage: event <name> [nonrepetitive]")
			}
			if n == 3 && string(lx.field(2)) != "nonrepetitive" {
				return nil, nil, errf(line, "unknown event attribute %q", lx.field(2))
			}
			b.AddEventBytes(lx.field(1), n == 2)
		case "arc":
			if n < 4 {
				return nil, nil, errf(line, "usage: arc <from> <to> <delay> [marked] [once] [~dist] [@group]")
			}
			delay, err := strconv.ParseFloat(string(lx.field(3)), 64)
			if err != nil {
				return nil, nil, errf(line, "bad delay %q: %v", lx.field(3), err)
			}
			ann := arcAnn{arc: arcs, line: line}
			var marked, once bool
			for k := 4; k < n; k++ {
				switch attr := lx.field(k); {
				case string(attr) == "marked":
					marked = true
				case string(attr) == "once":
					once = true
				case attr[0] == '~':
					if ann.hasDist {
						return nil, nil, errf(line, "duplicate distribution annotation %q", attr)
					}
					d, err := dist.Parse(string(attr[1:]))
					if err != nil {
						return nil, nil, errf(line, "%v", err)
					}
					ann.d, ann.hasDist = d, true
				case attr[0] == '@':
					if ann.group != "" {
						return nil, nil, errf(line, "duplicate correlation tag %q", attr)
					}
					if len(attr) == 1 {
						return nil, nil, errf(line, "empty correlation tag")
					}
					ann.group = string(attr[1:])
				default:
					return nil, nil, errf(line, "unknown arc attribute %q", attr)
				}
			}
			b.AddArcNamed(lx.field(1), lx.field(2), delay, marked, once)
			if ann.hasDist || ann.group != "" {
				anns = append(anns, ann)
			}
			arcs++
		default:
			return nil, nil, errf(line, "unknown directive %q", dir)
		}
		if err := b.Err(); err != nil {
			return nil, nil, errf(line, "%v", err)
		}
	}
	if lx.err != nil {
		return nil, nil, lx.err
	}
	if b == nil {
		return nil, nil, errf(lx.line, "missing tsg header")
	}
	return b, anns, nil
}

// directiveLines counts the lines of text that start with "event" and
// with "arc". In an input that parses, each such line adds one event or
// arc, so the counts never exceed the graph's, whatever its comments
// and names contain; an indented directive is not counted, and the
// builder grows past the counts for it. The newlines are found eight
// bytes at a time.
func directiveLines(text []byte) (events, arcs int) {
	events, arcs = directive(text)
	const ones, low7 = 0x0101010101010101, 0x7f7f7f7f7f7f7f7f
	i := 0
	for ; i+8 <= len(text); i += 8 {
		// The top bit of a byte of nl is set where that byte of x is
		// zero, which is where text has a newline.
		x := binary.LittleEndian.Uint64(text[i:]) ^ '\n'*ones
		for nl := ^(x&low7 + low7 | x | low7); nl != 0; nl &= nl - 1 {
			e, a := directive(text[i+bits.TrailingZeros64(nl)/8+1:])
			events, arcs = events+e, arcs+a
		}
	}
	for ; i < len(text); i++ {
		if text[i] == '\n' {
			e, a := directive(text[i+1:])
			events, arcs = events+e, arcs+a
		}
	}
	return events, arcs
}

// directive counts a line that starts with "event" or with "arc". It
// looks at the first byte before comparing the rest.
func directive(line []byte) (event, arc int) {
	switch {
	case len(line) < 3:
	case line[0] == 'a':
		if line[1] == 'r' && line[2] == 'c' {
			return 0, 1
		}
	case line[0] == 'e':
		if len(line) >= 5 && string(line[1:5]) == "vent" {
			return 1, 0
		}
	}
	return 0, 0
}

// WriteTSG serialises a graph in the format ReadTSG parses; the output
// round-trips to a structurally identical graph.
func WriteTSG(w io.Writer, g *sg.Graph) error { return writeTSG(w, g, nil) }

// WriteTSGDist serialises a graph with its delay model: non-point
// distributions become ~ annotations and correlation groups become
// @c<k> tags (renumbered by first appearance, so the output is
// canonical). ReadTSGDist round-trips the result — same distributions,
// same correlation partition.
func WriteTSGDist(w io.Writer, g *sg.Graph, m *dist.Model) error {
	if m != nil && m.NumArcs() != g.NumArcs() {
		return fmt.Errorf("netlist: delay model covers %d arcs, graph has %d", m.NumArcs(), g.NumArcs())
	}
	return writeTSG(w, g, m)
}

func writeTSG(w io.Writer, g *sg.Graph, m *dist.Model) error {
	var b strings.Builder
	fmt.Fprintf(&b, "tsg %s\n", g.Name())
	for i := 0; i < g.NumEvents(); i++ {
		ev := g.Event(sg.EventID(i))
		if ev.Repetitive {
			fmt.Fprintf(&b, "event %s\n", ev.Name)
		} else {
			fmt.Fprintf(&b, "event %s nonrepetitive\n", ev.Name)
		}
	}
	groups := map[int]int{}
	for i := 0; i < g.NumArcs(); i++ {
		a := g.Arc(i)
		fmt.Fprintf(&b, "arc %s %s %g", g.Event(a.From).Name, g.Event(a.To).Name, a.Delay)
		if a.Marked {
			b.WriteString(" marked")
		}
		if a.Once {
			b.WriteString(" once")
		}
		if m != nil {
			random := !m.Dist(i).IsPoint()
			if random {
				fmt.Fprintf(&b, " ~%s", m.Dist(i))
			}
			// Correlation tags on point arcs carry no sampling meaning;
			// emit them only where they matter so the output is canonical.
			if gid := m.Group(i); gid >= 0 && random {
				k, ok := groups[gid]
				if !ok {
					k = len(groups)
					groups[gid] = k
				}
				fmt.Fprintf(&b, " @c%d", k)
			}
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}
