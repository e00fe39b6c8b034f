package netlist

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"tsg/internal/circuit"
)

// Netlist bundles a parsed circuit with its scripted input transitions.
type Netlist struct {
	Circuit *circuit.Circuit
	Inputs  []circuit.InputEvent
}

// ReadCKT parses a gate-level circuit:
//
//	circuit <name>
//	input <signal> = <0|1>
//	gate <out> <TYPE> <in...> [: <delay...>]
//	init <signal> = <0|1>
//	at <time> <signal> = <0|1>
//
// Gate types are C, NOR, NAND, AND, OR, INV, BUF, XOR, MAJ. The optional
// delay list after ':' gives per-pin delays (one value applies to every
// pin; none defaults to 1). 'at' lines script primary-input transitions.
func ReadCKT(r io.Reader) (*Netlist, error) {
	lx := newLexer(r)
	var (
		b      *circuit.Builder
		inputs []circuit.InputEvent
	)
	for lx.scan() {
		fields, line := lx.texts(), lx.line
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "input", "gate", "init", "at":
			if b == nil {
				return nil, errf(line, "%s before circuit header", fields[0])
			}
		}
		switch fields[0] {
		case "circuit":
			if b != nil {
				return nil, errf(line, "duplicate circuit header")
			}
			if len(fields) != 2 {
				return nil, errf(line, "usage: circuit <name>")
			}
			b = circuit.NewBuilder(fields[1])
		case "input":
			sig, lvl, err := parseAssign(fields[1:], line)
			if err != nil {
				return nil, err
			}
			b.Input(sig, lvl)
		case "gate":
			if len(fields) < 4 {
				return nil, errf(line, "usage: gate <out> <TYPE> <in...> [: <delay...>]")
			}
			out := fields[1]
			typ, err := circuit.ParseGateType(fields[2])
			if err != nil {
				return nil, errf(line, "%v", err)
			}
			rest := fields[3:]
			var ins []string
			var delays []float64
			inDelays := false
			for _, tok := range rest {
				if tok == ":" {
					if inDelays {
						return nil, errf(line, "duplicate ':' in gate line")
					}
					inDelays = true
					continue
				}
				if inDelays {
					d, err := strconv.ParseFloat(tok, 64)
					if err != nil {
						return nil, errf(line, "bad delay %q: %v", tok, err)
					}
					delays = append(delays, d)
				} else {
					ins = append(ins, tok)
				}
			}
			if len(ins) == 0 {
				return nil, errf(line, "gate %q has no inputs", out)
			}
			b.Gate(typ, out, ins, delays...)
		case "init":
			sig, lvl, err := parseAssign(fields[1:], line)
			if err != nil {
				return nil, err
			}
			b.Init(sig, lvl)
		case "at":
			if len(fields) != 5 || fields[3] != "=" {
				return nil, errf(line, "usage: at <time> <signal> = <0|1>")
			}
			tm, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return nil, errf(line, "bad time %q: %v", fields[1], err)
			}
			lvl, err := parseLevel(fields[4], line)
			if err != nil {
				return nil, err
			}
			inputs = append(inputs, circuit.InputEvent{Signal: fields[2], Time: tm, Level: lvl})
		default:
			return nil, errf(line, "unknown directive %q", fields[0])
		}
	}
	if lx.err != nil {
		return nil, lx.err
	}
	if b == nil {
		return nil, errf(lx.line, "missing circuit header")
	}
	c, err := b.Build()
	if err != nil {
		return nil, err
	}
	for _, ev := range inputs {
		id, ok := c.SignalByName(ev.Signal)
		if !ok {
			return nil, fmt.Errorf("netlist: scripted signal %q not declared", ev.Signal)
		}
		if !c.Signal(id).IsInput {
			return nil, fmt.Errorf("netlist: scripted signal %q is not an input", ev.Signal)
		}
	}
	return &Netlist{Circuit: c, Inputs: inputs}, nil
}

// WriteCKT serialises a netlist in the format ReadCKT parses.
func WriteCKT(w io.Writer, n *Netlist) error {
	c := n.Circuit
	var b strings.Builder
	fmt.Fprintf(&b, "circuit %s\n", c.Name())
	for _, id := range c.Inputs() {
		s := c.Signal(id)
		fmt.Fprintf(&b, "input %s = %s\n", s.Name, s.Initial)
	}
	for gi := 0; gi < c.NumGates(); gi++ {
		g := c.Gate(gi)
		fmt.Fprintf(&b, "gate %s %s", c.Signal(g.Out).Name, g.Type)
		for _, in := range g.Ins {
			fmt.Fprintf(&b, " %s", c.Signal(in).Name)
		}
		b.WriteString(" :")
		for _, d := range g.Delays {
			fmt.Fprintf(&b, " %g", d)
		}
		b.WriteByte('\n')
	}
	// Non-default initial levels of gate outputs.
	var inits []string
	for i := 0; i < c.NumSignals(); i++ {
		s := c.Signal(circuit.SignalID(i))
		if !s.IsInput && s.Initial == circuit.High {
			inits = append(inits, s.Name)
		}
	}
	sort.Strings(inits)
	for _, name := range inits {
		fmt.Fprintf(&b, "init %s = 1\n", name)
	}
	for _, ev := range n.Inputs {
		lvl := "0"
		if ev.Level == circuit.High {
			lvl = "1"
		}
		fmt.Fprintf(&b, "at %g %s = %s\n", ev.Time, ev.Signal, lvl)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func parseAssign(fields []string, line int) (string, circuit.Level, error) {
	if len(fields) != 3 || fields[1] != "=" {
		return "", 0, errf(line, "usage: <signal> = <0|1>")
	}
	lvl, err := parseLevel(fields[2], line)
	if err != nil {
		return "", 0, err
	}
	return fields[0], lvl, nil
}

func parseLevel(s string, line int) (circuit.Level, error) {
	switch s {
	case "0":
		return circuit.Low, nil
	case "1":
		return circuit.High, nil
	default:
		return 0, errf(line, "bad level %q (want 0 or 1)", s)
	}
}
