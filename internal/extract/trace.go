// Package extract derives a Timed Signal Graph from a gate-level circuit
// and an initial state: the front-end step of §VIII.B, performed in the
// paper by the TRASPEC tool of the FORCAGE CAD system [9]. TRASPEC is not
// publicly available; this package substitutes a trace-based extractor
// (this file and fold.go) plus an exhaustive semi-modularity verifier for
// small circuits (verify.go). The substitution holds for the
// distributive circuits the paper analyses: each transition then has a
// unique AND-cause that does not depend on the interleaving, so one
// canonical trace yields the graph every execution would. The tests
// validate the extractor by reproducing the paper's oscillator and
// Muller-ring graphs exactly and by cross-checking the extracted
// graph's timing simulation against timed circuit simulation.
package extract

import (
	"fmt"

	"tsg/internal/circuit"
)

// pred is a causal predecessor of an event instance: the transition
// instance of an input signal whose level change established part of the
// excitation, plus the pin delay of that input.
type pred struct {
	signal   circuit.SignalID
	instance int // transition index on signal, -1 when the initial level suffices
	delay    float64
}

// instance is one transition occurrence in the canonical trace.
type instance struct {
	signal circuit.SignalID
	index  int // occurrence count on the signal
	level  circuit.Level
	kind   circuit.SupportKind
	preds  []pred
}

// SemimodularityError reports a speed-independence violation: an excited
// gate was disabled by another transition before it could fire (§VIII.A:
// distributive circuits, a subclass of semi-modular ones, never do this).
type SemimodularityError struct {
	Circuit string
	Gate    string // gate whose excitation was withdrawn
	By      string // signal whose transition withdrew it
	Step    int    // position in the canonical trace
}

func (e *SemimodularityError) Error() string {
	return fmt.Sprintf("extract: circuit %q is not semi-modular: gate %q disabled by transition of %q at trace step %d",
		e.Circuit, e.Gate, e.By, e.Step)
}

// trace runs the canonical one-transition-per-step execution of the
// circuit, recording causal predecessors at excitation onset and
// checking semi-modularity along the trace. It stops once every signal
// either quiesced or reached maxPerSignal transitions.
func trace(c *circuit.Circuit, inputs []circuit.InputEvent, maxPerSignal int) ([]instance, error) {
	levels := c.InitialLevels()
	counts := make([]int, c.NumSignals())

	// Validate and order the scripted input transitions.
	script := map[circuit.SignalID][]circuit.Level{}
	for _, ev := range inputs {
		id, ok := c.SignalByName(ev.Signal)
		if !ok {
			return nil, fmt.Errorf("extract: scripted input %q not found", ev.Signal)
		}
		if !c.Signal(id).IsInput {
			return nil, fmt.Errorf("extract: scripted signal %q is not a primary input", ev.Signal)
		}
		script[id] = append(script[id], ev.Level)
	}
	scriptPos := map[circuit.SignalID]int{}

	excited := make([]bool, c.NumGates())
	onset := make([][]pred, c.NumGates())
	kinds := make([]circuit.SupportKind, c.NumGates())

	// recordOnset captures the supporting input instances of gate gi's
	// fresh excitation.
	recordOnset := func(gi int) {
		g := c.Gate(gi)
		in := make([]circuit.Level, len(g.Ins))
		for i, s := range g.Ins {
			in[i] = levels[s]
		}
		target, _ := g.Type.Eval(in, levels[g.Out])
		kind, support := g.Type.Support(in, target)
		var ps []pred
		for _, pi := range support {
			s := g.Ins[pi]
			inst := counts[s] - 1 // -1 when the initial level suffices
			ps = append(ps, pred{signal: s, instance: inst, delay: g.Delays[pi]})
		}
		kinds[gi] = kind
		onset[gi] = ps
	}

	for gi := 0; gi < c.NumGates(); gi++ {
		if c.Excited(gi, levels) {
			excited[gi] = true
			recordOnset(gi)
		}
	}

	var out []instance
	maxSteps := maxPerSignal*c.NumSignals() + len(inputs) + 16
	for step := 0; step < maxSteps; step++ {
		// Pick the next transition: scripted inputs first (the
		// environment acts at once), then the lowest excited gate whose
		// output has headroom.
		fired := circuit.SignalID(-1)
		var firedGate = -1
		for _, id := range c.Inputs() {
			if scriptPos[id] < len(script[id]) {
				fired = id
				break
			}
		}
		if fired == -1 {
			for gi := 0; gi < c.NumGates(); gi++ {
				if excited[gi] && counts[c.Gate(gi).Out] < maxPerSignal {
					fired = c.Gate(gi).Out
					firedGate = gi
					break
				}
			}
		}
		if fired == -1 {
			break // quiescent or every live signal at the cap
		}

		inst := instance{signal: fired, index: counts[fired]}
		if firedGate >= 0 {
			inst.level = levels[fired].Toggle()
			inst.kind = kinds[firedGate]
			inst.preds = onset[firedGate]
		} else {
			lvl := script[fired][scriptPos[fired]]
			if lvl == levels[fired] {
				return nil, fmt.Errorf("extract: scripted input %s does not change level (already %v)",
					c.Signal(fired).Name, lvl)
			}
			inst.level = lvl
			scriptPos[fired]++
		}
		levels[fired] = inst.level
		counts[fired]++
		out = append(out, inst)

		// Update excitation; detect disabling (semi-modularity check
		// along the canonical trace — verify.go checks all traces for
		// small circuits).
		recheck := append([]int(nil), c.Fanout(fired)...)
		if firedGate >= 0 {
			recheck = append(recheck, firedGate)
		}
		for _, gi := range recheck {
			now := c.Excited(gi, levels)
			was := excited[gi]
			switch {
			case now && (!was || gi == firedGate):
				excited[gi] = true
				recordOnset(gi)
			case !now && was && gi != firedGate:
				return nil, &SemimodularityError{
					Circuit: c.Name(),
					Gate:    c.Gate(gi).Name,
					By:      c.Signal(fired).Name,
					Step:    len(out),
				}
			case !now:
				excited[gi] = false
			}
		}
	}
	return out, nil
}
