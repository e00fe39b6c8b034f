// Package sg implements the (Timed) Signal Graph model of Nielsen and
// Kishinevsky, "Performance Analysis Based on Timing Simulation" (DAC'94),
// §III. A Signal Graph is an extension of Marked Graphs with
//
//   - events (signal transitions such as "a+" / "a-", or environment
//     events), split into repetitive events, which oscillate forever, and
//     non-repetitive events, which occur exactly once (these include the
//     initial events I);
//   - arcs carrying an initial marking (initially-safe: 0 or 1 tokens),
//     a non-negative real delay, and a "disengageable" flag for arcs that
//     influence the execution once only (the crossed arcs of Fig. 1b);
//   - AND-causality: an event occurs when every in-arc carries a token,
//     which in the timed interpretation becomes the MAX rule (§III.C).
//
// Graphs are constructed through a Builder and validated on Build; the
// resulting Graph is immutable and safe for concurrent readers.
package sg

import (
	"fmt"
	"strings"
)

// EventID identifies an event within a Graph. IDs are dense indices
// assigned in insertion order.
type EventID int

// None is the invalid EventID.
const None EventID = -1

// Direction classifies a signal transition.
type Direction int8

// Transition directions. Events whose names end in '+' or '-' are parsed
// as rising/falling transitions of the prefix signal; any other name is a
// DirNone event (an abstract or environment event).
const (
	DirNone Direction = iota
	DirRise
	DirFall
)

// String returns "+", "-" or "".
func (d Direction) String() string {
	switch d {
	case DirRise:
		return "+"
	case DirFall:
		return "-"
	default:
		return ""
	}
}

// Event is a vertex of a Signal Graph.
type Event struct {
	Name       string    // unique name, e.g. "a+", "b-", "env"
	Signal     string    // signal the transition belongs to ("a" for "a+")
	Dir        Direction // rise/fall for signal transitions
	Repetitive bool      // member of A_r: occurs infinitely often
	Initial    bool      // member of I: non-repetitive with no in-arcs
}

// Arc is a directed, delay-labelled edge of a Timed Signal Graph.
type Arc struct {
	From, To EventID
	Delay    float64 // τ >= 0
	Marked   bool    // carries the initial token (the bullets of Fig. 1b)
	Once     bool    // disengageable: influences the execution once only
}

// Graph is an immutable Timed Signal Graph.
type Graph struct {
	name   string
	events []Event
	arcs   []Arc
	index  nameIndex // shared by copies of the graph, never written

	repetitive []EventID // cached A_r in ID order
	border     []EventID // cached border set (§VI.A) in ID order

	// CSR adjacency, built once at assemble time: the arcs leaving e
	// are outPacked[outOff[e]:outOff[e+1]], those entering it
	// inPacked[inOff[e]:inOff[e+1]] (OutArcs and InArcs).
	outPacked []int
	outOff    []int32
	inPacked  []int
	// In-arc records in struct-of-arrays form, grouped by target event
	// (inOff[e]..inOff[e+1]) and ordered by arc index within each group —
	// the same order InArcs returns. This is the layout the timing
	// simulation kernel consumes: one linear scan per event, no Arc
	// struct copies.
	inOff   []int32
	inSrc   []EventID
	inDelay []float64
	inMark  []int32 // marking offset: 1 when the arc carries the token

	// Topological order of the unmarked-arc subgraph (the period order of
	// the unfolding), cached so the b simulations of one analysis do not
	// recompute it. nil with topoErr set when the graph has an unmarked
	// cycle (possible for BuildUnchecked graphs).
	topo    []EventID
	topoErr error
}

// InCSR is a read-only view of the compiled in-arc layout: for each
// event e, records Off[e]..Off[e+1] hold the in-arcs of e in arc-index
// order as parallel arrays. Callers must not modify the slices.
type InCSR struct {
	Off   []int32   // len NumEvents+1
	Src   []EventID // source event per record
	Delay []float64 // arc delay per record
	Mark  []int32   // marking offset per record (1 = initially marked)
	Arc   []int     // originating arc index per record (shared with InArcs)
}

// InCSR returns the compiled in-arc layout.
func (g *Graph) InCSR() InCSR {
	return InCSR{Off: g.inOff, Src: g.inSrc, Delay: g.inDelay, Mark: g.inMark, Arc: g.inPacked}
}

// PeriodOrder returns the events in a topological order of the
// unmarked-arc subgraph: the valid intra-period evaluation order for the
// unfolding and the streaming timing simulation. The order is computed
// once at Build time (deterministically: the smallest ready ID first)
// and shared; callers must not modify the slice. Graphs with an unmarked
// cycle (which fail Validate but can exist via BuildUnchecked) have no
// period order and yield an error.
func (g *Graph) PeriodOrder() ([]EventID, error) {
	if g.topoErr != nil {
		return nil, g.topoErr
	}
	return g.topo, nil
}

// Name returns the graph's name.
func (g *Graph) Name() string { return g.name }

// NumEvents returns |A|.
func (g *Graph) NumEvents() int { return len(g.events) }

// NumArcs returns |→|.
func (g *Graph) NumArcs() int { return len(g.arcs) }

// Event returns the event with the given ID.
func (g *Graph) Event(id EventID) Event { return g.events[id] }

// Arc returns the arc with the given index.
func (g *Graph) Arc(i int) Arc { return g.arcs[i] }

// EventByName returns the ID of the named event, or (None, false).
func (g *Graph) EventByName(name string) (EventID, bool) {
	x := &g.index
	for i := x.home(hashName(x.seed, name)); x.slots[i] != 0; i = x.next(i) {
		if id := EventID(x.slots[i] - 1); g.events[id].Name == name {
			return id, true
		}
	}
	return None, false
}

// MustEvent returns the ID of the named event and panics if it does not
// exist. Intended for tests and examples working with known fixtures.
func (g *Graph) MustEvent(name string) EventID {
	id, ok := g.EventByName(name)
	if !ok {
		panic(fmt.Sprintf("sg: graph %q has no event %q", g.name, name))
	}
	return id
}

// OutArcs returns the indices of arcs leaving e. The slice is shared;
// callers must not modify it.
func (g *Graph) OutArcs(e EventID) []int {
	return g.outPacked[g.outOff[e]:g.outOff[e+1]:g.outOff[e+1]]
}

// InArcs returns the indices of arcs entering e. The slice is shared;
// callers must not modify it.
func (g *Graph) InArcs(e EventID) []int {
	return g.inPacked[g.inOff[e]:g.inOff[e+1]:g.inOff[e+1]]
}

// RepetitiveEvents returns the IDs of all repetitive events in ID order.
// The slice is shared; callers must not modify it.
func (g *Graph) RepetitiveEvents() []EventID { return g.repetitive }

// InitialEvents returns the IDs of the initial events I (non-repetitive
// events without in-arcs) in ID order.
func (g *Graph) InitialEvents() []EventID {
	var ids []EventID
	for i, ev := range g.events {
		if ev.Initial {
			ids = append(ids, EventID(i))
		}
	}
	return ids
}

// BorderEvents returns the border set (§VI.A): the events with an
// initially marked in-arc. For a live Signal Graph the border set is a
// cut set, because every cycle carries a token. The slice is shared;
// callers must not modify it.
func (g *Graph) BorderEvents() []EventID { return g.border }

// EventNames maps a list of IDs to their names.
func (g *Graph) EventNames(ids []EventID) []string {
	names := make([]string, len(ids))
	for i, id := range ids {
		names[i] = g.events[id].Name
	}
	return names
}

// TotalDelay returns the sum of all arc delays; a trivial upper bound on
// any simple-cycle length, used by the binary-search baseline.
func (g *Graph) TotalDelay() float64 {
	sum := 0.0
	for _, a := range g.arcs {
		sum += a.Delay
	}
	return sum
}

// TotalMarking returns the number of initially marked arcs.
func (g *Graph) TotalMarking() int {
	n := 0
	for _, a := range g.arcs {
		if a.Marked {
			n++
		}
	}
	return n
}

// String returns a one-line summary.
func (g *Graph) String() string {
	return fmt.Sprintf("sg.Graph{%s: %d events (%d repetitive), %d arcs, %d tokens, border=%v}",
		g.name, len(g.events), len(g.repetitive), len(g.arcs), g.TotalMarking(),
		g.EventNames(g.border))
}

// splitName derives (signal, direction) from an event name: a trailing
// '+' or '-' marks a rising/falling transition of the prefix signal.
func splitName(name string) (string, Direction) {
	switch {
	case strings.HasSuffix(name, "+"):
		return name[:len(name)-1], DirRise
	case strings.HasSuffix(name, "-"):
		return name[:len(name)-1], DirFall
	default:
		return name, DirNone
	}
}
