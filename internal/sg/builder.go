package sg

import (
	"fmt"
	"maps"
	"slices"
)

// EventOption configures an event added through a Builder.
type EventOption func(*Event)

// NonRepetitive marks the event as occurring exactly once (like f- in
// Fig. 1b). Events are repetitive by default.
func NonRepetitive() EventOption { return func(e *Event) { e.Repetitive = false } }

// ArcOption configures an arc added through a Builder.
type ArcOption func(*Arc)

// Marked places the initial token on the arc (the bullets of Fig. 1b).
func Marked() ArcOption { return func(a *Arc) { a.Marked = true } }

// Once marks the arc as disengageable (the crossed arcs of Fig. 1b):
// it influences the execution exactly once.
func Once() ArcOption { return func(a *Arc) { a.Once = true } }

// Builder accumulates events and arcs and produces a validated Graph.
// Methods chain; the first recorded error is reported by Build. It is
// a DenseBuilder addressed by names, with no size hints; Build may be
// called again, and each Build copies.
type Builder struct{ d DenseBuilder }

// NewBuilder returns an empty Builder for a graph with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{DenseBuilder{name: name, byName: make(map[string]EventID)}}
}

// Event adds an event. Names ending in '+'/'-' are parsed as rising or
// falling transitions of the prefix signal. Duplicate names are an error.
func (b *Builder) Event(name string, opts ...EventOption) *Builder {
	if id := b.d.addEvent(name, true); id != None {
		for _, o := range opts {
			o(&b.d.events[id])
		}
	}
	return b
}

// Events adds several repetitive events at once.
func (b *Builder) Events(names ...string) *Builder {
	for _, n := range names {
		b.Event(n)
	}
	return b
}

// Arc adds an arc from one named event to another with the given delay.
// Both endpoints must have been added already.
func (b *Builder) Arc(from, to string, delay float64, opts ...ArcOption) *Builder {
	if addArcNamed(&b.d, from, to, delay, false, false) {
		for _, o := range opts {
			o(&b.d.arcs[len(b.d.arcs)-1])
		}
	}
	return b
}

// Err returns the first error recorded so far, if any.
func (b *Builder) Err() error { return b.d.err }

// Build validates the accumulated structure and returns the immutable
// Graph. The validation enforces the restrictions of §III.A of the paper
// (see Validate for the full list).
func (b *Builder) Build() (*Graph, error) { return validated(b.assemble()) }

// BuildUnchecked assembles the Graph without semantic validation. It still
// fails on builder-level errors (unknown events, negative delays). It is
// intended for tests that exercise Validate's failure paths and for tools
// that want to load a graph in order to report its problems.
func (b *Builder) BuildUnchecked() (*Graph, error) { return b.assemble() }

func (b *Builder) assemble() (*Graph, error) {
	if b.d.err != nil {
		return nil, b.d.err
	}
	return assemble(b.d.name, slices.Clone(b.d.events), slices.Clone(b.d.arcs), maps.Clone(b.d.byName)), nil
}

// validated returns the assembled graph if it passes Validate.
func validated(g *Graph, err error) (*Graph, error) {
	if err == nil {
		err = g.Validate()
	}
	if err != nil {
		return nil, err
	}
	return g, nil
}

// assemble derives a Graph's indexes (CSR adjacency, initial events,
// repetitive and border sets, period order) from its elements. The
// Graph takes ownership of all three arguments.
func assemble(name string, events []Event, arcs []Arc, byName map[string]EventID) *Graph {
	g := &Graph{name: name, events: events, arcs: arcs, byName: byName}
	g.buildCSR()
	for i := range g.events {
		ev := &g.events[i]
		if ev.Repetitive {
			g.repetitive = append(g.repetitive, EventID(i))
		} else if len(g.InArcs(EventID(i))) == 0 {
			ev.Initial = true
		}
	}
	g.border = g.computeBorder()
	g.topo, g.topoErr = g.computePeriodOrder()
	return g
}

// buildCSR flattens the adjacency into packed CSR arrays: the arc
// indices leaving and entering each event are runs of two shared
// backing arrays, delimited by offset arrays, and the in-arcs additionally get a struct-of-arrays record layout
// (source, delay, marking offset, arc index) grouped by target. Within
// each group records appear in ascending arc index, matching the order
// arcs were added — the tie-breaking order the simulation kernels rely
// on for bit-identical parent selection.
func (g *Graph) buildCSR() {
	n := len(g.events)
	m := len(g.arcs)
	inCnt := make([]int32, n+1)
	outCnt := make([]int32, n+1)
	for _, a := range g.arcs {
		inCnt[a.To+1]++
		outCnt[a.From+1]++
	}
	for i := 0; i < n; i++ {
		inCnt[i+1] += inCnt[i]
		outCnt[i+1] += outCnt[i]
	}
	g.inOff, g.outOff = inCnt, outCnt
	g.inSrc = make([]EventID, m)
	g.inDelay = make([]float64, m)
	g.inMark = make([]int32, m)
	g.inPacked = make([]int, m)
	g.outPacked = make([]int, m)
	inNext := make([]int32, n)
	outNext := make([]int32, n)
	copy(inNext, inCnt[:n])
	copy(outNext, outCnt[:n])
	for i, a := range g.arcs {
		p := inNext[a.To]
		inNext[a.To]++
		g.inSrc[p] = a.From
		g.inDelay[p] = a.Delay
		if a.Marked {
			g.inMark[p] = 1
		}
		g.inPacked[p] = i
		q := outNext[a.From]
		outNext[a.From]++
		g.outPacked[q] = i
	}
}

// rebuildInDelays refreshes the CSR delay column from the arc list.
// Called by the copy-on-write delay modifiers (modify.go), which share
// every other index structure with the original graph.
func (g *Graph) rebuildInDelays() {
	d := make([]float64, len(g.inPacked))
	for i, ai := range g.inPacked {
		d[i] = g.arcs[ai].Delay
	}
	g.inDelay = d
}

// computePeriodOrder runs a deterministic Kahn topological sort over the
// unmarked-arc subgraph, always extracting the smallest ready ID (via a
// binary heap, O((n+m) log n)) so tables and traces are stable across
// runs.
func (g *Graph) computePeriodOrder() ([]EventID, error) {
	n := len(g.events)
	indeg := make([]int32, n)
	for _, a := range g.arcs {
		if !a.Marked {
			indeg[a.To]++
		}
	}
	heap := make([]EventID, 0, n)
	push := func(e EventID) {
		heap = append(heap, e)
		for i := len(heap) - 1; i > 0; {
			p := (i - 1) / 2
			if heap[p] <= heap[i] {
				break
			}
			heap[p], heap[i] = heap[i], heap[p]
			i = p
		}
	}
	pop := func() EventID {
		top := heap[0]
		last := len(heap) - 1
		heap[0] = heap[last]
		heap = heap[:last]
		for i := 0; ; {
			c := 2*i + 1
			if c >= len(heap) {
				break
			}
			if c+1 < len(heap) && heap[c+1] < heap[c] {
				c++
			}
			if heap[i] <= heap[c] {
				break
			}
			heap[i], heap[c] = heap[c], heap[i]
			i = c
		}
		return top
	}
	for i := n - 1; i >= 0; i-- {
		if indeg[i] == 0 {
			push(EventID(i))
		}
	}
	order := make([]EventID, 0, n)
	for len(heap) > 0 {
		e := pop()
		order = append(order, e)
		for _, ai := range g.OutArcs(e) {
			a := &g.arcs[ai]
			if a.Marked {
				continue
			}
			indeg[a.To]--
			if indeg[a.To] == 0 {
				push(a.To)
			}
		}
	}
	if len(order) < n {
		return nil, fmt.Errorf("sg: graph %q has an unmarked cycle; no period order exists", g.name)
	}
	return order, nil
}

// computeBorder finds the border set: repetitive events with an initially
// marked in-arc. Cycles involve only repetitive events, and every cycle of
// a live graph carries a token whose arc ends in a repetitive event, so
// restricting the border set to repetitive events keeps it a cut set.
func (g *Graph) computeBorder() []EventID {
	var border []EventID
	for _, r := range g.repetitive {
		for _, ai := range g.InArcs(r) {
			if g.arcs[ai].Marked {
				border = append(border, r)
				break
			}
		}
	}
	return border
}
