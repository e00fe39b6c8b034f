package sg

import (
	"fmt"
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
	return &Builder{DenseBuilder{name: name, offs: []int32{0}, index: newNameIndex(0)}}
}

// Event adds an event. Names ending in '+'/'-' are parsed as rising or
// falling transitions of the prefix signal. Duplicate names are an error.
// The options see the event before Build names it.
func (b *Builder) Event(name string, opts ...EventOption) *Builder {
	if id := b.d.AddEvent(name); id != None {
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
func (b *Builder) BuildUnchecked() (*Graph, error) {
	g, _, err := b.assemble()
	return g, err
}

func (b *Builder) assemble() (*Graph, []int32, error) {
	if b.d.err != nil {
		return nil, nil, b.d.err
	}
	g, work := b.d.assemble(slices.Clone(b.d.events), slices.Clone(b.d.arcs), slices.Clone(b.d.index.slots))
	return g, work, nil
}

// validated returns the assembled graph if it passes Validate, which
// reuses the workspace of its assembly.
func validated(g *Graph, work []int32, err error) (*Graph, error) {
	if err == nil {
		err = g.validate(work)
	}
	if err != nil {
		return nil, err
	}
	return g, nil
}

// assemble makes the Graph of events, arcs and name index slots, which
// it takes over, under the builder's names: each Event.Name is a
// substring of one string made of the arena. It derives the Graph's
// indexes (CSR adjacency, initial events, repetitive and border sets,
// period order) and returns the workspace the period order ran in, for
// Validate to reuse.
func (b *DenseBuilder) assemble(events []Event, arcs []Arc, slots []int32) (*Graph, []int32) {
	names, nrep := string(b.text), 0
	for i := range events {
		ev := &events[i]
		ev.Name = names[b.offs[i]:b.offs[i+1]]
		ev.Signal, ev.Dir = splitName(ev.Name)
		if ev.Repetitive {
			nrep++
		}
	}
	g := &Graph{name: b.name, events: events, arcs: arcs, index: nameIndex{seed: b.index.seed, slots: slots}}
	work := make([]int32, 2*len(events)+len(arcs))
	g.buildCSR(work[2*len(events):])
	g.repetitive = make([]EventID, 0, nrep)
	for i := range g.events {
		ev := &g.events[i]
		if ev.Repetitive {
			g.repetitive = append(g.repetitive, EventID(i))
		} else if g.inOff[i] == g.inOff[i+1] {
			ev.Initial = true
		}
	}
	g.border = g.computeBorder()
	g.topo, g.topoErr = g.computePeriodOrder(work)
	return g, work
}

// workspace returns the int32 scratch of the period order and of
// Validate for g: 2n words for the algorithms, then the target of each
// out-arc record (outPacked order), complemented when the arc is
// marked, so that both read their out-arcs from one array.
func (g *Graph) workspace() []int32 {
	n := len(g.events)
	work := make([]int32, 2*n+len(g.arcs))
	for q, ai := range g.outPacked {
		work[2*n+q] = outTarget(g.arcs[ai])
	}
	return work
}

// outTarget is arc a's entry in a workspace.
func outTarget(a Arc) int32 {
	if a.Marked {
		return ^int32(a.To)
	}
	return int32(a.To)
}

// buildCSR flattens the adjacency into packed CSR arrays: the arc
// indices leaving and entering each event are runs of two shared
// backing arrays, delimited by offset arrays, and the in-arcs additionally get a struct-of-arrays record layout
// (source, delay, marking offset, arc index) grouped by target. Within
// each group records appear in ascending arc index, matching the order
// arcs were added — the tie-breaking order the simulation kernels rely
// on for bit-identical parent selection. It fills outTo as a
// workspace's out-arc targets.
func (g *Graph) buildCSR(outTo []int32) {
	n := len(g.events)
	m := len(g.arcs)
	// Each event's arcs are counted two places up, so that after the
	// prefix sums off[e+1] is where e's run starts. Placing a record
	// advances it, which leaves off[e+1] where e's run ends, as the
	// CSR offsets have it. off[n+1] is spare.
	in := make([]int32, n+2)
	out := make([]int32, n+2)
	for _, a := range g.arcs {
		in[a.To+2]++
		out[a.From+2]++
	}
	for i := 2; i <= n; i++ {
		in[i] += in[i-1]
		out[i] += out[i-1]
	}
	g.inSrc = make([]EventID, m)
	g.inDelay = make([]float64, m)
	g.inMark = make([]int32, m)
	g.inPacked = make([]int, m)
	g.outPacked = make([]int, m)
	for i, a := range g.arcs {
		p := in[a.To+1]
		in[a.To+1]++
		g.inSrc[p] = a.From
		g.inDelay[p] = a.Delay
		if a.Marked {
			g.inMark[p] = 1
		}
		g.inPacked[p] = i
		q := out[a.From+1]
		out[a.From+1]++
		g.outPacked[q] = i
		outTo[q] = outTarget(a)
	}
	g.inOff, g.outOff = in[:n+1:n+1], out[:n+1:n+1]
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
// runs. It works in a workspace: the in-degrees, the heap and the
// out-arc targets.
func (g *Graph) computePeriodOrder(work []int32) ([]EventID, error) {
	n := len(g.events)
	indeg, heap, outTo := work[:n], work[n:n:2*n], work[2*n:]
	clear(indeg)
	for _, a := range g.arcs {
		if !a.Marked {
			indeg[a.To]++
		}
	}
	for i, d := range indeg {
		if d == 0 {
			heap = append(heap, int32(i)) // ascending, so already a heap
		}
	}
	order := make([]EventID, 0, n)
	for len(heap) > 0 {
		var e int32
		e, heap = heapPop(heap)
		order = append(order, EventID(e))
		for _, to := range outTo[g.outOff[e]:g.outOff[e+1]] {
			if to < 0 { // marked
				continue
			}
			indeg[to]--
			if indeg[to] == 0 {
				heap = heapPush(heap, to)
			}
		}
	}
	if len(order) < n {
		return nil, fmt.Errorf("sg: graph %q has an unmarked cycle; no period order exists", g.name)
	}
	return order, nil
}

// heapPush adds e to the binary min-heap h.
func heapPush(h []int32, e int32) []int32 {
	h = append(h, e)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	return h
}

// heapPop removes the least element of the binary min-heap h.
func heapPop(h []int32) (int32, []int32) {
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1] < h[c] {
			c++
		}
		if h[i] <= h[c] {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	return top, h
}

// computeBorder finds the border set: repetitive events with an initially
// marked in-arc. Cycles involve only repetitive events, and every cycle of
// a live graph carries a token whose arc ends in a repetitive event, so
// restricting the border set to repetitive events keeps it a cut set.
func (g *Graph) computeBorder() []EventID {
	var border []EventID
	for _, r := range g.repetitive {
		if slices.Contains(g.inMark[g.inOff[r]:g.inOff[r+1]], 1) {
			border = append(border, r)
		}
	}
	return border
}
