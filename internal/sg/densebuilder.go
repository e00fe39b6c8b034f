package sg

import (
	"fmt"
	"math"
)

// DenseBuilder is the streamed construction path for huge graphs. The
// chaining Builder is convenient for hand-written fixtures but pays for
// a name map insert per event, an options closure per call and a full
// copy of both element slices at assemble time — at 10⁶ events those
// transients roughly double the peak footprint of construction. The
// DenseBuilder instead works in IDs: callers declare exact element
// counts up front, events and arcs stream into exactly-sized slices,
// and Build transfers ownership of those slices into the Graph without
// copying. Validation is unchanged: Build runs the same Validate as
// the chaining Builder.
//
// A DenseBuilder must not be reused after Build.
type DenseBuilder struct {
	name   string
	events []Event
	arcs   []Arc
	err    error
	built  bool
}

// NewDenseBuilder returns a builder for a graph with exactly the given
// element counts. Exceeding either count is an error (reported by
// Build); staying under is fine.
func NewDenseBuilder(name string, numEvents, numArcs int) *DenseBuilder {
	return &DenseBuilder{
		name:   name,
		events: make([]Event, 0, numEvents),
		arcs:   make([]Arc, 0, numArcs),
	}
}

// AddEvent appends a repetitive event and returns its ID. Names must be
// unique; uniqueness is checked once in Build (against the name index
// the Graph needs anyway), not per call.
func (b *DenseBuilder) AddEvent(name string) EventID {
	return b.addEvent(name, true)
}

// AddNonRepetitiveEvent appends a non-repetitive event.
func (b *DenseBuilder) AddNonRepetitiveEvent(name string) EventID {
	return b.addEvent(name, false)
}

func (b *DenseBuilder) addEvent(name string, repetitive bool) EventID {
	if b.err != nil {
		return None
	}
	if name == "" {
		b.err = fmt.Errorf("sg: empty event name in graph %q", b.name)
		return None
	}
	if len(b.events) == cap(b.events) {
		b.err = fmt.Errorf("sg: graph %q exceeds its declared event count %d", b.name, cap(b.events))
		return None
	}
	sig, dir := splitName(name)
	id := EventID(len(b.events))
	b.events = append(b.events, Event{Name: name, Signal: sig, Dir: dir, Repetitive: repetitive})
	return id
}

// AddArc appends an arc between two already-added events.
func (b *DenseBuilder) AddArc(from, to EventID, delay float64, marked bool) {
	if b.err != nil {
		return
	}
	if from < 0 || int(from) >= len(b.events) || to < 0 || int(to) >= len(b.events) {
		b.err = fmt.Errorf("sg: arc references unknown event ID in graph %q", b.name)
		return
	}
	if delay < 0 || math.IsNaN(delay) {
		b.err = fmt.Errorf("sg: delay %g on arc %d -> %d in graph %q: want a non-negative delay", delay, from, to, b.name)
		return
	}
	if len(b.arcs) == cap(b.arcs) {
		b.err = fmt.Errorf("sg: graph %q exceeds its declared arc count %d", b.name, cap(b.arcs))
		return
	}
	b.arcs = append(b.arcs, Arc{From: from, To: to, Delay: delay, Marked: marked})
}

// AddOnceArc appends a disengageable (unmarked) arc.
func (b *DenseBuilder) AddOnceArc(from, to EventID, delay float64) {
	if b.err != nil {
		return
	}
	b.AddArc(from, to, delay, false)
	if b.err == nil {
		b.arcs[len(b.arcs)-1].Once = true
	}
}

// Err returns the first error recorded so far, if any.
func (b *DenseBuilder) Err() error { return b.err }

// Build validates the accumulated structure and returns the immutable
// Graph, taking ownership of the builder's slices (no copies).
func (b *DenseBuilder) Build() (*Graph, error) {
	g, err := b.assembleDense()
	if err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// BuildUnchecked assembles the Graph without semantic validation, like
// Builder.BuildUnchecked.
func (b *DenseBuilder) BuildUnchecked() (*Graph, error) {
	return b.assembleDense()
}

func (b *DenseBuilder) assembleDense() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	if b.built {
		return nil, fmt.Errorf("sg: DenseBuilder for graph %q used after Build", b.name)
	}
	b.built = true
	g := &Graph{
		name:   b.name,
		events: b.events,
		arcs:   b.arcs,
		byName: make(map[string]EventID, len(b.events)),
	}
	b.events, b.arcs = nil, nil
	for i := range g.events {
		name := g.events[i].Name
		if _, dup := g.byName[name]; dup {
			return nil, fmt.Errorf("sg: duplicate event %q in graph %q", name, g.name)
		}
		g.byName[name] = EventID(i)
	}
	g.buildCSR()
	for i := range g.events {
		if !g.events[i].Repetitive && len(g.in[i]) == 0 {
			g.events[i].Initial = true
		}
	}
	nRep := 0
	for i := range g.events {
		if g.events[i].Repetitive {
			nRep++
		}
	}
	g.repetitive = make([]EventID, 0, nRep)
	for i := range g.events {
		if g.events[i].Repetitive {
			g.repetitive = append(g.repetitive, EventID(i))
		}
	}
	g.border = g.computeBorder()
	g.topo, g.topoErr = g.computePeriodOrder()
	return g, nil
}
