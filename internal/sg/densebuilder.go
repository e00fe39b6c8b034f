package sg

import (
	"fmt"
	"math"
	"slices"
)

// DenseBuilder is the streamed construction path for huge graphs and
// for the .tsg reader. Callers give the expected element counts up
// front; events and arcs stream into slices of that capacity (growing
// past it if need be), and Build hands those slices and the name index
// to the Graph without copying them, as the chaining Builder must (at
// 10⁶ events a copy roughly doubles the peak footprint of
// construction). Build runs the same Validate as the chaining Builder.
//
// A DenseBuilder must not be reused after Build.
type DenseBuilder struct {
	name   string
	events []Event
	arcs   []Arc
	byName map[string]EventID
	err    error
	built  bool
}

// NewDenseBuilder returns a builder sized for the given element counts.
// The counts are capacity hints: going over them grows the slices, and
// Build copies a slice with more than an eighth of its length spare.
// The name index is sized by the event count and never trimmed, so
// that count should not exceed the events added.
func NewDenseBuilder(name string, numEvents, numArcs int) *DenseBuilder {
	return &DenseBuilder{
		name:   name,
		events: make([]Event, 0, numEvents),
		arcs:   make([]Arc, 0, numArcs),
		byName: make(map[string]EventID, numEvents),
	}
}

// AddEvent appends a repetitive event and returns its ID. Names must be
// unique; a duplicate is an error.
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
	// One hash per event: a duplicate leaves the index size unchanged.
	// Overwriting its ID is harmless, as the recorded error ends the build.
	id := EventID(len(b.events))
	n := len(b.byName)
	b.byName[name] = id
	if len(b.byName) == n {
		b.err = fmt.Errorf("sg: duplicate event %q in graph %q", name, b.name)
		return None
	}
	sig, dir := splitName(name)
	b.events = append(b.events, Event{Name: name, Signal: sig, Dir: dir, Repetitive: repetitive})
	return id
}

// AddArc appends an arc between two already-added events.
func (b *DenseBuilder) AddArc(from, to EventID, delay float64, marked bool) {
	b.addArc(from, to, delay, marked, false)
}

// AddOnceArc appends a disengageable (unmarked) arc.
func (b *DenseBuilder) AddOnceArc(from, to EventID, delay float64) {
	b.addArc(from, to, delay, false, true)
}

// addArc appends the arc and reports whether it was added.
func (b *DenseBuilder) addArc(from, to EventID, delay float64, marked, once bool) bool {
	if b.err != nil {
		return false
	}
	if from < 0 || int(from) >= len(b.events) || to < 0 || int(to) >= len(b.events) {
		b.err = fmt.Errorf("sg: arc references unknown event ID in graph %q", b.name)
		return false
	}
	if delay < 0 || math.IsNaN(delay) {
		b.err = fmt.Errorf("sg: delay %g on arc %s -> %s in graph %q: want a non-negative delay",
			delay, b.events[from].Name, b.events[to].Name, b.name)
		return false
	}
	b.arcs = append(b.arcs, Arc{From: from, To: to, Delay: delay, Marked: marked, Once: once})
	return true
}

// AddArcNamed appends an arc between two already-added events given by
// name, with Builder.Arc's checks and error messages. The names are
// looked up as bytes, so a reader can pass slices of its input without
// converting them to strings.
func (b *DenseBuilder) AddArcNamed(from, to []byte, delay float64, marked, once bool) {
	addArcNamed(b, from, to, delay, marked, once)
}

// addArcNamed resolves the endpoint names and appends the arc. It
// reports whether the arc was added.
func addArcNamed[S string | []byte](b *DenseBuilder, from, to S, delay float64, marked, once bool) bool {
	if b.err != nil {
		return false
	}
	src, ok := b.byName[string(from)]
	if !ok {
		b.err = fmt.Errorf("sg: arc references unknown event %q in graph %q", from, b.name)
		return false
	}
	dst, ok := b.byName[string(to)]
	if !ok {
		b.err = fmt.Errorf("sg: arc references unknown event %q in graph %q", to, b.name)
		return false
	}
	return b.addArc(src, dst, delay, marked, once)
}

// Err returns the first error recorded so far, if any.
func (b *DenseBuilder) Err() error { return b.err }

// Build validates the accumulated structure and returns the immutable
// Graph, taking ownership of the builder's slices (no copies unless
// they have capacity to trim).
func (b *DenseBuilder) Build() (*Graph, error) { return validated(b.assembleDense()) }

// BuildUnchecked assembles the Graph without semantic validation, like
// Builder.BuildUnchecked.
func (b *DenseBuilder) BuildUnchecked() (*Graph, error) { return b.assembleDense() }

func (b *DenseBuilder) assembleDense() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	if b.built {
		return nil, fmt.Errorf("sg: DenseBuilder for graph %q used after Build", b.name)
	}
	b.built = true
	if spare(b.events) {
		b.events = slices.Clone(b.events)
	}
	if spare(b.arcs) {
		b.arcs = slices.Clone(b.arcs)
	}
	g := assemble(b.name, b.events, b.arcs, b.byName)
	b.events, b.arcs, b.byName = nil, nil, nil
	return g, nil
}

// spare reports whether s has more than an eighth of its length in
// unused capacity.
func spare[T any](s []T) bool { return cap(s)-len(s) > len(s)/8 }
