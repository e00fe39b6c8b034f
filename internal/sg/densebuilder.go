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
// construction). Event names are copied into one byte arena as they
// are added, and Build turns the arena into one string that every
// Event.Name and Event.Signal is a substring of. Build runs the same
// Validate as the chaining Builder.
//
// A DenseBuilder must not be reused after Build.
type DenseBuilder struct {
	name   string
	events []Event // Name, Signal and Dir are set by Build
	arcs   []Arc
	text   []byte  // the event names, one after another
	offs   []int32 // event i's name is text[offs[i]:offs[i+1]]
	index  nameIndex
	err    error
	built  bool
}

// NewDenseBuilder returns a builder sized for the given element counts.
// The counts are capacity hints: going over them grows the slices, and
// Build copies a slice with more than an eighth of its length spare and
// shrinks a name index sized for more events than it holds. The name
// arena starts at nameBytes per hinted event and grows as it must; the
// Graph keeps only the bytes of the names.
func NewDenseBuilder(name string, numEvents, numArcs int) *DenseBuilder {
	return &DenseBuilder{
		name:   name,
		events: make([]Event, 0, numEvents),
		arcs:   make([]Arc, 0, numArcs),
		text:   make([]byte, 0, nameBytes*numEvents),
		offs:   append(make([]int32, 0, numEvents+1), 0),
		index:  newNameIndex(numEvents),
	}
}

// nameBytes is the arena's guess at the length of a name.
const nameBytes = 8

// AddEvent appends a repetitive event and returns its ID. Names must be
// unique; a duplicate is an error.
func (b *DenseBuilder) AddEvent(name string) EventID {
	return addEvent(b, name, true)
}

// AddNonRepetitiveEvent appends a non-repetitive event.
func (b *DenseBuilder) AddNonRepetitiveEvent(name string) EventID {
	return addEvent(b, name, false)
}

// AddEventBytes appends an event given its name as bytes, which are
// copied, so a reader can pass a slice of its input.
func (b *DenseBuilder) AddEventBytes(name []byte, repetitive bool) EventID {
	return addEvent(b, name, repetitive)
}

func addEvent[S string | []byte](b *DenseBuilder, name S, repetitive bool) EventID {
	if b.err != nil {
		return None
	}
	if len(name) == 0 {
		b.err = fmt.Errorf("sg: empty event name in graph %q", b.name)
		return None
	}
	h := hashName(b.index.seed, name)
	if find(b, h, name) != None {
		b.err = fmt.Errorf("sg: duplicate event %q in graph %q", name, b.name)
		return None
	}
	if len(b.text)+len(name) > math.MaxInt32 {
		b.err = fmt.Errorf("sg: event names of graph %q exceed %d bytes", b.name, math.MaxInt32)
		return None
	}
	id := EventID(len(b.events))
	b.text = append(b.text, name...)
	b.offs = append(b.offs, int32(len(b.text)))
	b.events = append(b.events, Event{Repetitive: repetitive})
	if 2*len(b.events) > len(b.index.slots) {
		b.reindex()
	} else {
		b.index.place(h, id)
	}
	return id
}

// nameOf returns the name of event id, in the arena.
func (b *DenseBuilder) nameOf(id EventID) []byte { return b.text[b.offs[id]:b.offs[id+1]] }

// find returns the ID of the event named name, whose hash is h, or
// None.
func find[S string | []byte](b *DenseBuilder, h uint64, name S) EventID {
	x := &b.index
	for i := x.home(h); x.slots[i] != 0; i = x.next(i) {
		if id := EventID(x.slots[i] - 1); string(b.nameOf(id)) == string(name) {
			return id
		}
	}
	return None
}

// reindex rebuilds the name index at the size for the events added.
func (b *DenseBuilder) reindex() {
	b.index.slots = make([]int32, indexSize(len(b.events)))
	for id := range b.events {
		b.index.place(hashName(b.index.seed, b.nameOf(EventID(id))), EventID(id))
	}
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
			delay, b.nameOf(from), b.nameOf(to), b.name)
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
	src := find(b, hashName(b.index.seed, from), from)
	if src == None {
		b.err = fmt.Errorf("sg: arc references unknown event %q in graph %q", from, b.name)
		return false
	}
	dst := find(b, hashName(b.index.seed, to), to)
	if dst == None {
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
func (b *DenseBuilder) BuildUnchecked() (*Graph, error) {
	g, _, err := b.assembleDense()
	return g, err
}

func (b *DenseBuilder) assembleDense() (*Graph, []int32, error) {
	if b.err != nil {
		return nil, nil, b.err
	}
	if b.built {
		return nil, nil, fmt.Errorf("sg: DenseBuilder for graph %q used after Build", b.name)
	}
	b.built = true
	if spare(b.events) {
		b.events = slices.Clone(b.events)
	}
	if spare(b.arcs) {
		b.arcs = slices.Clone(b.arcs)
	}
	if len(b.index.slots) > indexSize(len(b.events)) {
		b.reindex()
	}
	g, work := b.assemble(b.events, b.arcs, b.index.slots)
	b.events, b.arcs, b.text, b.offs, b.index.slots = nil, nil, nil, nil, nil
	return g, work, nil
}

// spare reports whether s has more than an eighth of its length in
// unused capacity.
func spare[T any](s []T) bool { return cap(s)-len(s) > len(s)/8 }
