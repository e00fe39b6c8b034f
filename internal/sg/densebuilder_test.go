package sg

import (
	"fmt"
	"math"
	"strconv"
	"testing"
)

// TestDenseBuilderMatchesBuilder builds the same small graph through
// both construction paths and checks every derived structure agrees.
func TestDenseBuilderMatchesBuilder(t *testing.T) {
	chain := NewBuilder("twin").
		Events("a+", "a-", "b+", "b-").
		Arc("a+", "b+", 2).
		Arc("b+", "a-", 1).
		Arc("a-", "b-", 2).
		Arc("b-", "a+", 1, Marked()).
		Arc("a+", "a-", 3).
		Arc("b+", "b-", 3)
	want, err := chain.Build()
	if err != nil {
		t.Fatal(err)
	}

	d := NewDenseBuilder("twin", 4, 6)
	ap := d.AddEvent("a+")
	am := d.AddEvent("a-")
	bp := d.AddEvent("b+")
	bm := d.AddEvent("b-")
	d.AddArc(ap, bp, 2, false)
	d.AddArc(bp, am, 1, false)
	d.AddArc(am, bm, 2, false)
	d.AddArc(bm, ap, 1, true)
	d.AddArc(ap, am, 3, false)
	d.AddArc(bp, bm, 3, false)
	got, err := d.Build()
	if err != nil {
		t.Fatal(err)
	}

	if Fingerprint(got) != Fingerprint(want) {
		t.Fatalf("dense build fingerprint %s != chaining build %s", Fingerprint(got), Fingerprint(want))
	}
	if got.NumEvents() != want.NumEvents() || got.NumArcs() != want.NumArcs() {
		t.Fatalf("size mismatch: %v vs %v", got, want)
	}
	gw, _ := want.PeriodOrder()
	gg, _ := got.PeriodOrder()
	for i := range gw {
		if gw[i] != gg[i] {
			t.Fatalf("period order differs at %d: %v vs %v", i, gg, gw)
		}
	}
	if len(got.BorderEvents()) != len(want.BorderEvents()) {
		t.Fatalf("border differs: %v vs %v", got.BorderEvents(), want.BorderEvents())
	}
	if id, ok := got.EventByName("b-"); !ok || id != bm {
		t.Fatalf("EventByName(b-) = %d,%v", id, ok)
	}
}

// TestDenseBuilderHints: the counts given to NewDenseBuilder are hints.
// Going over them grows the slices, and a hint far above the graph
// leaves no spare slice capacity in the built Graph.
func TestDenseBuilderHints(t *testing.T) {
	for _, c := range []struct{ events, arcs int }{{1, 1}, {0, 0}, {1 << 16, 1 << 16}} {
		d := NewDenseBuilder("hint", c.events, c.arcs)
		a, b, x := d.AddEvent("a+"), d.AddEvent("a-"), d.AddNonRepetitiveEvent("x")
		d.AddArc(a, b, 1, false)
		d.AddArc(b, a, 1, true)
		d.AddOnceArc(x, a, 2)
		g, err := d.Build()
		if err != nil {
			t.Fatalf("hints %v: %v", c, err)
		}
		if cap(g.events) > len(g.events)+len(g.events)/8 || cap(g.arcs) > len(g.arcs)+len(g.arcs)/8 {
			t.Fatalf("hints %v: built graph keeps capacity %d/%d events, %d/%d arcs",
				c, cap(g.events), len(g.events), cap(g.arcs), len(g.arcs))
		}
		for i, name := range []string{"a+", "a-", "x"} {
			if id, ok := g.EventByName(name); !ok || id != EventID(i) {
				t.Fatalf("hints %v: EventByName(%q) = %d, %v", c, name, id, ok)
			}
		}
	}
}

func TestDenseBuilderErrors(t *testing.T) {
	for _, c := range []struct {
		name string
		add  func(d *DenseBuilder)
		want string
	}{
		{"duplicate", func(d *DenseBuilder) { d.AddEvent("x"); d.AddEvent("y"); d.AddEvent("x") },
			`sg: duplicate event "x" in graph "d"`},
		{"empty name", func(d *DenseBuilder) { d.AddEvent("") },
			`sg: empty event name in graph "d"`},
		{"range", func(d *DenseBuilder) { a := d.AddEvent("x"); d.AddArc(a, 7, 1, false) },
			`sg: arc references unknown event ID in graph "d"`},
		{"negative", func(d *DenseBuilder) { a := d.AddEvent("x"); d.AddArc(a, a, -2, true) },
			`sg: delay -2 on arc x -> x in graph "d": want a non-negative delay`},
		{"NaN", func(d *DenseBuilder) { a := d.AddEvent("x"); d.AddOnceArc(a, a, math.NaN()) },
			`sg: delay NaN on arc x -> x in graph "d": want a non-negative delay`},
	} {
		d := NewDenseBuilder("d", 4, 4)
		c.add(d)
		if _, err := d.Build(); fmt.Sprint(err) != c.want {
			t.Errorf("%s: got %v, want %q", c.name, err, c.want)
		}
	}

	d := NewDenseBuilder("reuse", 1, 1)
	a := d.AddEvent("x")
	d.AddArc(a, a, 1, true)
	if _, err := d.Build(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Build(); err == nil {
		t.Fatal("expected reuse-after-Build error")
	}
}

// TestDenseBuilderAllocations pins the construction cost: element
// streaming must not reallocate the declared slices.
func TestDenseBuilderAllocations(t *testing.T) {
	const n = 2000
	d := NewDenseBuilder("ring", n, n)
	ids := make([]EventID, n)
	for i := 0; i < n; i++ {
		ids[i] = d.AddEvent("e" + strconv.Itoa(i))
	}
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < n; i++ {
			d.AddArc(ids[i], ids[(i+1)%n], 1, i == 0)
		}
		d.arcs = d.arcs[:0]
	})
	if allocs > 0 {
		t.Fatalf("AddArc allocated %.0f times per %d arcs, want 0", allocs, n)
	}
	for i := 0; i < n; i++ {
		d.AddArc(ids[i], ids[(i+1)%n], 1, i == 0)
	}
	g, err := d.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(g.BorderEvents()); got != 1 {
		t.Fatalf("border = %d events, want 1", got)
	}
}
