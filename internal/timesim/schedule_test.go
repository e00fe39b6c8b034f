package timesim_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tsg/internal/gen"
	"tsg/internal/sg"
	"tsg/internal/timesim"
)

// fixtures returns every generator-family graph the kernels are
// differentially tested on.
func fixtures(t testing.TB) map[string]*sg.Graph {
	t.Helper()
	fx := map[string]*sg.Graph{
		"oscillator": gen.Oscillator(),
	}
	ring, err := gen.MullerRing(5)
	if err != nil {
		t.Fatalf("MullerRing: %v", err)
	}
	fx["ring5"] = ring
	for _, cells := range []int{3, 13} {
		st, err := gen.Stack(cells)
		if err != nil {
			t.Fatalf("Stack(%d): %v", cells, err)
		}
		fx[fmt.Sprintf("stack%d", cells)] = st
	}
	pipe, err := gen.MullerPipeline(6, 2, 1, 1)
	if err != nil {
		t.Fatalf("MullerPipeline: %v", err)
	}
	fx["pipeline6"] = pipe
	return fx
}

// diffTraces fails the test unless the two traces agree bit-for-bit on
// every instantiation: existence, occurrence time, reachedness and the
// parent that realised the max (derived from the times on a compiled
// trace, recorded during the walk on a reference one).
func diffTraces(t *testing.T, g *sg.Graph, got, want *timesim.Trace) {
	t.Helper()
	if got.Periods() != want.Periods() {
		t.Fatalf("periods: got %d, want %d", got.Periods(), want.Periods())
	}
	for p := 0; p < want.Periods(); p++ {
		for e := 0; e < g.NumEvents(); e++ {
			id := sg.EventID(e)
			gv, gok := got.Time(id, p)
			wv, wok := want.Time(id, p)
			if gok != wok || (gok && math.Float64bits(gv) != math.Float64bits(wv)) {
				t.Fatalf("t(%s_%d): got %v,%v want %v,%v",
					g.Event(id).Name, p, gv, gok, wv, wok)
			}
			if gr, wr := got.Reached(id, p), want.Reached(id, p); gr != wr {
				t.Fatalf("reached(%s_%d): got %v, want %v", g.Event(id).Name, p, gr, wr)
			}
			gpe, gpp, gpa, gok := got.Parent(id, p)
			wpe, wpp, wpa, wok := want.Parent(id, p)
			if gpe != wpe || gpp != wpp || gpa != wpa || gok != wok {
				t.Fatalf("parent(%s_%d): got (%d,%d,%d,%v), want (%d,%d,%d,%v)",
					g.Event(id).Name, p, gpe, gpp, gpa, gok, wpe, wpp, wpa, wok)
			}
		}
	}
}

// checkKernelEquivalence compares the compiled kernel against the
// reference on the plain simulation and on the event-initiated
// simulation from every repetitive event.
func checkKernelEquivalence(t *testing.T, g *sg.Graph, periods int) {
	t.Helper()
	sched, err := timesim.Compile(g)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	opts := timesim.Options{Periods: periods}
	got, err := sched.Run(opts)
	if err != nil {
		t.Fatalf("Schedule.Run: %v", err)
	}
	want, err := timesim.ReferenceRun(g, opts)
	if err != nil {
		t.Fatalf("ReferenceRun: %v", err)
	}
	diffTraces(t, g, got, want)
	got.Release()
	for _, origin := range g.RepetitiveEvents() {
		got, err := sched.RunFrom(origin, opts)
		if err != nil {
			t.Fatalf("Schedule.RunFrom(%s): %v", g.Event(origin).Name, err)
		}
		want, err := timesim.ReferenceRunFrom(g, origin, opts)
		if err != nil {
			t.Fatalf("ReferenceRunFrom(%s): %v", g.Event(origin).Name, err)
		}
		diffTraces(t, g, got, want)
		got.Release()
	}
}

// TestCompiledKernelEquivalence is the golden equivalence test of the
// compiled simulation kernel: traces must be bit-identical to the
// reference implementation on every generator fixture. Traces are
// released between runs, so the slab pool's reuse path is exercised at
// the same time — a stale slab shows up as a diff.
func TestCompiledKernelEquivalence(t *testing.T) {
	for name, g := range fixtures(t) {
		t.Run(name, func(t *testing.T) {
			b := len(g.BorderEvents())
			checkKernelEquivalence(t, g, b+1)
		})
	}
}

// TestCompiledKernelEquivalenceRandom extends the differential test to
// seeded random live graphs across a range of shapes.
func TestCompiledKernelEquivalenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1994))
	cases := []gen.RandomOptions{
		{Events: 20, Border: 2, ExtraArcs: 10, MaxDelay: 8},
		{Events: 50, Border: 5, ExtraArcs: 100, MaxDelay: 16},
		{Events: 120, Border: 12, ExtraArcs: 240, MaxDelay: 16},
		{Events: 200, Border: 3, ExtraArcs: 400, MaxDelay: 4},
	}
	for ci, opts := range cases {
		for rep := 0; rep < 3; rep++ {
			g, err := gen.RandomLive(rng, opts)
			if err != nil {
				t.Fatalf("RandomLive(%+v): %v", opts, err)
			}
			t.Run(fmt.Sprintf("case%d_rep%d", ci, rep), func(t *testing.T) {
				periods := opts.Border + 1
				sched, err := timesim.Compile(g)
				if err != nil {
					t.Fatalf("Compile: %v", err)
				}
				simOpts := timesim.Options{Periods: periods}
				for _, origin := range g.BorderEvents() {
					got, err := sched.RunFrom(origin, simOpts)
					if err != nil {
						t.Fatalf("Schedule.RunFrom: %v", err)
					}
					want, err := timesim.ReferenceRunFrom(g, origin, simOpts)
					if err != nil {
						t.Fatalf("ReferenceRunFrom: %v", err)
					}
					diffTraces(t, g, got, want)
					got.Release()
				}
			})
		}
	}
}

// TestScheduleSlabReuse checks that a released slab reused for a
// differently-shaped run (different origin, periods) leaks nothing
// between simulations.
func TestScheduleSlabReuse(t *testing.T) {
	g := gen.Oscillator()
	sched, err := timesim.Compile(g)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	borders := g.BorderEvents()
	if len(borders) < 2 {
		t.Fatal("oscillator needs >= 2 border events")
	}
	// Seed the pool with a larger run.
	tr, err := sched.RunFrom(borders[0], timesim.Options{Periods: 6})
	if err != nil {
		t.Fatal(err)
	}
	tr.Release()
	// A smaller run must match the reference exactly, parents included.
	opts := timesim.Options{Periods: 3}
	got, err := sched.RunFrom(borders[1], opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := timesim.ReferenceRunFrom(g, borders[1], opts)
	if err != nil {
		t.Fatal(err)
	}
	diffTraces(t, g, got, want)
	got.Release()
}

// TestDerivedParentFirstMaxWins pins the tie-break of the derived
// parents: b has two in-records realising the same time and d three
// +Inf delays, one from a source the origin c does not precede. The
// parent must be the first record in arc order attaining the max, as
// the reference kernel records it.
func TestDerivedParentFirstMaxWins(t *testing.T) {
	inf := math.Inf(1)
	g, err := sg.NewBuilder("ties").
		Events("a", "b", "c", "d").
		Arc("a", "c", 1).
		Arc("c", "b", 1). // arc 1: t(c)+1 == t(a)+2, listed first
		Arc("a", "b", 2).
		Arc("a", "d", inf). // arc 3: from a source c does not precede
		Arc("b", "d", inf). // arc 4
		Arc("c", "d", inf).
		Arc("d", "a", 1, sg.Marked()).
		Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	const periods = 3
	checkKernelEquivalence(t, g, periods)

	plain, err := timesim.Run(g, timesim.Options{Periods: periods})
	if err != nil {
		t.Fatal(err)
	}
	b, c, d := g.MustEvent("b"), g.MustEvent("c"), g.MustEvent("d")
	for p := 0; p < periods; p++ {
		if pe, _, arc, ok := plain.Parent(b, p); !ok || pe != c || arc != 1 {
			t.Errorf("plain parent(b_%d) = %d via arc %d (%v), want c via arc 1", p, pe, arc, ok)
		}
	}
	if pe, _, arc, ok := plain.Parent(d, 0); !ok || pe != g.MustEvent("a") || arc != 3 {
		t.Errorf("plain parent(d_0) = %d via arc %d (%v), want a via arc 3", pe, arc, ok)
	}
	from, err := timesim.RunFrom(g, c, timesim.Options{Periods: periods})
	if err != nil {
		t.Fatal(err)
	}
	if pe, _, arc, ok := from.Parent(d, 0); !ok || pe != b || arc != 4 {
		t.Errorf("parent(d_0) from c = %d via arc %d (%v), want b via arc 4", pe, arc, ok)
	}
}
