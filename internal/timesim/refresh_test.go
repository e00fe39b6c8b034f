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

// sameTrace fails unless the two traces agree bitwise on times,
// reachedness and parents over the given periods.
func sameTrace(t *testing.T, g *sg.Graph, got, want *timesim.Trace, periods int, label string) {
	t.Helper()
	for p := 0; p < periods; p++ {
		for e := 0; e < g.NumEvents(); e++ {
			ev := sg.EventID(e)
			gv, gok := got.Time(ev, p)
			wv, wok := want.Time(ev, p)
			if gok != wok || (gok && gv != wv && !(math.IsNaN(gv) && math.IsNaN(wv))) {
				t.Errorf("%s: t(%s_%d) = %v/%v, want %v/%v", label, g.Event(ev).Name, p, gv, gok, wv, wok)
			}
			if got.Reached(ev, p) != want.Reached(ev, p) {
				t.Errorf("%s: reached(%s_%d) differs", label, g.Event(ev).Name, p)
			}
			ge, gp, ga, gok2 := got.Parent(ev, p)
			we, wp, wa, wok2 := want.Parent(ev, p)
			if gok2 != wok2 || ge != we || gp != wp || ga != wa {
				t.Errorf("%s: parent(%s_%d) = (%v,%d,%d,%v), want (%v,%d,%d,%v)",
					label, g.Event(ev).Name, p, ge, gp, ga, gok2, we, wp, wa, wok2)
			}
		}
	}
}

// TestScheduleRefreshArcDelay: a compiled schedule whose delay columns
// are refreshed in place produces traces bit-identical to a schedule
// freshly compiled over the modified graph.
func TestScheduleRefreshArcDelay(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(10)
		b := 1 + rng.Intn(n)
		g, err := gen.RandomLive(rng, gen.RandomOptions{
			Events: n, Border: b, ExtraArcs: rng.Intn(2 * n), MaxDelay: 9,
		})
		if err != nil {
			t.Fatalf("RandomLive: %v", err)
		}
		ov := sg.NewOverlay(g)
		sched, err := timesim.Compile(ov.Graph())
		if err != nil {
			t.Fatalf("Compile: %v", err)
		}
		// Edit a few arcs through the overlay, drain into the schedule.
		for k := 0; k < 1+rng.Intn(3); k++ {
			if err := ov.SetDelay(rng.Intn(g.NumArcs()), float64(rng.Intn(10))); err != nil {
				t.Fatalf("SetDelay: %v", err)
			}
		}
		ov.DrainDirty(sched.RefreshArcDelay)

		fresh, err := g.WithDelays(func(i int, _ float64) float64 { return ov.Delay(i) })
		if err != nil {
			t.Fatalf("WithDelays: %v", err)
		}
		freshSched, err := timesim.Compile(fresh)
		if err != nil {
			t.Fatalf("Compile fresh: %v", err)
		}
		periods := b + 1
		opts := timesim.Options{Periods: periods}
		got, err := sched.Run(opts)
		if err != nil {
			t.Fatalf("refreshed Run: %v", err)
		}
		want, err := freshSched.Run(opts)
		if err != nil {
			t.Fatalf("fresh Run: %v", err)
		}
		sameTrace(t, g, got, want, periods, "plain")
		got.Release()
		want.Release()
		for _, origin := range ov.Graph().BorderEvents() {
			g2, err := sched.RunFrom(origin, opts)
			if err != nil {
				t.Fatalf("refreshed RunFrom: %v", err)
			}
			w2, err := freshSched.RunFrom(origin, opts)
			if err != nil {
				t.Fatalf("fresh RunFrom: %v", err)
			}
			sameTrace(t, g, g2, w2, periods, "initiated")
			g2.Release()
			w2.Release()
		}
	}
}

// refreshVsFresh edits the given arcs to the given delays through the
// overlay, drains into the schedule, and asserts both the plain and
// every border-initiated trace against a schedule freshly compiled
// over the edited graph.
func refreshVsFresh(t *testing.T, g *sg.Graph, ov *sg.Overlay, sched *timesim.Schedule, edits map[int]float64, label string) {
	t.Helper()
	for arc, d := range edits {
		if err := ov.SetDelay(arc, d); err != nil {
			t.Fatalf("%s: SetDelay(%d, %g): %v", label, arc, d, err)
		}
	}
	ov.DrainDirty(sched.RefreshArcDelay)
	fresh, err := g.WithDelays(func(i int, _ float64) float64 { return ov.Delay(i) })
	if err != nil {
		t.Fatalf("%s: WithDelays: %v", label, err)
	}
	freshSched, err := timesim.Compile(fresh)
	if err != nil {
		t.Fatalf("%s: Compile fresh: %v", label, err)
	}
	periods := len(g.BorderEvents()) + 2
	opts := timesim.Options{Periods: periods}
	got, err := sched.Run(opts)
	if err != nil {
		t.Fatalf("%s: refreshed Run: %v", label, err)
	}
	want, err := freshSched.Run(opts)
	if err != nil {
		t.Fatalf("%s: fresh Run: %v", label, err)
	}
	sameTrace(t, g, got, want, periods, label+"/plain")
	got.Release()
	want.Release()
	for _, origin := range ov.Graph().BorderEvents() {
		g2, err := sched.RunFrom(origin, opts)
		if err != nil {
			t.Fatalf("%s: refreshed RunFrom: %v", label, err)
		}
		w2, err := freshSched.RunFrom(origin, opts)
		if err != nil {
			t.Fatalf("%s: fresh RunFrom: %v", label, err)
		}
		sameTrace(t, g, g2, w2, periods, label+"/initiated")
		g2.Release()
		w2.Release()
	}
}

// markedMultiArcGraph exercises every record class at once: unmarked
// parallel arcs between one event pair, marked (initial-token) arcs —
// including a parallel marked pair — and a marked self-loop.
func markedMultiArcGraph(t *testing.T) *sg.Graph {
	t.Helper()
	g, err := sg.NewBuilder("refresh-classes").
		Events("a", "b", "c").
		Arc("a", "b", 2).
		Arc("a", "b", 5). // parallel unmarked multi-arc
		Arc("b", "c", 1).
		Arc("c", "a", 3, sg.Marked()).
		Arc("c", "a", 7, sg.Marked()). // parallel marked multi-arc
		Arc("b", "b", 4, sg.Marked()). // marked self-loop
		Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

// TestScheduleRefreshMarkedArc: refreshing a marked (initial-token)
// arc must rewrite its period-1 and steady-state record columns — a
// marked arc has no period-0 record at all, so a refresh that only
// handled the unmarked layout would silently keep the old delay.
func TestScheduleRefreshMarkedArc(t *testing.T) {
	g := markedMultiArcGraph(t)
	ov := sg.NewOverlay(g)
	sched, err := timesim.Compile(ov.Graph())
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	for arc := 0; arc < g.NumArcs(); arc++ {
		if !g.Arc(arc).Marked {
			continue
		}
		refreshVsFresh(t, g, ov, sched, map[int]float64{arc: g.Arc(arc).Delay + 2.5},
			fmt.Sprintf("marked arc %d", arc))
	}
}

// TestScheduleRefreshMultiArc: parallel arcs between the same event
// pair have distinct records; refreshing one must not disturb the
// other, and refreshing both to swapped delays must swap the winner.
func TestScheduleRefreshMultiArc(t *testing.T) {
	g := markedMultiArcGraph(t)
	ov := sg.NewOverlay(g)
	sched, err := timesim.Compile(ov.Graph())
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	// Arcs 0 and 1 are the unmarked a->b pair; 3 and 4 the marked c->a
	// pair. Raise only one of each pair above its sibling…
	refreshVsFresh(t, g, ov, sched, map[int]float64{0: 9}, "unmarked pair, first arc")
	refreshVsFresh(t, g, ov, sched, map[int]float64{3: 11}, "marked pair, first arc")
	// …then swap the delays inside each pair in one drain.
	refreshVsFresh(t, g, ov, sched, map[int]float64{0: 5, 1: 9, 3: 7, 4: 11}, "swapped pairs")
}

// TestScheduleRefreshRepeated: refresh-after-refresh of the same arc —
// including a refresh back to the original delay — always leaves the
// columns at the last written value.
func TestScheduleRefreshRepeated(t *testing.T) {
	g := markedMultiArcGraph(t)
	ov := sg.NewOverlay(g)
	sched, err := timesim.Compile(ov.Graph())
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	const arc = 2 // b->c, unmarked
	for _, d := range []float64{6, 0, 3.25, g.Arc(arc).Delay, 8} {
		refreshVsFresh(t, g, ov, sched, map[int]float64{arc: d},
			fmt.Sprintf("re-refresh to %g", d))
	}
}

// TestScheduleRefreshDelays: the O(m) full refresh re-reads every delay
// from the (overlay) graph, equivalent to per-arc refreshes.
func TestScheduleRefreshDelays(t *testing.T) {
	g, err := gen.Stack(7)
	if err != nil {
		t.Fatalf("Stack: %v", err)
	}
	ov := sg.NewOverlay(g)
	sched, err := timesim.Compile(ov.Graph())
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if err := ov.SetDelays(func(i int, nom float64) float64 { return nom + float64(i%3) }); err != nil {
		t.Fatalf("SetDelays: %v", err)
	}
	sched.RefreshDelays()
	ov.DrainDirty(func(int, float64) {}) // discard: full refresh already applied

	fresh, err := g.WithDelays(func(i int, nom float64) float64 { return nom + float64(i%3) })
	if err != nil {
		t.Fatalf("WithDelays: %v", err)
	}
	freshSched, err := timesim.Compile(fresh)
	if err != nil {
		t.Fatalf("Compile fresh: %v", err)
	}
	periods := len(g.BorderEvents()) + 1
	opts := timesim.Options{Periods: periods}
	got, err := sched.Run(opts)
	if err != nil {
		t.Fatalf("refreshed Run: %v", err)
	}
	want, err := freshSched.Run(opts)
	if err != nil {
		t.Fatalf("fresh Run: %v", err)
	}
	sameTrace(t, g, got, want, periods, "full-refresh")
}
