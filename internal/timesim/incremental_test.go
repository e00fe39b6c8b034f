package timesim_test

import (
	"fmt"
	"math/rand"
	"testing"

	"tsg/internal/gen"
	"tsg/internal/sg"
	"tsg/internal/timesim"
)

// patchRound edits 1..3 random arcs through the overlay, drains the
// dirty set into the schedule, and returns the dirty arc list.
func patchRound(t *testing.T, rng *rand.Rand, ov *sg.Overlay, sched *timesim.Schedule) []int {
	t.Helper()
	for k := 0; k < 1+rng.Intn(3); k++ {
		arc := rng.Intn(ov.NumArcs())
		var d float64
		switch rng.Intn(3) {
		case 0:
			d = float64(rng.Intn(10)) // integral jump, often 0
		case 1:
			d = ov.Delay(arc) * (0.5 + rng.Float64()) // scale around current
		default:
			d = ov.Delay(arc) // no-op edit: the cone must stop immediately
		}
		if err := ov.SetDelay(arc, d); err != nil {
			t.Fatalf("SetDelay: %v", err)
		}
	}
	var dirty []int
	ov.DrainDirty(func(arc int, delay float64) {
		sched.RefreshArcDelay(arc, delay)
		dirty = append(dirty, arc)
	})
	return dirty
}

// TestPatchMatchesFreshRun: a committed trace patched through the
// dirty cone is bit-identical to a fresh simulation of a schedule
// compiled over the edited graph — plain and event-initiated, across
// several successive edit rounds. The patched traces' derived parents
// are also checked against the reference kernel's recorded ones.
func TestPatchMatchesFreshRun(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 15; trial++ {
		n := 3 + rng.Intn(12)
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
		periods := b + 2
		opts := timesim.Options{Periods: periods}

		// The committed traces: one plain, one initiated per border event.
		plain, err := sched.Run(opts)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		borders := ov.Graph().BorderEvents()
		initiated := make([]*timesim.Trace, len(borders))
		for i, ev := range borders {
			if initiated[i], err = sched.RunFrom(ev, opts); err != nil {
				t.Fatalf("RunFrom: %v", err)
			}
		}

		for round := 0; round < 4; round++ {
			dirty := patchRound(t, rng, ov, sched)
			if _, err := sched.Patch(plain, dirty); err != nil {
				t.Fatalf("Patch plain: %v", err)
			}
			for _, tr := range initiated {
				if _, err := sched.Patch(tr, dirty); err != nil {
					t.Fatalf("Patch initiated: %v", err)
				}
			}
			fresh, err := g.WithDelays(func(i int, _ float64) float64 { return ov.Delay(i) })
			if err != nil {
				t.Fatalf("WithDelays: %v", err)
			}
			freshSched, err := timesim.Compile(fresh)
			if err != nil {
				t.Fatalf("Compile fresh: %v", err)
			}
			want, err := freshSched.Run(opts)
			if err != nil {
				t.Fatalf("fresh Run: %v", err)
			}
			sameTrace(t, g, plain, want, periods, "patched plain")
			want.Release()
			ref, err := timesim.ReferenceRun(fresh, opts)
			if err != nil {
				t.Fatalf("ReferenceRun: %v", err)
			}
			sameTrace(t, g, plain, ref, periods, "patched plain vs reference")
			for i, ev := range borders {
				want, err := freshSched.RunFrom(ev, opts)
				if err != nil {
					t.Fatalf("fresh RunFrom: %v", err)
				}
				sameTrace(t, g, initiated[i], want, periods, "patched initiated")
				want.Release()
				ref, err := timesim.ReferenceRunFrom(fresh, ev, opts)
				if err != nil {
					t.Fatalf("ReferenceRunFrom: %v", err)
				}
				sameTrace(t, g, initiated[i], ref, periods, "patched initiated vs reference")
			}
		}
	}
}

// TestPatchMarkedAndMultiArc pins the dirty-cone seeding on the record
// classes a plain refresh test cannot reach together: a marked
// (initial-token) arc, parallel multi-arcs between one event pair, and
// a marked self-loop, each edited in turn and patched.
func TestPatchMarkedAndMultiArc(t *testing.T) {
	g, err := sg.NewBuilder("patch-classes").
		Events("a", "b", "c").
		Arc("a", "b", 2).
		Arc("a", "b", 5). // parallel unmarked multi-arc, same pair
		Arc("b", "c", 1).
		Arc("c", "a", 3, sg.Marked()).
		Arc("b", "b", 4, sg.Marked()). // marked self-loop
		Arc("c", "a", 7, sg.Marked()). // parallel marked multi-arc
		Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	ov := sg.NewOverlay(g)
	sched, err := timesim.Compile(ov.Graph())
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	const periods = 5
	opts := timesim.Options{Periods: periods}
	tr, err := sched.Run(opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for arc := 0; arc < g.NumArcs(); arc++ {
		for _, d := range []float64{0, 1.5, 10} {
			if err := ov.SetDelay(arc, d); err != nil {
				t.Fatalf("SetDelay: %v", err)
			}
			var dirty []int
			ov.DrainDirty(func(a int, delay float64) {
				sched.RefreshArcDelay(a, delay)
				dirty = append(dirty, a)
			})
			if _, err := sched.Patch(tr, dirty); err != nil {
				t.Fatalf("Patch: %v", err)
			}
			fresh, err := g.WithDelays(func(i int, _ float64) float64 { return ov.Delay(i) })
			if err != nil {
				t.Fatalf("WithDelays: %v", err)
			}
			freshSched, err := timesim.Compile(fresh)
			if err != nil {
				t.Fatalf("Compile fresh: %v", err)
			}
			want, err := freshSched.Run(opts)
			if err != nil {
				t.Fatalf("fresh Run: %v", err)
			}
			sameTrace(t, g, tr, want, periods, "patched")
			want.Release()
		}
	}
}

// TestPatchErrors: misuse is rejected without corrupting anything.
func TestPatchErrors(t *testing.T) {
	g := gen.Oscillator()
	ov := sg.NewOverlay(g)
	sched, err := timesim.Compile(ov.Graph())
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	other, err := timesim.Compile(g)
	if err != nil {
		t.Fatalf("Compile other: %v", err)
	}
	tr, err := sched.Run(timesim.Options{Periods: 3})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if _, err := other.Patch(tr, nil); err == nil {
		t.Error("Patch accepted a trace from a different schedule")
	}
	if _, err := sched.Patch(tr, []int{-1}); err == nil {
		t.Error("Patch accepted a negative dirty arc")
	}
	if _, err := sched.Patch(tr, []int{g.NumArcs()}); err == nil {
		t.Error("Patch accepted an out-of-range dirty arc")
	}
	if _, err := sched.Patch(tr, nil); err != nil {
		t.Errorf("empty Patch failed: %v", err)
	}
	tr.Release()
	if _, err := sched.Patch(tr, nil); err == nil {
		t.Error("Patch accepted a released trace")
	}
}

// TestPatchConeHitsOriginAndUnreached pins the two pinned cases the
// patch walk meets inside a dirty cone, from origin a: the initiating
// instantiation a_0, whose unmarked in-arc x→a is edited (t_a(a_0)
// stays 0 by definition), and x_0, which a never precedes (its only
// period-0 source is the non-repetitive n; editing n→x recomputes x_0,
// which must stay pinned and unreached). Each edit is patched into the
// initiated trace and compared bit for bit, parents included, with a
// fresh RunFrom and with the reference kernel.
func TestPatchConeHitsOriginAndUnreached(t *testing.T) {
	g, err := sg.NewBuilder("patch-pinned").
		Events("a", "b", "x").
		Event("n", sg.NonRepetitive()).
		Arc("a", "b", 2).              // 0
		Arc("b", "x", 3, sg.Marked()). // 1
		Arc("x", "a", 4).              // 2: into the origin
		Arc("n", "x", 5, sg.Once()).   // 3: into the never-reached x_0
		Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	ov := sg.NewOverlay(g)
	sched, err := timesim.Compile(ov.Graph())
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	const periods = 6
	opts := timesim.Options{Periods: periods}
	tr, err := sched.RunFrom(0, opts)
	if err != nil {
		t.Fatalf("RunFrom: %v", err)
	}
	if tr.Reached(2, 0) || !tr.Reached(2, 1) {
		t.Fatal("fixture broken: want x_0 unreached and x_1 reached from a_0")
	}
	for _, edit := range []struct {
		arc int
		d   float64
	}{{2, 9}, {3, 1}, {2, 0}, {1, 0.5}, {3, 7}, {0, 6}} {
		if err := ov.SetDelay(edit.arc, edit.d); err != nil {
			t.Fatalf("SetDelay: %v", err)
		}
		var dirty []int
		ov.DrainDirty(func(a int, delay float64) {
			sched.RefreshArcDelay(a, delay)
			dirty = append(dirty, a)
		})
		st, err := sched.Patch(tr, dirty)
		if err != nil {
			t.Fatalf("Patch: %v", err)
		}
		if st.Recomputed == 0 {
			t.Fatalf("arc %d: empty dirty cone", edit.arc)
		}
		fresh, err := g.WithDelays(func(i int, _ float64) float64 { return ov.Delay(i) })
		if err != nil {
			t.Fatalf("WithDelays: %v", err)
		}
		want, err := timesim.RunFrom(fresh, 0, opts)
		if err != nil {
			t.Fatalf("fresh RunFrom: %v", err)
		}
		sameTrace(t, g, tr, want, periods, fmt.Sprintf("arc %d", edit.arc))
		ref, err := timesim.ReferenceRunFrom(fresh, 0, opts)
		if err != nil {
			t.Fatalf("ReferenceRunFrom: %v", err)
		}
		sameTrace(t, g, tr, ref, periods, fmt.Sprintf("arc %d vs reference", edit.arc))
	}
}
