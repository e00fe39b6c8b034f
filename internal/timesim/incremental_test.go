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

// traceReads reads every event of every lane back from a lane trace:
// got[l][e][j] = t_{origins[l]}(e_j) for j = 0..periods.
func traceReads(t *testing.T, lt *timesim.LaneTrace, lanes, n, periods int) [][][]float64 {
	t.Helper()
	got := make([][][]float64, lanes)
	var reads []timesim.Read
	for l := range got {
		got[l] = make([][]float64, n)
		for e := range got[l] {
			got[l][e] = make([]float64, periods+1)
			reads = append(reads, timesim.Read{Lane: l, Event: sg.EventID(e), Out: got[l][e]})
		}
	}
	if err := lt.Read(reads); err != nil {
		t.Fatalf("Read: %v", err)
	}
	return got
}

// diffLaneTrace checks every lane of lt in every period, bit for bit
// and NaN pattern included, against a fresh lane trace of a schedule
// compiled over g (the edited graph) and against ReferenceRunFrom of g
// from the lane's origin, read through Time/Reached.
func diffLaneTrace(t *testing.T, g *sg.Graph, lt *timesim.LaneTrace, origins []sg.EventID, periods int, label string) {
	t.Helper()
	n := g.NumEvents()
	got := traceReads(t, lt, len(origins), n, periods)
	fresh, err := timesim.Compile(g)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	flt, err := fresh.RunLaneTrace(origins, periods)
	if err != nil {
		t.Fatalf("RunLaneTrace: %v", err)
	}
	want := traceReads(t, flt, len(origins), n, periods)
	for l, o := range origins {
		ref, err := timesim.ReferenceRunFrom(g, o, timesim.Options{Periods: periods + 1})
		if err != nil {
			t.Fatalf("ReferenceRunFrom: %v", err)
		}
		for e := range got[l] {
			for j, v := range got[l][e] {
				r := math.NaN()
				if tv, ok := ref.Time(sg.EventID(e), j); ok && ref.Reached(sg.EventID(e), j) {
					r = tv
				}
				if math.Float64bits(v) != math.Float64bits(want[l][e][j]) || math.Float64bits(v) != math.Float64bits(r) {
					t.Fatalf("%s: origin %s lane %d/%d: t(%s_%d) patched %v, fresh %v, reference %v",
						label, g.Event(o).Name, l, len(origins), g.Event(sg.EventID(e)).Name, j, v, want[l][e][j], r)
				}
			}
		}
	}
}

// drain refreshes the schedule from the overlay's dirty set and
// returns the dirty arcs.
func drain(ov *sg.Overlay, sched *timesim.Schedule) []int {
	var dirty []int
	ov.DrainDirty(func(arc int, delay float64) {
		sched.RefreshArcDelay(arc, delay)
		dirty = append(dirty, arc)
	})
	return dirty
}

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
	return drain(ov, sched)
}

// TestPatchMatchesFreshRun: lane traces patched through the dirty cone
// are bit-identical to fresh lane traces of a schedule compiled over
// the edited graph, and to the reference kernel, across several
// successive edit rounds — every border event, in chunks of four as
// pass 1 runs them, and every event as one chunk of up to sixteen.
// Both patch paths run: cones under the flood budget and floods.
func TestPatchMatchesFreshRun(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var floods, local int
	for trial := 0; trial < 15; trial++ {
		n := 3 + rng.Intn(40)
		b := 1 + rng.Intn(min(n, 9))
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
		periods := b + 1
		borders := ov.Graph().BorderEvents()
		var chunks [][]sg.EventID
		for lo := 0; lo < len(borders); lo += 4 {
			chunks = append(chunks, borders[lo:min(lo+4, len(borders))])
		}
		all := make([]sg.EventID, min(n, 16))
		for i := range all {
			all[i] = sg.EventID(i)
		}
		chunks = append(chunks, all)
		traces := make([]*timesim.LaneTrace, len(chunks))
		for i, c := range chunks {
			if traces[i], err = sched.RunLaneTrace(c, periods); err != nil {
				t.Fatalf("RunLaneTrace: %v", err)
			}
		}
		for round := 0; round < 4; round++ {
			dirty := patchRound(t, rng, ov, sched)
			for i, lt := range traces {
				st, err := sched.Patch(lt, dirty)
				if err != nil {
					t.Fatalf("Patch: %v", err)
				}
				if st.Flooded {
					floods++
				} else if st.Recomputed > 0 {
					local++
				}
				diffLaneTrace(t, ov.Graph(), lt, chunks[i], periods, fmt.Sprintf("trial %d round %d chunk %d", trial, round, i))
			}
		}
	}
	if floods == 0 || local == 0 {
		t.Fatalf("patch paths not both covered: %d floods, %d cones under the budget", floods, local)
	}
}

// TestPatchMarkedAndMultiArc pins the dirty-cone seeding on the record
// classes a plain refresh test cannot reach together: a marked
// (initial-token) arc, parallel multi-arcs between one event pair, and
// a marked self-loop, each edited in turn and patched into a lane
// trace from every event.
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
	origins := []sg.EventID{0, 1, 2}
	lt, err := sched.RunLaneTrace(origins, periods)
	if err != nil {
		t.Fatalf("RunLaneTrace: %v", err)
	}
	for arc := 0; arc < g.NumArcs(); arc++ {
		for _, d := range []float64{0, 1.5, 10} {
			if err := ov.SetDelay(arc, d); err != nil {
				t.Fatalf("SetDelay: %v", err)
			}
			if _, err := sched.Patch(lt, drain(ov, sched)); err != nil {
				t.Fatalf("Patch: %v", err)
			}
			diffLaneTrace(t, ov.Graph(), lt, origins, periods, fmt.Sprintf("arc %d = %v", arc, d))
		}
	}
}

// TestPatchErrors: misuse is rejected without corrupting anything, and
// lane traces and their reads are validated like RunFromOrigins.
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
	origins := g.BorderEvents()
	lt, err := sched.RunLaneTrace(origins, 3)
	if err != nil {
		t.Fatalf("RunLaneTrace: %v", err)
	}
	if _, err := other.Patch(lt, nil); err == nil {
		t.Error("Patch accepted a lane trace from a different schedule")
	}
	if _, err := sched.Patch(lt, []int{-1}); err == nil {
		t.Error("Patch accepted a negative dirty arc")
	}
	if _, err := sched.Patch(lt, []int{g.NumArcs()}); err == nil {
		t.Error("Patch accepted an out-of-range dirty arc")
	}
	if _, err := sched.Patch(lt, nil); err != nil {
		t.Errorf("empty Patch failed: %v", err)
	}
	diffLaneTrace(t, ov.Graph(), lt, origins, 3, "after rejected patches")
	for _, c := range []struct {
		origins []sg.EventID
		periods int
	}{{nil, 3}, {[]sg.EventID{-1}, 3}, {[]sg.EventID{sg.EventID(g.NumEvents())}, 3}, {origins, 0}} {
		if _, err := sched.RunLaneTrace(c.origins, c.periods); err == nil {
			t.Errorf("RunLaneTrace(%v, %d) accepted", c.origins, c.periods)
		}
	}
	for _, r := range []timesim.Read{
		{Lane: len(origins), Event: 0, Out: make([]float64, 4)},
		{Lane: 0, Event: sg.EventID(g.NumEvents()), Out: make([]float64, 4)},
		{Lane: 0, Event: 0, Out: make([]float64, 3)},
	} {
		if err := lt.Read([]timesim.Read{r}); err == nil {
			t.Errorf("Read accepted %+v", r)
		}
	}
}

// TestPatchConeHitsOriginAndUnreached pins the two pinned cases the
// patch walk meets inside a dirty cone, in one lane trace from a and
// x: editing x→a recomputes a_0, lane a's own origin (t_a(a_0) stays 0
// by definition); editing n→x recomputes x_0, lane x's origin and an
// instantiation lane a never reaches (its only period-0 source is the
// non-repetitive n), which must stay unreached there. Each edit is
// patched and compared bit for bit with a fresh lane trace and with
// the reference kernel.
func TestPatchConeHitsOriginAndUnreached(t *testing.T) {
	g, err := sg.NewBuilder("patch-pinned").
		Events("a", "b", "x").
		Event("n", sg.NonRepetitive()).
		Arc("a", "b", 2).              // 0
		Arc("b", "x", 3, sg.Marked()). // 1
		Arc("x", "a", 4).              // 2: into the origin a
		Arc("n", "x", 5, sg.Once()).   // 3: into x_0, unreached from a
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
	origins := []sg.EventID{0, 2} // a, x
	lt, err := sched.RunLaneTrace(origins, periods)
	if err != nil {
		t.Fatalf("RunLaneTrace: %v", err)
	}
	got := traceReads(t, lt, 2, g.NumEvents(), periods)
	if !math.IsNaN(got[0][2][0]) || math.IsNaN(got[0][2][1]) {
		t.Fatal("fixture broken: want x_0 unreached and x_1 reached from a_0")
	}
	for _, edit := range []struct {
		arc int
		d   float64
	}{{2, 9}, {3, 1}, {2, 0}, {1, 0.5}, {3, 7}, {0, 6}} {
		if err := ov.SetDelay(edit.arc, edit.d); err != nil {
			t.Fatalf("SetDelay: %v", err)
		}
		st, err := sched.Patch(lt, drain(ov, sched))
		if err != nil {
			t.Fatalf("Patch: %v", err)
		}
		if st.Recomputed == 0 && !st.Flooded {
			t.Fatalf("arc %d: empty dirty cone", edit.arc)
		}
		diffLaneTrace(t, ov.Graph(), lt, origins, periods, fmt.Sprintf("arc %d", edit.arc))
	}
}

// FuzzPatchLaneTrace is the lane-patch differential: for a seeded
// graph of up to ~130 events (a negative seed links non-repetitive
// events into the core by marked arcs), a lane trace from 1..4 origins
// drawn from the input bytes (non-repetitive ones and repeats
// included), and up to three rounds of dirty arc sets whose new delays
// are zero, fractional, integral, +Inf, unchanged or halved, every lane of the patched
// trace in every period must be bit-identical, NaN pattern included,
// to a fresh lane trace and to ReferenceRunFrom of the edited graph.
// Small graphs flood the patch budget at once; larger ones with few
// dirty arcs keep their cones under it.
func FuzzPatchLaneTrace(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(3), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(int64(7), uint8(40), uint8(1), []byte{9, 17, 33})
	f.Add(int64(-31), uint8(20), uint8(2), []byte{0, 7, 11, 2, 3, 17})
	f.Fuzz(func(t *testing.T, seed int64, size, width uint8, data []byte) {
		g, err := fuzzGraphSized(seed, int(size)%121)
		if err != nil {
			t.Skip(err)
		}
		byteAt := func(i int) byte {
			if len(data) == 0 {
				return byte(i)
			}
			return data[i%len(data)]
		}
		n, m := g.NumEvents(), g.NumArcs()
		origins := make([]sg.EventID, 1+int(width)%4)
		for l := range origins {
			origins[l] = sg.EventID(int(byteAt(l)) % n)
		}
		periods := 1 + int(uint64(seed)%6)
		ov := sg.NewOverlay(g)
		sched, err := timesim.Compile(ov.Graph())
		if err != nil {
			t.Fatalf("Compile: %v", err)
		}
		lt, err := sched.RunLaneTrace(origins, periods)
		if err != nil {
			t.Fatalf("RunLaneTrace: %v", err)
		}
		k := len(origins)
		for round := 0; round < 1+int(byteAt(k))%3; round++ {
			k++
			for arcs := 1 + int(byteAt(k))%4; arcs > 0; arcs-- {
				k++
				b, arc := byteAt(k), int(byteAt(k+1))%m
				d := float64(b % 17)
				switch b % 8 {
				case 0:
					d = 0
				case 1:
					d = math.Inf(1)
				case 2, 3:
					d = float64(b) / 7.25
				case 4:
					d = ov.Delay(arc) // unchanged: the cone stops at once
				case 5:
					d = ov.Delay(arc) / 2
				}
				if err := ov.SetDelay(arc, d); err != nil {
					t.Fatalf("SetDelay: %v", err)
				}
				k++
			}
			if _, err := sched.Patch(lt, drain(ov, sched)); err != nil {
				t.Fatalf("Patch: %v", err)
			}
			diffLaneTrace(t, ov.Graph(), lt, origins, periods, fmt.Sprintf("round %d", round))
		}
	})
}
