package timesim_test

import (
	"math"
	"strings"
	"testing"

	"tsg/internal/sg"
	"tsg/internal/timesim"
	"tsg/internal/unfold"
)

// oscillator builds the Fig. 1b / Fig. 2c Timed Signal Graph.
func oscillator(t testing.TB) *sg.Graph {
	t.Helper()
	g, err := sg.NewBuilder("oscillator").
		Event("e-", sg.NonRepetitive()).
		Event("f-", sg.NonRepetitive()).
		Events("a+", "a-", "b+", "b-", "c+", "c-").
		Arc("e-", "a+", 2, sg.Once()).
		Arc("e-", "f-", 3).
		Arc("f-", "b+", 1, sg.Once()).
		Arc("a+", "c+", 3).
		Arc("b+", "c+", 2).
		Arc("c+", "a-", 2).
		Arc("c+", "b-", 1).
		Arc("a-", "c-", 3).
		Arc("b-", "c-", 2).
		Arc("c-", "a+", 2, sg.Marked()).
		Arc("c-", "b+", 1, sg.Marked()).
		Build()
	if err != nil {
		t.Fatalf("oscillator: %v", err)
	}
	return g
}

func timeOf(t *testing.T, tr *timesim.Trace, name string, p int) float64 {
	t.Helper()
	v, ok := tr.Time(tr.Graph().MustEvent(name), p)
	if !ok {
		t.Fatalf("no instantiation %s_%d", name, p)
	}
	return v
}

// TestExample3 checks the plain timing simulation against the table of
// Example 3: t(e-0 f-0 a+0 b+0 c+0 a-0 b-0 c-0 a+1 b+1 c+1) =
// 0 3 2 4 6 8 7 11 13 12 16.
func TestExample3(t *testing.T) {
	g := oscillator(t)
	tr, err := timesim.Run(g, timesim.Options{Periods: 2})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []struct {
		name string
		p    int
		t    float64
	}{
		{"e-", 0, 0}, {"f-", 0, 3}, {"a+", 0, 2}, {"b+", 0, 4}, {"c+", 0, 6},
		{"a-", 0, 8}, {"b-", 0, 7}, {"c-", 0, 11},
		{"a+", 1, 13}, {"b+", 1, 12}, {"c+", 1, 16},
	}
	for _, w := range want {
		if got := timeOf(t, tr, w.name, w.p); got != w.t {
			t.Errorf("t(%s_%d) = %g, want %g (Example 3)", w.name, w.p, got, w.t)
		}
	}
}

// TestExample4 checks the b+0-initiated simulation against Example 4:
// t_{b+0}(b+0 c+0 a-0 b-0 c-0 a+1 b+1 c+1) = 0 2 4 3 7 9 8 12, with
// e-0, f-0, a+0 pinned to 0 and unreached.
func TestExample4(t *testing.T) {
	g := oscillator(t)
	tr, err := timesim.RunFrom(g, g.MustEvent("b+"), timesim.Options{Periods: 2})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []struct {
		name string
		p    int
		t    float64
	}{
		{"b+", 0, 0}, {"c+", 0, 2}, {"a-", 0, 4}, {"b-", 0, 3}, {"c-", 0, 7},
		{"a+", 1, 9}, {"b+", 1, 8}, {"c+", 1, 12},
	}
	for _, w := range want {
		if got := timeOf(t, tr, w.name, w.p); got != w.t {
			t.Errorf("t_b+0(%s_%d) = %g, want %g (Example 4)", w.name, w.p, got, w.t)
		}
	}
	for _, name := range []string{"e-", "f-", "a+"} {
		if got := timeOf(t, tr, name, 0); got != 0 {
			t.Errorf("t_b+0(%s_0) = %g, want 0 (not preceded)", name, got)
		}
		if tr.Reached(g.MustEvent(name), 0) {
			t.Errorf("%s_0 reported reached from b+0", name)
		}
	}
	if !tr.Reached(g.MustEvent("b+"), 0) {
		t.Error("origin b+_0 not reached")
	}
}

// TestTableVIIIC checks the a+0-initiated simulation of §VIII.C:
// t_{a+0}(a+0 b+0 c+0 a-0 b-0 c-0 a+1 b+1 ... c-1 a+2 b+2) =
// 0 0 3 5 4 8 10 9 ... 18 20 19, and the δ values 10, 10.
func TestTableVIIIC(t *testing.T) {
	g := oscillator(t)
	tr, err := timesim.RunFrom(g, g.MustEvent("a+"), timesim.Options{Periods: 3})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []struct {
		name string
		p    int
		t    float64
	}{
		{"a+", 0, 0}, {"b+", 0, 0}, {"c+", 0, 3}, {"a-", 0, 5}, {"b-", 0, 4},
		{"c-", 0, 8}, {"a+", 1, 10}, {"b+", 1, 9}, {"c-", 1, 18},
		{"a+", 2, 20}, {"b+", 2, 19},
	}
	for _, w := range want {
		if got := timeOf(t, tr, w.name, w.p); got != w.t {
			t.Errorf("t_a+0(%s_%d) = %g, want %g (§VIII.C)", w.name, w.p, got, w.t)
		}
	}
	for j, wantD := range map[int]float64{1: 10, 2: 10} {
		d, err := tr.Distance(j)
		if err != nil {
			t.Fatalf("Distance(%d): %v", j, err)
		}
		if d != wantD {
			t.Errorf("δ_a+0(a+%d) = %g, want %g", j, d, wantD)
		}
	}

	// And the b+-initiated distances of §VIII.C: 8 and 9.
	trb, err := timesim.RunFrom(g, g.MustEvent("b+"), timesim.Options{Periods: 3})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for j, wantD := range map[int]float64{1: 8, 2: 9} {
		d, err := trb.Distance(j)
		if err != nil {
			t.Fatalf("Distance(%d): %v", j, err)
		}
		if d != wantD {
			t.Errorf("δ_b+0(b+%d) = %g, want %g", j, d, wantD)
		}
	}
}

// TestFig1cOccurrenceDistances checks §II: the occurrence distance
// between a+0 and a+1 is 11, and 10 between later instantiations; the
// average-distance series is 2, 13/2, 23/3, 33/4, 43/5, 53/6 → 10.
func TestFig1cOccurrenceDistances(t *testing.T) {
	g := oscillator(t)
	tr, err := timesim.Run(g, timesim.Options{Periods: 30})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	a := g.MustEvent("a+")
	d0, err := tr.OccurrenceDistance(a, 0)
	if err != nil {
		t.Fatalf("OccurrenceDistance: %v", err)
	}
	if d0 != 11 {
		t.Errorf("occurrence distance a+0..a+1 = %g, want 11 (§II)", d0)
	}
	for i := 1; i < 29; i++ {
		d, err := tr.OccurrenceDistance(a, i)
		if err != nil {
			t.Fatalf("OccurrenceDistance(%d): %v", i, err)
		}
		if d != 10 {
			t.Errorf("occurrence distance a+%d..a+%d = %g, want 10", i, i+1, d)
		}
	}
	s := tr.AvgDistances(a)
	wantSeries := []float64{2, 13.0 / 2, 23.0 / 3, 33.0 / 4, 43.0 / 5, 53.0 / 6}
	for i, w := range wantSeries {
		if got := s.At(i); math.Abs(got-w) > 1e-12 {
			t.Errorf("δ(a+%d) = %g, want %g (§II)", i, got, w)
		}
	}
	if !s.ConvergedTo(10, 0.3, 2) {
		t.Errorf("average distance series %v does not approach 10", s)
	}
}

// TestFig1dInitiatedDistances checks Fig. 1d: the a+-initiated
// simulation yields occurrence distances 10, 10, 10, ... immediately.
func TestFig1dInitiatedDistances(t *testing.T) {
	g := oscillator(t)
	tr, err := timesim.RunFrom(g, g.MustEvent("a+"), timesim.Options{Periods: 6})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	s, err := tr.InitiatedDistances()
	if err != nil {
		t.Fatalf("InitiatedDistances: %v", err)
	}
	for i := 0; i < s.Len(); i++ {
		if s.At(i) != 10 {
			t.Errorf("δ_a+0(a+%d) = %g, want 10 (Fig. 1d)", i+1, s.At(i))
		}
	}
}

// TestInfiniteBSeries checks §VIII.C's asymptotic example: the
// b+-initiated distances are 8, 9, 9⅓, 9½, 9⅗, … approaching but never
// reaching the cycle time 10 (Prop. 8, Fig. 4 off-critical behaviour).
func TestInfiniteBSeries(t *testing.T) {
	g := oscillator(t)
	tr, err := timesim.RunFrom(g, g.MustEvent("b+"), timesim.Options{Periods: 40})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	s, err := tr.InitiatedDistances()
	if err != nil {
		t.Fatalf("InitiatedDistances: %v", err)
	}
	want := []float64{8, 9, 28.0 / 3, 38.0 / 4, 48.0 / 5}
	for i, w := range want {
		if got := s.At(i); math.Abs(got-w) > 1e-12 {
			t.Errorf("δ_b+0(b+%d) = %g, want %g (§VIII.C)", i+1, got, w)
		}
	}
	for i := 0; i < s.Len(); i++ {
		if s.At(i) >= 10 {
			t.Errorf("off-critical δ_b+0(b+%d) = %g >= cycle time 10 (violates Prop. 8)",
				i+1, s.At(i))
		}
	}
	if !s.ConvergedTo(10, 0.3, 3) {
		t.Errorf("series %v does not approach cycle time 10", s)
	}
}

// TestAgainstUnfoldingLongestPath cross-checks the streaming simulation
// against explicit longest paths over the materialised unfolding
// (Prop. 1 duality), for the plain and two initiated simulations.
func TestAgainstUnfoldingLongestPath(t *testing.T) {
	g := oscillator(t)
	const periods = 6
	u, err := unfold.Build(g, periods)
	if err != nil {
		t.Fatalf("unfold.Build: %v", err)
	}
	for _, originName := range []string{"", "a+", "b+", "c-"} {
		origin := sg.None
		if originName != "" {
			origin = g.MustEvent(originName)
		}
		var tr *timesim.Trace
		if origin == sg.None {
			tr, err = timesim.Run(g, timesim.Options{Periods: periods})
		} else {
			tr, err = timesim.RunFrom(g, origin, timesim.Options{Periods: periods})
		}
		if err != nil {
			t.Fatalf("Run(origin=%q): %v", originName, err)
		}
		if origin == sg.None {
			continue // plain simulation covered by Example 3 test
		}
		dist, _, err := u.LongestPathFrom(unfold.Inst{Event: origin, Index: 0})
		if err != nil {
			t.Fatalf("LongestPathFrom: %v", err)
		}
		for p := 0; p < u.NumNodes(); p++ {
			node := u.Node(p)
			got, ok := tr.Time(node.Event, node.Index)
			if !ok {
				t.Fatalf("missing time for %s", u.Name(node))
			}
			if math.IsInf(dist[p], -1) {
				// Not reachable from the origin: simulation pins it to 0.
				if tr.Reached(node.Event, node.Index) && !(node.Event == origin && node.Index == 0) {
					t.Errorf("origin=%s: %s reached by simulation but not by paths",
						originName, u.Name(node))
				}
				continue
			}
			if got != dist[p] {
				t.Errorf("origin=%s: t(%s) = %g, want longest path %g",
					originName, u.Name(node), got, dist[p])
			}
		}
	}
}

func TestParents(t *testing.T) {
	g := oscillator(t)
	tr, err := timesim.RunFrom(g, g.MustEvent("a+"), timesim.Options{Periods: 3})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// a+_1's max predecessor is c-_0 (t=8, delay 2 -> 10).
	pe, pp, arc, ok := tr.Parent(g.MustEvent("a+"), 1)
	if !ok {
		t.Fatal("Parent(a+,1) not tracked")
	}
	if g.Event(pe).Name != "c-" || pp != 0 {
		t.Errorf("Parent(a+,1) = %s_%d, want c-_0", g.Event(pe).Name, pp)
	}
	if a := g.Arc(arc); g.Event(a.From).Name != "c-" || g.Event(a.To).Name != "a+" {
		t.Errorf("Parent arc = %s->%s, want c- -> a+", g.Event(a.From).Name, g.Event(a.To).Name)
	}
	// The origin has no parent.
	if _, _, _, ok := tr.Parent(g.MustEvent("a+"), 0); ok {
		t.Error("origin a+_0 has a parent")
	}
	// A plain trace derives parents too; a member of I_u has none.
	tr2, err := timesim.Run(g, timesim.Options{Periods: 2})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if pe, pp, _, ok := tr2.Parent(g.MustEvent("a+"), 1); !ok || g.Event(pe).Name != "c-" || pp != 0 {
		t.Errorf("plain Parent(a+,1) = %d_%d,%v, want c-_0", pe, pp, ok)
	}
	if _, _, _, ok := tr2.Parent(g.MustEvent("e-"), 0); ok {
		t.Error("initial e-_0 has a parent")
	}
}

func TestRunErrors(t *testing.T) {
	g := oscillator(t)
	if _, err := timesim.Run(g, timesim.Options{Periods: 0}); err == nil {
		t.Error("Run with 0 periods succeeded")
	}
	if _, err := timesim.RunFrom(g, sg.EventID(99), timesim.Options{Periods: 1}); err == nil {
		t.Error("RunFrom with out-of-range origin succeeded")
	}
	tr, err := timesim.Run(g, timesim.Options{Periods: 2})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if _, err := tr.InitiatedDistances(); err == nil {
		t.Error("InitiatedDistances on plain trace succeeded")
	}
	if _, err := tr.Distance(1); err == nil {
		t.Error("Distance on plain trace succeeded")
	}
	if _, ok := tr.Time(g.MustEvent("e-"), 1); ok {
		t.Error("Time for e-_1 reported ok; non-repetitive events have one instantiation")
	}
	if _, err := tr.OccurrenceDistance(g.MustEvent("e-"), 0); err == nil {
		t.Error("OccurrenceDistance past end succeeded")
	}
}

func TestDiagramRender(t *testing.T) {
	g := oscillator(t)
	tr, err := timesim.Run(g, timesim.Options{Periods: 4})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	d := tr.Diagram()
	// Six signals: a b c e f (e- and f- are transitions of e and f).
	if got := len(d.Waves); got != 5 {
		names := make([]string, len(d.Waves))
		for i, w := range d.Waves {
			names[i] = w.Signal
		}
		t.Fatalf("diagram has %d waves (%v), want 5", got, names)
	}
	// Signal e starts high (its first transition is a fall).
	for _, w := range d.Waves {
		if w.Signal == "e" && w.InitialLevel != 1 {
			t.Errorf("signal e initial level = %d, want 1", w.InitialLevel)
		}
		if w.Signal == "a" && w.InitialLevel != 0 {
			t.Errorf("signal a initial level = %d, want 0", w.InitialLevel)
		}
	}
	var sb strings.Builder
	if err := d.Render(&sb, 1); err != nil {
		t.Fatalf("Render: %v", err)
	}
	out := sb.String()
	if !strings.Contains(out, "a") || !strings.Contains(out, "/") || !strings.Contains(out, "\\") {
		t.Errorf("diagram output lacks expected glyphs:\n%s", out)
	}
	if err := d.Render(&sb, 0); err == nil {
		t.Error("Render with unitsPerChar=0 succeeded")
	}
}
