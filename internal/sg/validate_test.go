package sg_test

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"tsg/internal/gen"
	"tsg/internal/sg"
)

// TestValidateAllocsNotPerArc: on a valid graph Validate allocates its
// O(n) work arrays and their stacks, not an object per arc.
func TestValidateAllocsNotPerArc(t *testing.T) {
	g, err := gen.RandomLive(rand.New(rand.NewSource(1)),
		gen.RandomOptions{Events: 2000, Border: 8, ExtraArcs: 2000, MaxDelay: 16})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 64 {
		t.Fatalf("Validate allocated %.0f times on %d events and %d arcs; want at most 64",
			allocs, g.NumEvents(), g.NumArcs())
	}
}

// TestUnmarkedCycleIsNamed: the period order proves the unmarked
// subgraph cyclic, and the error still names one cycle in arc order.
func TestUnmarkedCycleIsNamed(t *testing.T) {
	g, err := sg.NewBuilder("loop").
		Events("a", "b", "c", "d").
		Arc("a", "b", 1, sg.Marked()).
		Arc("b", "c", 1).
		Arc("c", "d", 1).
		Arc("d", "b", 1).
		Arc("d", "a", 1).
		BuildUnchecked()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.PeriodOrder(); err == nil {
		t.Fatal("PeriodOrder succeeded on an unmarked cycle")
	}
	var ve *sg.ValidationError
	if err := g.Validate(); !errors.As(err, &ve) || ve.Kind != sg.ErrUnmarkedCycle {
		t.Fatalf("Validate = %v, want ErrUnmarkedCycle", err)
	}
	if want := []string{"c", "d", "b"}; !slices.Equal(ve.Events, want) {
		t.Fatalf("cycle %v, want %v", ve.Events, want)
	}
	if want := `sg: graph "loop": cycle without initial marking (graph not live): c -> d -> b`; ve.Error() != want {
		t.Fatalf("error %q, want %q", ve.Error(), want)
	}
}

// TestCoreCheckedBothWays: the core must reach, and be reached from,
// its first repetitive event. In the first graph a+ is reached by every
// event but reaches only itself; in the second it reaches every event
// but is reached by none. The errors are those Tarjan's components
// gave before the reachability check.
func TestCoreCheckedBothWays(t *testing.T) {
	loops := func() *sg.Builder {
		return sg.NewBuilder("g").Events("a+", "b+", "c+").
			Arc("a+", "a+", 1, sg.Marked()).Arc("b+", "b+", 1, sg.Marked()).Arc("c+", "c+", 1, sg.Marked())
	}
	for _, c := range []struct {
		name string
		b    *sg.Builder
		want string
	}{
		{"reached by all, reaches none", loops().Arc("b+", "a+", 1).Arc("c+", "b+", 2),
			`sg: graph "g": repetitive events not strongly connected: a+ (3 components)`},
		{"reaches all, reached by none", loops().Arc("a+", "b+", 1).Arc("b+", "c+", 2),
			`sg: graph "g": repetitive events not strongly connected: c+ (3 components)`},
	} {
		if _, err := c.b.Build(); err == nil || err.Error() != c.want {
			t.Errorf("%s: Build = %v, want %q", c.name, err, c.want)
		}
		g, err := c.b.BuildUnchecked()
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Validate(); err == nil || err.Error() != c.want {
			t.Errorf("%s: Validate = %v, want %q", c.name, err, c.want)
		}
	}
}
