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
