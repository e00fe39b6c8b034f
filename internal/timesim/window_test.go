package timesim_test

import (
	"math"
	"math/rand"
	"testing"

	"tsg/internal/gen"
	"tsg/internal/sg"
	"tsg/internal/timesim"
)

// diffWindow checks that RunFromWindow reproduces, bit for bit, the
// origin row of a full RunFrom trace: out[p-1] equals Time(origin, p)
// whenever origin_p is instantiated and reached, NaN otherwise.
func diffWindow(t *testing.T, s *timesim.Schedule, origin sg.EventID, periods int) {
	t.Helper()
	tr, err := s.RunFrom(origin, timesim.Options{Periods: periods + 1})
	if err != nil {
		t.Fatalf("RunFrom(%d): %v", origin, err)
	}
	defer tr.Release()
	out := make([]float64, periods)
	if err := s.RunFromWindow(origin, periods, out); err != nil {
		t.Fatalf("RunFromWindow(%d): %v", origin, err)
	}
	for p := 1; p <= periods; p++ {
		tm, ok := tr.Time(origin, p)
		want := math.NaN()
		if ok && tr.Reached(origin, p) {
			want = tm
		}
		got := out[p-1]
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("origin %d period %d: window %v, trace %v", origin, p, got, want)
		}
	}
}

// TestRunFromWindowMatchesTrace differentially tests the two-row
// memory-bounded kernel against the slab kernel on every generator
// fixture, from every event, across several period counts.
func TestRunFromWindowMatchesTrace(t *testing.T) {
	for name, g := range fixtures(t) {
		t.Run(name, func(t *testing.T) {
			s, err := timesim.Compile(g)
			if err != nil {
				t.Fatalf("Compile: %v", err)
			}
			for _, periods := range []int{1, 3, 2*len(g.BorderEvents()) + 1} {
				for ev := 0; ev < g.NumEvents(); ev++ {
					diffWindow(t, s, sg.EventID(ev), periods)
				}
			}
		})
	}
}

// TestRunFromWindowMatchesTraceRandom repeats the differential check on
// seeded random live graphs, border events only (the engine's use).
func TestRunFromWindowMatchesTraceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(707))
	for seed := 0; seed < 6; seed++ {
		g, err := gen.RandomLive(rng, gen.RandomOptions{
			Events: 120 + 30*seed, Border: 3 + seed, ExtraArcs: 200, MaxDelay: 16,
		})
		if err != nil {
			t.Fatalf("RandomLive: %v", err)
		}
		s, err := timesim.Compile(g)
		if err != nil {
			t.Fatalf("Compile: %v", err)
		}
		b := len(g.BorderEvents())
		for _, ev := range g.BorderEvents() {
			diffWindow(t, s, ev, 2*b+3)
		}
	}
}

// TestRunFromWindowHugeFamilies spot-checks the families the scale
// experiment sweeps.
func TestRunFromWindowHugeFamilies(t *testing.T) {
	pg, err := gen.PipeGrid(gen.PipeGridOptions{Sites: 5, Depth: 7, Width: 3, Seed: 11})
	if err != nil {
		t.Fatalf("PipeGrid: %v", err)
	}
	mesh, err := gen.Mesh(gen.MeshOptions{W: 9, H: 4, Seed: 12})
	if err != nil {
		t.Fatalf("Mesh: %v", err)
	}
	tor, err := gen.TreeOfRings(gen.TreeRingOptions{Sites: 4, Levels: 3, Fanout: 2, Seed: 13})
	if err != nil {
		t.Fatalf("TreeOfRings: %v", err)
	}
	for name, g := range map[string]*sg.Graph{"pipegrid": pg, "mesh": mesh, "treering": tor} {
		t.Run(name, func(t *testing.T) {
			s, err := timesim.Compile(g)
			if err != nil {
				t.Fatalf("Compile: %v", err)
			}
			for _, ev := range g.BorderEvents() {
				diffWindow(t, s, ev, 2*len(g.BorderEvents())+1)
			}
		})
	}
}

// TestRunFromWindowArgs pins the argument validation.
func TestRunFromWindowArgs(t *testing.T) {
	g := gen.Oscillator()
	s, err := timesim.Compile(g)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	out := make([]float64, 4)
	if err := s.RunFromWindow(-1, 4, out); err == nil {
		t.Fatal("negative origin accepted")
	}
	if err := s.RunFromWindow(sg.EventID(g.NumEvents()), 4, out); err == nil {
		t.Fatal("out-of-range origin accepted")
	}
	if err := s.RunFromWindow(0, 0, out); err == nil {
		t.Fatal("zero periods accepted")
	}
	if err := s.RunFromWindow(0, 5, out); err == nil {
		t.Fatal("short output accepted")
	}
}

// TestWindowBytesBounded pins the memory contract the windowed kernel
// exists for: the working set is O(n), independent of the period count.
func TestWindowBytesBounded(t *testing.T) {
	g, err := gen.MullerRing(7)
	if err != nil {
		t.Fatalf("MullerRing: %v", err)
	}
	s, err := timesim.Compile(g)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	n := int64(g.NumEvents())
	// Two float64 rows; reachedness rides in the times (-Inf).
	if got, want := s.WindowBytes(), n*2*8; got != want {
		t.Fatalf("WindowBytes = %d, want %d", got, want)
	}
	// The pooled window is reused: steady-state allocations of a
	// windowed run stay tiny (no slab, no per-period growth).
	out := make([]float64, 600)
	if err := s.RunFromWindow(0, 600, out); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := s.RunFromWindow(0, 600, out); err != nil {
			t.Fatalf("RunFromWindow: %v", err)
		}
	})
	if allocs > 2 {
		t.Fatalf("windowed run allocates %.1f objects/run, want <= 2", allocs)
	}
}

// BenchmarkRunFromWindow compares the two pass-1 kernels: one op is a
// full pass 1 — every border event simulated over b periods — on the
// window or on slabs, for the three graph shapes of the repository
// benchmark's batch workload: the 66-event stack, a 2000-event random
// graph and a 10^5-event pipegrid (where the slab is the dominant
// cost).
func BenchmarkRunFromWindow(b *testing.B) {
	stack, err := gen.Stack(31)
	if err != nil {
		b.Fatalf("Stack: %v", err)
	}
	random, err := gen.RandomLive(rand.New(rand.NewSource(5)), gen.RandomOptions{
		Events: 2000, Border: 8, ExtraArcs: 2000, MaxDelay: 16,
	})
	if err != nil {
		b.Fatalf("RandomLive: %v", err)
	}
	grid, err := gen.PipeGridSized(100_000, 16, 4, 7003)
	if err != nil {
		b.Fatalf("PipeGridSized: %v", err)
	}
	for _, c := range []struct {
		name string
		g    *sg.Graph
	}{{"stack66", stack}, {"random2000", random}, {"pipegrid1e5", grid}} {
		s, err := timesim.Compile(c.g)
		if err != nil {
			b.Fatalf("Compile: %v", err)
		}
		border := c.g.BorderEvents()
		periods := len(border)
		b.Run(c.name+"/window", func(b *testing.B) {
			out := make([]float64, periods)
			for i := 0; i < b.N; i++ {
				for _, o := range border {
					if err := s.RunFromWindow(o, periods, out); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run(c.name+"/slab", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, o := range border {
					tr, err := s.RunFrom(o, timesim.Options{Periods: periods + 1})
					if err != nil {
						b.Fatal(err)
					}
					tr.Release()
				}
			}
		})
	}
}

// TestRunPlainWindowMatchesRun: the plain simulation on the two-row
// window hands the visitor every period's times bit-identical to a
// Run trace — every event in period 0, the repetitive ones after —
// at the schedule's own columns and at a private width-1 set with
// zero, fractional and +Inf delays.
func TestRunPlainWindowMatchesRun(t *testing.T) {
	for name, g := range fixtures(t) {
		t.Run(name, func(t *testing.T) {
			s, err := timesim.Compile(g)
			if err != nil {
				t.Fatalf("Compile: %v", err)
			}
			cols := s.NewBatchDelays(1)
			delays := make([]float64, g.NumArcs())
			for a := range delays {
				delays[a] = []float64{0, 2.5, math.Inf(1), float64(a % 7)}[a%4]
			}
			cols.Set(s, 0, delays)
			periods := len(g.BorderEvents()) + 2
			for _, d := range []*timesim.BatchDelays{nil, cols} {
				tr, err := s.RunWith(sg.None, d, timesim.Options{Periods: periods + 1})
				if err != nil {
					t.Fatalf("RunWith: %v", err)
				}
				visited := 0
				err = s.RunPlainWindow(d, periods, func(p int, row []float64) {
					if p != visited {
						t.Fatalf("visited period %d, want %d", p, visited)
					}
					visited++
					for e := range row {
						want, ok := tr.Time(sg.EventID(e), p)
						if ok && math.Float64bits(row[e]) != math.Float64bits(want) {
							t.Fatalf("t(%s_%d): window %v, trace %v", g.Event(sg.EventID(e)).Name, p, row[e], want)
						}
					}
				})
				if err != nil {
					t.Fatalf("RunPlainWindow: %v", err)
				}
				if visited != periods+1 {
					t.Fatalf("visited %d periods, want %d", visited, periods+1)
				}
				tr.Release()
			}
			if err := s.RunPlainWindow(s.NewBatchDelays(2), periods, func(int, []float64) {}); err == nil {
				t.Fatal("RunPlainWindow accepted a two-lane column set")
			}
			if err := s.RunPlainWindow(nil, 0, func(int, []float64) {}); err == nil {
				t.Fatal("RunPlainWindow accepted zero periods")
			}
		})
	}
}
