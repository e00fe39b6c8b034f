package timesim_test

import (
	"math"
	"math/rand"
	"testing"

	"tsg/internal/gen"
	"tsg/internal/sg"
	"tsg/internal/timesim"
)

// diffOrigins runs RunFromOrigins over origins at d and checks every
// lane, bit for bit and NaN pattern included, against RunFromWindow
// from that lane's origin at the same delays. It returns the lane rows.
func diffOrigins(t *testing.T, s *timesim.Schedule, origins []sg.EventID, d *timesim.BatchDelays, periods int) [][]float64 {
	t.Helper()
	out := make([][]float64, len(origins))
	for l := range out {
		out[l] = make([]float64, periods)
	}
	if err := s.RunFromOrigins(origins, d, periods, out); err != nil {
		t.Fatalf("RunFromOrigins(%v): %v", origins, err)
	}
	want := make([]float64, periods)
	rows := [][]float64{want}
	for l, o := range origins {
		var err error
		if d == nil {
			err = s.RunFromWindow(o, periods, want)
		} else {
			err = s.RunFromBatch(o, d, periods, rows)
		}
		if err != nil {
			t.Fatalf("scalar run from %d: %v", o, err)
		}
		for j := range want {
			if math.Float64bits(out[l][j]) != math.Float64bits(want[j]) {
				t.Fatalf("origin %d lane %d/%d period %d: lanes %v, scalar %v", o, l, len(origins), j+1, out[l][j], want[j])
			}
		}
	}
	return out
}

// TestRunFromOriginsMatchesWindow runs every fixture's events as origin
// lanes at the widths pass 1 chunks into and at odd ones, repeats
// included, against the scalar window.
func TestRunFromOriginsMatchesWindow(t *testing.T) {
	for name, g := range fixtures(t) {
		t.Run(name, func(t *testing.T) {
			s, err := timesim.Compile(g)
			if err != nil {
				t.Fatalf("Compile: %v", err)
			}
			n := g.NumEvents()
			periods := 2*len(g.BorderEvents()) + 1
			for _, w := range []int{2, 3, 4, 5, 8, 11, 16} {
				origins := make([]sg.EventID, w)
				for start := 0; start < n; start += w {
					for l := range origins {
						origins[l] = sg.EventID((start + l) % n)
					}
					diffOrigins(t, s, origins, nil, periods)
				}
			}
		})
	}
}

// TestRunFromOriginsHugeFamilies checks the border origins of the
// scale families in chunks of 8, as pass 1 runs them.
func TestRunFromOriginsHugeFamilies(t *testing.T) {
	pg, err := gen.PipeGrid(gen.PipeGridOptions{Sites: 5, Depth: 7, Width: 3, Seed: 11})
	if err != nil {
		t.Fatalf("PipeGrid: %v", err)
	}
	rnd, err := gen.RandomLive(rand.New(rand.NewSource(31)), gen.RandomOptions{
		Events: 300, Border: 13, ExtraArcs: 400, MaxDelay: 16,
	})
	if err != nil {
		t.Fatalf("RandomLive: %v", err)
	}
	for name, g := range map[string]*sg.Graph{"pipegrid": pg, "random300": rnd} {
		t.Run(name, func(t *testing.T) {
			s, err := timesim.Compile(g)
			if err != nil {
				t.Fatalf("Compile: %v", err)
			}
			border := g.BorderEvents()
			for lo := 0; lo < len(border); lo += 8 {
				diffOrigins(t, s, border[lo:min(lo+8, len(border))], nil, len(border))
			}
		})
	}
}

// TestRunFromOriginsArgs pins the argument validation.
func TestRunFromOriginsArgs(t *testing.T) {
	g := gen.Oscillator()
	s, err := timesim.Compile(g)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	out := [][]float64{make([]float64, 4), make([]float64, 4)}
	two := []sg.EventID{0, 1}
	if err := s.RunFromOrigins(nil, nil, 4, out); err == nil {
		t.Fatal("no origins accepted")
	}
	if err := s.RunFromOrigins([]sg.EventID{0, -1}, nil, 4, out); err == nil {
		t.Fatal("negative origin accepted")
	}
	if err := s.RunFromOrigins([]sg.EventID{sg.EventID(g.NumEvents()), 0}, nil, 4, out); err == nil {
		t.Fatal("out-of-range origin accepted")
	}
	if err := s.RunFromOrigins(two, nil, 0, out); err == nil {
		t.Fatal("zero periods accepted")
	}
	if err := s.RunFromOrigins(two, nil, 5, out); err == nil {
		t.Fatal("short output row accepted")
	}
	if err := s.RunFromOrigins([]sg.EventID{0, 1, 2}, nil, 4, out); err == nil {
		t.Fatal("too few output rows accepted")
	}
	if err := s.RunFromOrigins(two, s.NewBatchDelays(2), 4, out); err == nil {
		t.Fatal("a two-lane delay set accepted")
	}
}

// TestRunFromOriginsAllocs pins that a run reuses the pooled lane
// window — no allocation after the first call, at the schedule's own
// columns and at private ones — and bounds that window's size.
func TestRunFromOriginsAllocs(t *testing.T) {
	g, err := gen.Stack(13)
	if err != nil {
		t.Fatalf("Stack: %v", err)
	}
	s, err := timesim.Compile(g)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	const periods = 40
	border := g.BorderEvents()
	cols := s.NewBatchDelays(1)
	for _, w := range []int{8, 4, 3} {
		origins := border[:w]
		out := make([][]float64, w)
		for l := range out {
			out[l] = make([]float64, periods)
		}
		for _, d := range []*timesim.BatchDelays{nil, cols} {
			if err := s.RunFromOrigins(origins, d, periods, out); err != nil {
				t.Fatalf("warmup: %v", err)
			}
			allocs := testing.AllocsPerRun(20, func() {
				if err := s.RunFromOrigins(origins, d, periods, out); err != nil {
					t.Fatalf("RunFromOrigins: %v", err)
				}
			})
			if allocs != 0 {
				t.Fatalf("width %d: origin-lane run allocates %.1f objects/run, want 0", w, allocs)
			}
		}
		// One row and a carry row: never more than w scalar windows.
		if got, most := s.LaneWindowBytes(w), int64(w)*s.WindowBytes(); got > most {
			t.Fatalf("width %d: LaneWindowBytes = %d, more than %d scalar windows (%d)", w, got, w, most)
		}
	}
}

// FuzzRunFromOrigins is the origin-lane differential: for a seeded
// graph, 1..20 origins drawn from the input bytes (repeats and
// non-repetitive events included) and either the schedule's own
// columns or a width-1 private set with zero, fractional, integral and
// +Inf delays, every lane of RunFromOrigins must be bit-identical, NaN
// pattern included, to RunFromWindow from its origin at those delays,
// and that to a full RunFrom trace read through Time/Reached.
func FuzzRunFromOrigins(f *testing.F) {
	f.Add(int64(1), uint8(7), false, []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(int64(7), uint8(2), true, []byte{9, 17, 33})
	f.Add(int64(42), uint8(19), true, []byte{1, 8, 250, 3, 3, 3, 12, 0, 7, 5, 14, 2, 2, 9, 1, 6, 4, 11, 13, 10})
	f.Fuzz(func(t *testing.T, seed int64, width uint8, private bool, data []byte) {
		g, err := fuzzGraph(seed)
		if err != nil {
			t.Skip(err)
		}
		n := g.NumEvents()
		origins := make([]sg.EventID, 1+int(width)%20)
		for l := range origins {
			o := l
			if len(data) > 0 {
				o = int(data[l%len(data)])
			}
			origins[l] = sg.EventID(o % n)
		}
		periods := 1 + int(uint64(seed)%6)
		ov := sg.NewOverlay(g)
		sched, err := timesim.Compile(ov.Graph())
		if err != nil {
			t.Fatalf("Compile: %v", err)
		}
		var cols *timesim.BatchDelays
		if private {
			cols = sched.NewBatchDelays(1)
			delays := make([]float64, g.NumArcs())
			for a := range delays {
				var b byte
				if len(data) > 0 {
					b = data[(a+len(origins))%len(data)]
				}
				switch b % 8 {
				case 0:
				case 1:
					delays[a] = math.Inf(1)
				case 2, 3:
					delays[a] = float64(b) / 7.25
				default:
					delays[a] = float64(b % 17)
				}
			}
			cols.Set(sched, 0, delays)
			// The trace oracle reads the schedule's own columns.
			for a, d := range delays {
				if err := ov.SetDelay(a, d); err != nil {
					t.Fatalf("SetDelay(%d, %v): %v", a, d, err)
				}
			}
			sched.RefreshDelays()
		}
		out := diffOrigins(t, sched, origins, cols, periods)
		for l, o := range origins {
			tr, err := sched.RunFrom(o, timesim.Options{Periods: periods + 1})
			if err != nil {
				t.Fatalf("RunFrom(%s): %v", g.Event(o).Name, err)
			}
			for j := 1; j <= periods; j++ {
				want := math.NaN()
				if v, ok := tr.Time(o, j); ok && tr.Reached(o, j) {
					want = v
				}
				if math.Float64bits(out[l][j-1]) != math.Float64bits(want) {
					t.Fatalf("origin %s lane %d period %d: lanes %v, trace %v", g.Event(o).Name, l, j, out[l][j-1], want)
				}
			}
			tr.Release()
		}
	})
}

// BenchmarkRunFromOrigins times a full pass 1 — every border event
// over b periods — as origin lanes in chunks of 4, as the engine runs
// it, against b scalar windowed runs, on the three graph shapes of the repository
// benchmark's batch workload.
func BenchmarkRunFromOrigins(b *testing.B) {
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
		out := make([][]float64, 4)
		for l := range out {
			out[l] = make([]float64, periods)
		}
		b.Run(c.name+"/lanes4", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for lo := 0; lo < len(border); lo += 4 {
					if err := s.RunFromOrigins(border[lo:min(lo+4, len(border))], nil, periods, out); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run(c.name+"/window", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, o := range border {
					if err := s.RunFromWindow(o, periods, out[0]); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
