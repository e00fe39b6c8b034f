package timesim_test

import (
	"math"
	"math/rand"
	"testing"

	"tsg/internal/gen"
	"tsg/internal/sg"
	"tsg/internal/timesim"
)

// laneReads runs RunFromOrigins over origins at d, reading every event
// of every lane, and returns got[l][e][j] = t_{origins[l]}(e_j) for
// j = 0..periods.
func laneReads(t *testing.T, s *timesim.Schedule, origins []sg.EventID, d *timesim.BatchDelays, periods int) [][][]float64 {
	t.Helper()
	n := s.Graph().NumEvents()
	got := make([][][]float64, len(origins))
	var reads []timesim.Read
	for l := range got {
		got[l] = make([][]float64, n)
		for e := range got[l] {
			got[l][e] = make([]float64, periods+1)
			reads = append(reads, timesim.Read{Lane: l, Event: sg.EventID(e), Out: got[l][e]})
		}
	}
	if err := s.RunFromOrigins(origins, d, periods, reads); err != nil {
		t.Fatalf("RunFromOrigins(%v): %v", origins, err)
	}
	return got
}

// diffOrigins runs RunFromOrigins over origins at d and checks every
// lane's series of its own origin, bit for bit and NaN pattern
// included, against RunFromWindow from that origin at the same delays.
// It returns every read of every lane (laneReads).
func diffOrigins(t *testing.T, s *timesim.Schedule, origins []sg.EventID, d *timesim.BatchDelays, periods int) [][][]float64 {
	t.Helper()
	got := laneReads(t, s, origins, d, periods)
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
			if v := got[l][o][j+1]; math.Float64bits(v) != math.Float64bits(want[j]) {
				t.Fatalf("origin %d lane %d/%d period %d: lanes %v, scalar %v", o, l, len(origins), j+1, v, want[j])
			}
		}
	}
	return got
}

// diffReadsTrace checks every read of every lane, bit for bit and NaN
// pattern included, against a full RunWith trace from the lane's
// origin at d over periods+1 periods, read through Time/Reached.
func diffReadsTrace(t *testing.T, s *timesim.Schedule, origins []sg.EventID, d *timesim.BatchDelays, got [][][]float64) {
	t.Helper()
	g := s.Graph()
	for l, o := range origins {
		periods := len(got[l][0]) - 1
		tr, err := s.RunWith(o, d, timesim.Options{Periods: periods + 1})
		if err != nil {
			t.Fatalf("RunWith(%s): %v", g.Event(o).Name, err)
		}
		for e := range got[l] {
			for j, v := range got[l][e] {
				want := math.NaN()
				if tv, ok := tr.Time(sg.EventID(e), j); ok && tr.Reached(sg.EventID(e), j) {
					want = tv
				}
				if math.Float64bits(v) != math.Float64bits(want) {
					t.Fatalf("origin %s lane %d/%d: %s period %d: lanes %v, trace %v",
						g.Event(o).Name, l, len(origins), g.Event(sg.EventID(e)).Name, j, v, want)
				}
			}
		}
		tr.Release()
	}
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

// TestRunFromOriginsReadsMatchTrace is the what-if rows' readback
// checked directly: every fixture's events as origin lanes, at one
// lane (the scalar walk) and at the widths the engine chunks into,
// read back at every event in every period 0..periods and compared bit
// for bit, NaN pattern included, with a full trace — at the schedule's
// own delays and at a private set with zero, fractional and +Inf
// delays.
func TestRunFromOriginsReadsMatchTrace(t *testing.T) {
	for name, g := range fixtures(t) {
		t.Run(name, func(t *testing.T) {
			s, err := timesim.Compile(g)
			if err != nil {
				t.Fatalf("Compile: %v", err)
			}
			cols := s.NewBatchDelays(1)
			for a := 0; a < g.NumArcs(); a++ {
				cols.SetArc(s, 0, a, []float64{0, 0.5, math.Inf(1), 3}[a%4])
			}
			n := g.NumEvents()
			periods := len(g.BorderEvents()) + 1
			for _, d := range []*timesim.BatchDelays{nil, cols} {
				for _, w := range []int{1, 2, 3, 4} {
					origins := make([]sg.EventID, w)
					for start := 0; start < n; start += w {
						for l := range origins {
							origins[l] = sg.EventID((start + l) % n)
						}
						diffReadsTrace(t, s, origins, d, laneReads(t, s, origins, d, periods))
					}
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
	reads := []timesim.Read{{Lane: 0, Event: 0, Out: make([]float64, 5)}, {Lane: 1, Event: 1, Out: make([]float64, 5)}}
	two := []sg.EventID{0, 1}
	if err := s.RunFromOrigins(nil, nil, 4, reads); err == nil {
		t.Fatal("no origins accepted")
	}
	if err := s.RunFromOrigins([]sg.EventID{0, -1}, nil, 4, reads); err == nil {
		t.Fatal("negative origin accepted")
	}
	if err := s.RunFromOrigins([]sg.EventID{sg.EventID(g.NumEvents()), 0}, nil, 4, reads); err == nil {
		t.Fatal("out-of-range origin accepted")
	}
	if err := s.RunFromOrigins(two, nil, 0, reads); err == nil {
		t.Fatal("zero periods accepted")
	}
	if err := s.RunFromOrigins(two, nil, 5, reads); err == nil {
		t.Fatal("short read output accepted")
	}
	if err := s.RunFromOrigins([]sg.EventID{0}, nil, 4, reads); err == nil {
		t.Fatal("read of a lane past the origins accepted")
	}
	if err := s.RunFromOrigins(two, nil, 4, []timesim.Read{{Lane: -1, Event: 0, Out: reads[0].Out}}); err == nil {
		t.Fatal("negative read lane accepted")
	}
	if err := s.RunFromOrigins(two, nil, 4, []timesim.Read{{Lane: 0, Event: sg.EventID(g.NumEvents()), Out: reads[0].Out}}); err == nil {
		t.Fatal("out-of-range read event accepted")
	}
	if err := s.RunFromOrigins(two, s.NewBatchDelays(2), 4, reads); err == nil {
		t.Fatal("a two-lane delay set accepted")
	}
	if err := s.RunFromOrigins(two, nil, 4, reads); err != nil {
		t.Fatalf("valid run: %v", err)
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
	for _, w := range []int{8, 4, 3, 1} {
		origins := border[:w]
		reads := make([]timesim.Read, w)
		for l := range reads {
			reads[l] = timesim.Read{Lane: l, Event: origins[l], Out: make([]float64, periods+1)}
		}
		for _, d := range []*timesim.BatchDelays{nil, cols} {
			if err := s.RunFromOrigins(origins, d, periods, reads); err != nil {
				t.Fatalf("warmup: %v", err)
			}
			allocs := testing.AllocsPerRun(20, func() {
				if err := s.RunFromOrigins(origins, d, periods, reads); err != nil {
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
// +Inf delays, every lane's series of its own origin must be
// bit-identical, NaN pattern included, to RunFromWindow from its
// origin at those delays; and every lane's read of every event in
// every period 0..periods — the what-if rows' readback — to a full
// RunFrom trace read through Time/Reached.
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
		got := diffOrigins(t, sched, origins, cols, periods)
		diffReadsTrace(t, sched, origins, nil, got)
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
		reads := make([]timesim.Read, len(border))
		for i, o := range border {
			reads[i] = timesim.Read{Lane: i % 4, Event: o, Out: make([]float64, periods+1)}
		}
		b.Run(c.name+"/lanes4", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for lo := 0; lo < len(border); lo += 4 {
					hi := min(lo+4, len(border))
					if err := s.RunFromOrigins(border[lo:hi], nil, periods, reads[lo:hi]); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run(c.name+"/window", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, o := range border {
					if err := s.RunFromWindow(o, periods, reads[0].Out); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
