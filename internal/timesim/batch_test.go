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

// TestRunFromBatchMatchesScalar: for every origin and a batch of random
// delay assignments, the batch kernel's origin occurrence times must be
// bit-identical to per-sample RunFrom runs on a refreshed schedule —
// including the NaN (unreached) pattern.
func TestRunFromBatchMatchesScalar(t *testing.T) {
	fixtures := map[string]*sg.Graph{"oscillator": gen.Oscillator()}
	if ring, err := gen.MullerRing(4); err == nil {
		fixtures["ring4"] = ring
	} else {
		t.Fatalf("MullerRing: %v", err)
	}
	if stack, err := gen.Stack(7); err == nil {
		fixtures["stack7"] = stack
	} else {
		t.Fatalf("Stack: %v", err)
	}
	rng := rand.New(rand.NewSource(5))
	if g, err := gen.RandomLive(rng, gen.RandomOptions{Events: 60, Border: 5, ExtraArcs: 60, MaxDelay: 9}); err == nil {
		fixtures["random60"] = g
	} else {
		t.Fatalf("RandomLive: %v", err)
	}
	const S = 7
	const periods = 5
	for name, g := range fixtures {
		t.Run(name, func(t *testing.T) {
			ov := sg.NewOverlay(g)
			sched, err := timesim.Compile(ov.Graph())
			if err != nil {
				t.Fatalf("Compile: %v", err)
			}
			// Random delay batch, including zero delays.
			batch := make([][]float64, S)
			for s := range batch {
				batch[s] = make([]float64, g.NumArcs())
				for a := range batch[s] {
					batch[s][a] = float64(rng.Intn(8))
					if rng.Intn(5) == 0 {
						batch[s][a] += rng.Float64()
					}
				}
			}
			bd := sched.NewBatchDelays(S)
			for s := range batch {
				bd.Set(sched, s, batch[s])
			}
			out := make([][]float64, S)
			for s := range out {
				out[s] = make([]float64, periods)
			}
			for ev := 0; ev < g.NumEvents(); ev++ {
				origin := sg.EventID(ev)
				if !g.Event(origin).Repetitive {
					continue
				}
				if err := sched.RunFromBatch(origin, bd, periods, out); err != nil {
					t.Fatalf("RunFromBatch(%s): %v", g.Event(origin).Name, err)
				}
				for s := range batch {
					for a, d := range batch[s] {
						if err := ov.SetDelay(a, d); err != nil {
							t.Fatalf("SetDelay: %v", err)
						}
					}
					sched.RefreshDelays()
					tr, err := sched.RunFrom(origin, timesim.Options{Periods: periods + 1})
					if err != nil {
						t.Fatalf("RunFrom: %v", err)
					}
					for j := 1; j <= periods; j++ {
						want, ok := tr.Time(origin, j)
						reached := ok && tr.Reached(origin, j)
						got := out[s][j-1]
						switch {
						case !reached:
							if !math.IsNaN(got) {
								t.Fatalf("%s: sample %d period %d: batch %v, scalar unreached",
									g.Event(origin).Name, s, j, got)
							}
						case got != want:
							t.Fatalf("%s: sample %d period %d: batch %v != scalar %v",
								g.Event(origin).Name, s, j, got, want)
						}
					}
					tr.Release()
				}
			}
		})
	}
}

// TestRunFromBatchValidation: shape errors are rejected.
func TestRunFromBatchValidation(t *testing.T) {
	g := gen.Oscillator()
	sched, err := timesim.Compile(g)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	bd := sched.NewBatchDelays(2)
	out := make([][]float64, 2)
	for s := range out {
		out[s] = make([]float64, 3)
	}
	if err := sched.RunFromBatch(-1, bd, 3, out); err == nil {
		t.Fatalf("negative origin accepted")
	}
	if err := sched.RunFromBatch(0, bd, 0, out); err == nil {
		t.Fatalf("zero periods accepted")
	}
	if err := sched.RunFromBatch(0, bd, 3, out[:1]); err == nil {
		t.Fatalf("short output accepted")
	}
	if err := sched.RunFromBatch(0, bd, 4, out); err == nil {
		t.Fatalf("short output row accepted")
	}
	if bd.Samples() != 2 {
		t.Fatalf("Samples() = %d", bd.Samples())
	}
}

// TestRunFromBatchAllocFree: after the first call has put a window of
// the batch's width in the schedule's pool, a batch run allocates
// nothing.
func TestRunFromBatchAllocFree(t *testing.T) {
	g, err := gen.MullerRing(7)
	if err != nil {
		t.Fatalf("MullerRing: %v", err)
	}
	sched, err := timesim.Compile(g)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	const periods = 40
	for _, S := range []int{16, 5} {
		bd := sched.NewBatchDelays(S)
		delays := make([]float64, g.NumArcs())
		out := make([][]float64, S)
		for s := range out {
			for a := range delays {
				delays[a] = float64(a%3 + s)
			}
			bd.Set(sched, s, delays)
			out[s] = make([]float64, periods)
		}
		if err := sched.RunFromBatch(0, bd, periods, out); err != nil {
			t.Fatalf("warmup: %v", err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if err := sched.RunFromBatch(0, bd, periods, out); err != nil {
				t.Fatalf("RunFromBatch: %v", err)
			}
		})
		if allocs != 0 {
			t.Fatalf("width %d: batch run allocates %.1f objects/run, want 0", S, allocs)
		}
	}
}

// TestRunFromBatchConcurrentSets: two delay sets on one schedule run
// RunFromBatch at the same time, each drawing its window from the
// schedule's pool, and every run reads exactly what the same set reads
// alone. Under -race this also checks that no window is shared.
func TestRunFromBatchConcurrentSets(t *testing.T) {
	g, err := gen.RandomLive(rand.New(rand.NewSource(9)), gen.RandomOptions{
		Events: 120, Border: 6, ExtraArcs: 150, MaxDelay: 9,
	})
	if err != nil {
		t.Fatalf("RandomLive: %v", err)
	}
	sched, err := timesim.Compile(g)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	const S, periods, rounds = 16, 8, 20
	border := g.BorderEvents()
	sets := make([]*timesim.BatchDelays, 2)
	want := make([][][][]float64, len(sets)) // per set, origin, lane
	for k := range sets {
		sets[k] = sched.NewBatchDelays(S)
		delays := make([]float64, g.NumArcs())
		for l := 0; l < S; l++ {
			for a := range delays {
				delays[a] = float64((a*7+l*3+k*5)%11) / 2
			}
			sets[k].Set(sched, l, delays)
		}
		want[k] = make([][][]float64, len(border))
		for i, o := range border {
			want[k][i] = make([][]float64, S)
			for l := range want[k][i] {
				want[k][i][l] = make([]float64, periods)
			}
			if err := sched.RunFromBatch(o, sets[k], periods, want[k][i]); err != nil {
				t.Fatalf("RunFromBatch: %v", err)
			}
		}
	}
	errs := make(chan error, len(sets))
	for k := range sets {
		go func() {
			out := make([][]float64, S)
			for l := range out {
				out[l] = make([]float64, periods)
			}
			for r := 0; r < rounds; r++ {
				for i, o := range border {
					if err := sched.RunFromBatch(o, sets[k], periods, out); err != nil {
						errs <- err
						return
					}
					for l := range out {
						for j, v := range out[l] {
							if math.Float64bits(v) != math.Float64bits(want[k][i][l][j]) {
								errs <- fmt.Errorf("set %d origin %d lane %d period %d: %v concurrently, %v alone", k, o, l, j+1, v, want[k][i][l][j])
								return
							}
						}
					}
				}
			}
			errs <- nil
		}()
	}
	for range sets {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkRunFromBatch times the Monte-Carlo kernel as the repository
// benchmark's timesim.run_from_batch_us layer does: 16 jittered delay
// samples of the 2000-event random graph, one op simulating every
// border event over b periods.
func BenchmarkRunFromBatch(b *testing.B) {
	g, err := gen.RandomLive(rand.New(rand.NewSource(5)), gen.RandomOptions{
		Events: 2000, Border: 8, ExtraArcs: 2000, MaxDelay: 16,
	})
	if err != nil {
		b.Fatalf("RandomLive: %v", err)
	}
	s, err := timesim.Compile(g)
	if err != nil {
		b.Fatalf("Compile: %v", err)
	}
	model, err := gen.UniformJitter(g, 0.1)
	if err != nil {
		b.Fatalf("UniformJitter: %v", err)
	}
	const lanes = 16
	border := g.BorderEvents()
	periods := len(border)
	bd := s.NewBatchDelays(lanes)
	delays := make([]float64, g.NumArcs())
	out := make([][]float64, lanes)
	for l := range out {
		model.SampleInto(9, uint64(l), delays)
		bd.Set(s, l, delays)
		out[l] = make([]float64, periods)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, o := range border {
			if err := s.RunFromBatch(o, bd, periods, out); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// fuzzGraph builds a small live graph from a seed: a random strongly
// connected core (gen.RandomLive) plus a chain of up to three
// non-repetitive events, each feeding the next and, once, a core
// event — so origins of both kinds occur. A negative seed links each
// chain event into the core by a marked arc instead: a graph Validate
// refuses (a plain arc from a non-repetitive event), which the
// schedule still runs, and the only one in which a non-repetitive
// event feeds period 1 and sits in the carry row of a lane window.
func fuzzGraph(seed int64) (*sg.Graph, error) {
	rng := rand.New(rand.NewSource(seed))
	n := 2 + rng.Intn(9)
	core, err := gen.RandomLive(rng, gen.RandomOptions{
		Events: n, Border: 1 + rng.Intn(min(3, n)), ExtraArcs: rng.Intn(n), MaxDelay: 9,
	})
	if err != nil {
		return nil, err
	}
	bld := sg.NewBuilder("fuzz")
	for i := 0; i < core.NumEvents(); i++ {
		bld.Event(core.Event(sg.EventID(i)).Name)
	}
	for i := 0; i < core.NumArcs(); i++ {
		a := core.Arc(i)
		var opts []sg.ArcOption
		if a.Marked {
			opts = append(opts, sg.Marked())
		}
		bld.Arc(core.Event(a.From).Name, core.Event(a.To).Name, a.Delay, opts...)
	}
	prev := ""
	for k := rng.Intn(4); k > 0; k-- {
		name := fmt.Sprintf("init%d", k)
		bld.Event(name, sg.NonRepetitive())
		if prev != "" {
			bld.Arc(prev, name, float64(rng.Intn(5)))
		}
		link := sg.Once()
		if seed < 0 {
			link = sg.Marked()
		}
		bld.Arc(name, core.Event(sg.EventID(rng.Intn(n))).Name, float64(rng.Intn(5)), link)
		prev = name
	}
	if seed < 0 {
		return bld.BuildUnchecked()
	}
	return bld.Build()
}

// FuzzRunFromBatch is the lane-vs-scalar differential: for a seeded
// graph, a batch width of 1..20 and per-lane delays drawn from the
// input bytes (zero, fractional, integral and +Inf), every lane of
// RunFromBatch from every origin — non-repetitive ones included — must
// be bit-identical, NaN pattern included, to RunFromWindow on the
// schedule refreshed to that lane's delays, and that to a full RunFrom
// trace read through Time/Reached.
func FuzzRunFromBatch(f *testing.F) {
	f.Add(int64(1), uint8(15), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(int64(7), uint8(0), []byte{9, 17, 33})
	f.Add(int64(42), uint8(19), []byte{1, 8, 250, 3})
	f.Fuzz(func(t *testing.T, seed int64, width uint8, data []byte) {
		g, err := fuzzGraph(seed)
		if err != nil {
			t.Skip(err)
		}
		S := 1 + int(width)%20
		periods := 1 + int(uint64(seed)%6)
		delay := func(i int) float64 {
			if len(data) == 0 {
				return 0
			}
			b := data[i%len(data)]
			switch b % 8 {
			case 0:
				return 0
			case 1:
				return math.Inf(1)
			case 2, 3:
				return float64(b) / 7.25
			}
			return float64(b % 17)
		}
		ov := sg.NewOverlay(g)
		sched, err := timesim.Compile(ov.Graph())
		if err != nil {
			t.Fatalf("Compile: %v", err)
		}
		m := g.NumArcs()
		bd := sched.NewBatchDelays(S)
		lanes := make([][]float64, S)
		out := make([][]float64, S)
		for l := range lanes {
			lanes[l] = make([]float64, m)
			for a := range lanes[l] {
				lanes[l][a] = delay(l*m + a)
			}
			bd.Set(sched, l, lanes[l])
			out[l] = make([]float64, periods)
		}
		want := make([]float64, periods)
		for ev := 0; ev < g.NumEvents(); ev++ {
			origin := sg.EventID(ev)
			if err := sched.RunFromBatch(origin, bd, periods, out); err != nil {
				t.Fatalf("RunFromBatch(%s): %v", g.Event(origin).Name, err)
			}
			for l := range lanes {
				for a, d := range lanes[l] {
					if err := ov.SetDelay(a, d); err != nil {
						t.Fatalf("SetDelay(%d, %v): %v", a, d, err)
					}
				}
				sched.RefreshDelays()
				if err := sched.RunFromWindow(origin, periods, want); err != nil {
					t.Fatalf("RunFromWindow(%s): %v", g.Event(origin).Name, err)
				}
				// The window shares its driver with the batch kernel;
				// a full trace does not, so it pins the window too.
				tr, err := sched.RunFrom(origin, timesim.Options{Periods: periods + 1})
				if err != nil {
					t.Fatalf("RunFrom(%s): %v", g.Event(origin).Name, err)
				}
				for j := range want {
					if v, ok := tr.Time(origin, j+1); !ok || !tr.Reached(origin, j+1) {
						if !math.IsNaN(want[j]) {
							t.Fatalf("origin %s period %d: window %v, trace has no reached instantiation",
								g.Event(origin).Name, j+1, want[j])
						}
					} else if want[j] != v {
						t.Fatalf("origin %s period %d: window %v, trace %v", g.Event(origin).Name, j+1, want[j], v)
					}
					if math.Float64bits(out[l][j]) != math.Float64bits(want[j]) {
						t.Fatalf("origin %s lane %d/%d period %d: batch %v, scalar %v",
							g.Event(origin).Name, l, S, j+1, out[l][j], want[j])
					}
				}
				tr.Release()
			}
		}
	})
}
