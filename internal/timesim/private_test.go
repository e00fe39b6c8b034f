package timesim_test

import (
	"math/rand"
	"testing"

	"tsg/internal/sg"
	"tsg/internal/timesim"
)

// TestRunWithPrivateColumns: a trace run at private delay columns —
// plain and from every repetitive origin — is bit-identical, times,
// reachedness and parents included, to a trace of the graph compiled
// at those delays; fresh columns start at the schedule's own delays;
// and the schedule's own runs are unchanged afterwards.
func TestRunWithPrivateColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const periods = 6
	for name, g := range fixtures(t) {
		t.Run(name, func(t *testing.T) {
			sched, err := timesim.Compile(g)
			if err != nil {
				t.Fatalf("Compile: %v", err)
			}
			d := make([]float64, g.NumArcs())
			for a := range d {
				d[a] = float64(rng.Intn(9)) + float64(rng.Intn(2))*rng.Float64()
			}
			gd, err := g.WithDelays(func(a int, _ float64) float64 { return d[a] })
			if err != nil {
				t.Fatalf("WithDelays: %v", err)
			}
			at, err := timesim.Compile(gd)
			if err != nil {
				t.Fatalf("Compile at delays: %v", err)
			}
			fresh := sched.NewBatchDelays(1)
			cols := sched.NewBatchDelays(1)
			cols.Set(sched, 0, d)
			origins := []sg.EventID{sg.None}
			for _, ev := range g.RepetitiveEvents() {
				origins = append(origins, ev)
			}
			run := func(s *timesim.Schedule, origin sg.EventID, c *timesim.BatchDelays) *timesim.Trace {
				t.Helper()
				tr, err := s.RunWith(origin, c, timesim.Options{Periods: periods})
				if err != nil {
					t.Fatalf("RunWith(%d): %v", origin, err)
				}
				return tr
			}
			for _, origin := range origins {
				diffTraces(t, g, run(sched, origin, cols), run(at, origin, nil))
				diffTraces(t, g, run(sched, origin, fresh), run(sched, origin, nil))
			}
			own, err := timesim.Compile(g)
			if err != nil {
				t.Fatalf("Compile: %v", err)
			}
			for _, origin := range origins {
				diffTraces(t, g, run(sched, origin, nil), run(own, origin, nil))
			}
		})
	}
}

// TestRunWithRejectsWideColumns: a trace runs at one delay column, so
// RunWith refuses a set of two.
func TestRunWithRejectsWideColumns(t *testing.T) {
	g := fixtures(t)["oscillator"]
	sched, err := timesim.Compile(g)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if _, err := sched.RunWith(0, sched.NewBatchDelays(2), timesim.Options{Periods: 3}); err == nil {
		t.Fatal("RunWith accepted a two-lane column set")
	}
}
