package cycletime

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"tsg/internal/gen"
	"tsg/internal/sg"
	"tsg/internal/timesim"
)

// allWinnerCycles backtracks every λ-winner of res, in cut order, the
// way pass 2 ran before it skipped covered winners.
func allWinnerCycles(t *testing.T, e *Engine, res *Result) (winners []sg.EventID, cycs []*CriticalCycle) {
	t.Helper()
	pos := make([]int32, e.g.NumEvents())
	for _, s := range res.Series {
		if !s.OnCritical {
			continue
		}
		cyc, err := e.criticalCycle(e.session(), s.Event, s.BestIndex, res.CycleTime, pos)
		if err != nil {
			t.Fatalf("criticalCycle(%s): %v", e.g.Event(s.Event).Name, err)
		}
		winners = append(winners, s.Event)
		cycs = append(cycs, cyc)
	}
	return winners, cycs
}

// cycleAt returns the index of the rotation-equal copy of c in list, or -1.
func cycleAt(list []CriticalCycle, c *CriticalCycle) int {
	for i := range list {
		if sameCycle(&list[i], leastRotation(list[i].Arcs), c, leastRotation(c.Arcs)) {
			return i
		}
	}
	return -1
}

// TestPass2SkipsCoveredWinners is the differential test of pass 2's
// rule on seeded random graphs. The oracle backtracks every winner,
// dedupes (the all-winners list), and replays the rule on those
// per-winner cycles: a winner whose event lies on a cycle kept before
// it is skipped. Critical must equal that replay exactly, and it must
// be an in-order sub-list of the all-winners list.
func TestPass2SkipsCoveredWinners(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	const graphs = 3000
	fewer, multi := 0, 0
	for trial := 0; trial < graphs; trial++ {
		n := 3 + rng.Intn(30)
		g, err := gen.RandomLive(rng, gen.RandomOptions{
			Events: n, Border: 1 + rng.Intn(min(n, 10)), ExtraArcs: rng.Intn(2 * n), MaxDelay: 1 + rng.Intn(3),
		})
		if err != nil {
			t.Fatalf("RandomLive: %v", err)
		}
		e, err := NewEngine(g)
		if err != nil {
			t.Fatalf("trial %d: NewEngine: %v", trial, err)
		}
		res, err := e.Analyze()
		if err != nil {
			t.Fatalf("trial %d: Analyze: %v", trial, err)
		}
		winners, cycs := allWinnerCycles(t, e, res)
		all := DedupeCycles(cycs)
		covered := map[sg.EventID]bool{}
		var kept []*CriticalCycle
		for i, w := range winners {
			if covered[w] {
				continue
			}
			kept = append(kept, cycs[i])
			for _, ev := range cycs[i].Events {
				covered[ev] = true
			}
		}
		if want := DedupeCycles(kept); !reflect.DeepEqual(res.Critical, want) {
			t.Fatalf("trial %d: Critical = %+v, the rule replayed gives %+v", trial, res.Critical, want)
		}
		last := -1
		for i := range res.Critical {
			at := cycleAt(all, &res.Critical[i])
			if at <= last {
				t.Fatalf("trial %d: Critical[%d] is at %d of the all-winners list, after %d: not an in-order sub-list",
					trial, i, at, last)
			}
			last = at
		}
		if len(all) > 1 {
			multi++
		}
		if len(res.Critical) < len(all) {
			fewer++
		}
	}
	t.Logf("%d graphs: %d with more than one all-winners cycle, %d listing fewer", graphs, multi, fewer)
	if fewer == 0 {
		t.Fatal("no graph listed fewer cycles: the differential never saw a skip change Critical")
	}
}

// TestPass2TruncatedTrace: the k+1-period trace pass 2 backtracks on
// equals a full e.periods+1 slab on every period <= k, bit for bit,
// and the backtracked cycle is the same on both.
func TestPass2TruncatedTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var fx []*sg.Graph
	for i := 0; i < 40; i++ {
		g, err := gen.RandomLive(rng, gen.RandomOptions{Events: 40, Border: 1 + rng.Intn(12), ExtraArcs: 60, MaxDelay: 9})
		if err != nil {
			t.Fatalf("RandomLive: %v", err)
		}
		fx = append(fx, g)
	}
	stack, err := gen.Stack(7)
	if err != nil {
		t.Fatalf("Stack: %v", err)
	}
	pipe, err := gen.PipeGrid(gen.PipeGridOptions{Sites: 5, Depth: 3, Width: 2, Seed: 3})
	if err != nil {
		t.Fatalf("PipeGrid: %v", err)
	}
	fx = append(fx, gen.Oscillator(), stack, pipe)
	for gi, g := range fx {
		e, err := NewEngine(g)
		if err != nil {
			t.Fatalf("graph %d: NewEngine: %v", gi, err)
		}
		res, err := e.Analyze()
		if err != nil {
			t.Fatalf("graph %d: Analyze: %v", gi, err)
		}
		pos := make([]int32, g.NumEvents())
		for _, s := range res.Series {
			if !s.OnCritical {
				continue
			}
			short, err := e.pass2Trace(e.session(), s.Event, s.BestIndex)
			if err != nil {
				t.Fatalf("pass2Trace: %v", err)
			}
			full, err := e.sched.RunFrom(s.Event, timesim.Options{Periods: e.periods + 1})
			if err != nil {
				t.Fatalf("RunFrom: %v", err)
			}
			if short.Periods() != s.BestIndex+1 {
				t.Fatalf("graph %d: pass-2 trace has %d periods, want k+1 = %d", gi, short.Periods(), s.BestIndex+1)
			}
			for p := 0; p <= s.BestIndex; p++ {
				for ev := sg.EventID(0); int(ev) < g.NumEvents(); ev++ {
					ts, oks := short.Time(ev, p)
					tf, okf := full.Time(ev, p)
					if oks != okf || math.Float64bits(ts) != math.Float64bits(tf) || short.Reached(ev, p) != full.Reached(ev, p) {
						t.Fatalf("graph %d origin %s: %s_%d is (%v,%v) on k+1 periods, (%v,%v) on the full slab",
							gi, g.Event(s.Event).Name, g.Event(ev).Name, p, ts, oks, tf, okf)
					}
				}
			}
			fromFull, err := backtrack(g, full, s.Event, s.BestIndex, res.CycleTime, pos)
			if err != nil {
				t.Fatalf("backtrack on the full slab: %v", err)
			}
			fromShort, err := backtrack(g, short, s.Event, s.BestIndex, res.CycleTime, pos)
			if err != nil {
				t.Fatalf("backtrack on k+1 periods: %v", err)
			}
			if !reflect.DeepEqual(fromShort, fromFull) {
				t.Fatalf("graph %d: cycle %+v on k+1 periods, %+v on the full slab", gi, fromShort, fromFull)
			}
			for ev, q := range pos {
				if q != 0 {
					t.Fatalf("backtrack left pos[%d] = %d", ev, q)
				}
			}
			short.Release()
			full.Release()
		}
	}
}

// TestPass2CoveredWinnerFixture pins the one place where skipping
// covered winners changes Critical. Two critical cycles of ratio 2
// share y: A = x→y→x and B = y→z→y. Both x and y are cut-set events
// and attain λ. x comes first and backtracks to A, which passes
// through y, so y is not re-simulated. Backtracked on its own, y
// would reach B, because y_1's first in-arc attaining its time is
// z→y. So every winner is still OnCritical, but Critical lists A
// only, where backtracking every winner lists A and B. This is
// accepted: A is a critical cycle, a listed cycle is never wrong, and
// a consumer that intersects Critical (the what-if fast path) only
// sends more queries to the exact tier.
func TestPass2CoveredWinnerFixture(t *testing.T) {
	g, err := sg.NewBuilder("covered-winner").
		Events("x", "y", "z").
		Arc("z", "y", 1, sg.Marked()).
		Arc("x", "y", 1).
		Arc("y", "x", 1, sg.Marked()).
		Arc("y", "z", 1).
		Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	e, err := NewEngine(g)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	res, err := e.Analyze()
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if lam := res.CycleTime.Normalize(); lam.Num != 2 || lam.Den != 1 {
		t.Fatalf("λ = %v, want 2", res.CycleTime)
	}
	for _, s := range res.Series {
		if !s.OnCritical {
			t.Fatalf("%s not OnCritical", g.Event(s.Event).Name)
		}
	}
	_, cycs := allWinnerCycles(t, e, res)
	if all := DedupeCycles(cycs); len(all) != 2 {
		t.Fatalf("backtracking every winner lists %d cycles, want 2 (A and B)", len(all))
	}
	if len(res.Critical) != 1 {
		t.Fatalf("Critical lists %d cycles, want 1", len(res.Critical))
	}
	if got := res.Critical[0].Format(g); got != "x -1-> y -1-> x" {
		t.Fatalf("Critical[0] = %s, want x -1-> y -1-> x", got)
	}
	// Monte-Carlo criticality follows the same rule: over all-point
	// delays exactly A's arcs are critical in every sample.
	m, err := gen.PointModel(g)
	if err != nil {
		t.Fatalf("PointModel: %v", err)
	}
	mc, err := e.AnalyzeMC(m, MCOptions{Samples: 8, Criticality: true})
	if err != nil {
		t.Fatalf("AnalyzeMC: %v", err)
	}
	want := []float64{0, 1, 1, 0} // z→y, x→y, y→x, y→z
	if !reflect.DeepEqual(mc.Criticality, want) {
		t.Fatalf("MC criticality = %v, want %v", mc.Criticality, want)
	}
}
