// Package cycletime implements the performance-analysis algorithm of
// Nielsen and Kishinevsky (DAC'94), §VI–§VII: the cycle time λ and a
// critical cycle of a Timed Signal Graph, computed from event-initiated
// timing simulations.
//
// The algorithm (§VII skeleton):
//
//  1. identify the border events — the repetitive events with an
//     initially marked in-arc; for a live graph they form a cut set;
//  2. from each of the b border events, run an event-initiated timing
//     simulation covering b periods of the unfolding;
//  3. after each new occurrence of the initiating event, record the
//     average occurrence distance δ_{e_0}(e_i) = t_{e_0}(e_i)/i;
//  4. the cycle time is the maximum of the collected b² distances
//     (Prop. 7); border events that never attain it lie off every
//     critical cycle (Prop. 8);
//  5. backtracking the simulation that attained the maximum (Prop. 1)
//     yields a critical cycle.
//
// One simulation costs O(b·m); the whole analysis is O(b²·m). Since
// typically b ≪ n, the algorithm behaves linearly in the specification
// size in practice (§VII).
//
// The package is organised around a compile-once session layer, Engine:
// a graph is compiled into a delay overlay plus a timesim.Schedule, and
// analyses, slack reports, what-if sensitivities and sweeps all run
// against the compiled form (see engine.go). The package-level
// functions (Analyze, Slacks, Sensitivity, AnalyzeBounds) are one-shot
// wrappers over a throwaway Engine.
package cycletime

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"tsg/internal/sg"
	"tsg/internal/stat"
	"tsg/internal/timesim"
)

// Options tunes the analysis.
type Options struct {
	// Periods overrides the number of unfolding periods simulated from
	// each cut-set event. 0 means the safe default: b, the border-set
	// size, which always bounds the occurrence period of every simple
	// cycle (the ε tokens of a simple cycle target ε distinct border
	// events). Correctness requires Periods >= the maximum occurrence
	// period ε_max; note that the paper's Prop. 6 bound — ε_max <= the
	// minimum cut set size — does NOT hold in general (see the
	// counterexamples in the cycles package tests and the erratum note
	// in BENCHMARKS.md), so smaller explicit values are only sound when
	// the caller knows ε_max (e.g. 1 for the oscillator, whose cycles
	// all have ε = 1).
	Periods int
	// CutSet simulates from these events instead of the border set.
	// The events must form a cut set (verified). Used by the ablation
	// experiments; the paper's algorithm always uses the border set,
	// which is available without any search (§VI.B).
	CutSet []sg.EventID
	// NoIncremental disables the incremental commit path of an Engine:
	// the session never retains its lane traces, and every
	// analysis after a SetDelay/ResetDelays commit re-simulates from
	// scratch. Results are identical either way (the differential tests
	// pin it); this exists as the ablation baseline of the INCR
	// experiment and as an opt-out for sessions that commit rarely and
	// would rather not hold the retained traces' memory.
	NoIncremental bool
}

// AutoParallelThreshold is the number of simulations at which a batch
// of independent jobs moves onto the bounded worker pool (at most
// GOMAXPROCS workers): for an analysis, the border-set size b. Below it
// the pool's goroutine overhead outweighs the win on the O(b·m)
// simulations. The simulations are independent and the per-index
// results exact rationals, so serial and pooled runs produce identical
// Results.
const AutoParallelThreshold = 8

// BorderSeries records the distances collected from one cut-set event.
type BorderSeries struct {
	Event sg.EventID
	// Distances holds δ_{e_0}(e_i) for i = 1..Periods; entries are NaN
	// when e_0 does not precede e_i (no unfolded cycle of that period
	// through the event).
	Distances []float64
	// Best is the largest collected distance as an exact ratio
	// (critical-path length over occurrence period).
	Best stat.Ratio
	// BestIndex is the smallest i attaining Best (0 when none).
	BestIndex int
	// OnCritical reports whether Best equals the global cycle time,
	// which by Prop. 7/8 holds exactly for the cut-set events lying on
	// a critical cycle.
	OnCritical bool
}

// CriticalCycle is a simple cycle attaining the cycle time.
type CriticalCycle struct {
	// Events lists the cycle's events in arc order; Events[0] is
	// revisited after the last element.
	Events []sg.EventID
	// Arcs lists the graph arc indices connecting consecutive events
	// (Arcs[len-1] closes the cycle back to Events[0]).
	Arcs []int
	// Length is the sum of arc delays around the cycle.
	Length float64
	// Period is the occurrence period ε: the number of unfolding
	// periods the cycle covers (= number of marked arcs along it).
	Period int
}

// Ratio returns the effective length C/ε of the cycle (§V.A).
func (c *CriticalCycle) Ratio() stat.Ratio { return stat.NewRatio(c.Length, c.Period) }

// Format renders the cycle like the paper: "a+ -3-> c+ -2-> a- -3-> c- -2-> a+".
func (c *CriticalCycle) Format(g *sg.Graph) string {
	if len(c.Events) == 0 {
		return "<empty>"
	}
	var b strings.Builder
	for i, e := range c.Events {
		b.WriteString(g.Event(e).Name)
		b.WriteString(fmt.Sprintf(" -%g-> ", g.Arc(c.Arcs[i]).Delay))
	}
	b.WriteString(g.Event(c.Events[0]).Name)
	return b.String()
}

// Result is the outcome of a cycle-time analysis.
type Result struct {
	// CycleTime is λ as an exact ratio of critical-cycle length to
	// occurrence period.
	CycleTime stat.Ratio
	// Critical holds the distinct critical cycles found by backtracking
	// from the cut-set events attaining λ (at least one), in cut order,
	// with one k+1-period simulation per distinct cycle: a winner that
	// already lies on a cycle found before it is not backtracked, so a
	// cycle that only such a winner would reach is not listed. Every
	// winner is still marked OnCritical.
	Critical []CriticalCycle
	// Series holds the per-cut-set-event distance series, in the order
	// the events were simulated.
	Series []BorderSeries
	// Periods is the number of unfolding periods each simulation covered.
	Periods int
}

// Analyze runs the paper's algorithm with default options: event-initiated
// simulations from every border event over b = |border| periods.
//
// Analyze is the one-shot form: it compiles a throwaway Engine and runs
// a single analysis. Callers issuing repeated queries against the same
// graph — sensitivity sweeps, slack reports, interval bounds — should
// hold an Engine instead, which compiles once and reuses the schedule
// across queries.
func Analyze(g *sg.Graph) (*Result, error) {
	return AnalyzeOpts(g, Options{})
}

// AnalyzeOpts runs the algorithm with explicit options.
func AnalyzeOpts(g *sg.Graph, opts Options) (*Result, error) {
	e, err := NewEngineOpts(g, opts)
	if err != nil {
		return nil, err
	}
	// The engine is throwaway and exclusively owned: return its cached
	// result directly, skipping Engine.Analyze's defensive deep copy.
	c, err := e.ensureResult(context.Background())
	if err != nil {
		return nil, err
	}
	if err := e.ensureCriticals(context.Background(), c); err != nil {
		return nil, err
	}
	return c.result, nil
}

// runWorkers invokes fn(worker, 0..n-1), distributing the indices over
// `workers` goroutines (sized by Engine.poolSize) pulling from a shared
// atomic counter; the worker id keys each goroutine's private state.
// Worker 0 is the calling goroutine, so one worker runs inline with no
// goroutine overhead and w workers start w−1 goroutines.
func runWorkers(n, workers int, fn func(worker, i int)) {
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	work := func(w int) {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			fn(w, i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()
}

// runIndexed is runWorkers for callers that need no per-worker state.
func runIndexed(n, workers int, fn func(int)) {
	runWorkers(n, workers, func(_, i int) { fn(i) })
}

// seriesFromTimes turns dist, holding t_e0(e_j) at index j-1 (NaN where
// e_j is not reached) as timesim.RunFromWindow writes it, and
// RunFromBatch per sample, into the distance series δ_{e0}(e_j) = t/j
// in place and records its maximum as an exact ratio. Pass 1 and the
// Monte-Carlo λ path both fold through it.
func seriesFromTimes(ev sg.EventID, dist []float64) BorderSeries {
	series := BorderSeries{Event: ev, Distances: dist}
	seriesBest := stat.Ratio{Num: -1, Den: 1}
	bestIdx := 0
	for j := 1; j <= len(dist); j++ {
		t := dist[j-1]
		if math.IsNaN(t) {
			continue
		}
		dist[j-1] = t / float64(j)
		if r := stat.NewRatio(t, j); seriesBest.Less(r) {
			seriesBest = r
			bestIdx = j
		}
	}
	series.Best = seriesBest
	series.BestIndex = bestIdx
	return series
}

// winner is a λ-winner of pass 1: a cut-set event whose series first
// attains λ at period k.
type winner struct {
	ev sg.EventID
	k  int
}

// markWinners marks the series attaining lambda OnCritical and returns
// their events, in series order. A zero BorderSeries never wins.
func markWinners(series []BorderSeries, lambda stat.Ratio) []winner {
	var winners []winner
	for i := range series {
		s := &series[i]
		if s.BestIndex == 0 || !s.Best.Equal(lambda) {
			continue
		}
		s.OnCritical = true
		winners = append(winners, winner{ev: s.Event, k: s.BestIndex})
	}
	return winners
}

// criticalCycles is pass 2 (Prop. 7/8) over the λ-winners, given in cut
// order: a winner whose event already lies on a cycle found so far is
// skipped, every other one is re-simulated and backtracked
// (criticalCycle). So each distinct cycle costs one simulation; on a
// ring whose winners all share one cycle, that is one simulation in
// all. The cycles come back deduplicated in discovery order, with the
// number of winners simulated. Serial, so the list is the same under
// any GOMAXPROCS. The simulations run at the delays at.
func (e *Engine) criticalCycles(at delays, winners []winner, lambda stat.Ratio) ([]CriticalCycle, int, error) {
	pos := make([]int32, e.g.NumEvents())
	covered := make([]bool, e.g.NumEvents())
	var cycs []*CriticalCycle
	for _, w := range winners {
		if covered[w.ev] {
			continue
		}
		cyc, err := e.criticalCycle(at, w.ev, w.k, lambda, pos)
		if err != nil {
			return nil, len(cycs), err
		}
		cycs = append(cycs, cyc)
		for _, ev := range cyc.Events {
			covered[ev] = true
		}
	}
	return DedupeCycles(cycs), len(cycs), nil
}

// criticalCycle re-simulates one λ-winner at the delays at
// (pass2Trace), backtracks from origin_k and releases the trace. pos
// is backtrack's scratch.
func (e *Engine) criticalCycle(at delays, origin sg.EventID, k int, lambda stat.Ratio, pos []int32) (*CriticalCycle, error) {
	tr, err := e.pass2Trace(at, origin, k)
	if err != nil {
		return nil, fmt.Errorf("cycletime: re-simulating from %q: %w", e.g.Event(origin).Name, err)
	}
	defer tr.Release()
	return backtrack(at.g, tr, origin, k, lambda, pos)
}

// pass2Trace simulates from origin over periods 0..k only: a period's
// times depend on earlier periods alone, and the backtrack from
// origin_k never reads a later one, so the trace agrees bit for bit
// with a full e.periods+1 slab everywhere the backtrack looks.
func (e *Engine) pass2Trace(at delays, origin sg.EventID, k int) (*timesim.Trace, error) {
	return e.sched.RunWith(origin, at.cols, timesim.Options{Periods: k + 1})
}

// backtrack reconstructs the unfolded critical path from origin_k back to
// origin_0 via the max-predecessors the trace's times determine
// (Prop. 1) and folds it into a simple cycle attaining the cycle time.
// pos is a zeroed per-event scratch index of g.NumEvents() entries; it
// is zeroed again on return.
func backtrack(g *sg.Graph, tr *timesim.Trace, origin sg.EventID, k int, lambda stat.Ratio, pos []int32) (*CriticalCycle, error) {
	// Collect the path backwards from origin_k, then reverse it in
	// place, so that nodes[i] --arcs[i]--> nodes[i+1] from origin_0 on.
	nodes := []sg.EventID{origin}
	periods := []int{k}
	var arcs []int
	e, p := origin, k
	for !(e == origin && p == 0) {
		pe, pp, arc, ok := tr.Parent(e, p)
		if !ok {
			return nil, fmt.Errorf("cycletime: backtracking from %s_%d stranded at %s_%d",
				g.Event(origin).Name, k, g.Event(e).Name, p)
		}
		nodes = append(nodes, pe)
		periods = append(periods, pp)
		arcs = append(arcs, arc)
		e, p = pe, pp
	}
	slices.Reverse(nodes)
	slices.Reverse(periods)
	slices.Reverse(arcs)

	// The folded path may revisit an event (a combination of critical
	// cycles, Prop. 5); the first repeated event closes a simple
	// sub-cycle, which necessarily attains λ exactly. pos holds each
	// event's first path position + 1.
	start, end := -1, -1
	for i, ev := range nodes {
		if q := pos[ev]; q != 0 {
			start, end = int(q)-1, i
			break
		}
		pos[ev] = int32(i) + 1
	}
	seen := nodes
	if end >= 0 {
		seen = nodes[:end]
	}
	for _, ev := range seen {
		pos[ev] = 0
	}
	if start < 0 {
		return nil, fmt.Errorf("cycletime: critical path from %s has no repeated event", g.Event(origin).Name)
	}
	cyc := &CriticalCycle{
		Events: append([]sg.EventID(nil), nodes[start:end]...),
		Arcs:   append([]int(nil), arcs[start:end]...),
		Period: periods[end] - periods[start],
	}
	for _, ai := range cyc.Arcs {
		cyc.Length += g.Arc(ai).Delay
	}
	// Cycle length is summed in arc order while λ's numerator comes from
	// the simulation's (topological) summation order; with non-integral
	// delays the two roundings can differ in the last ulps, so the
	// consistency check tolerates relative float noise — relative to
	// the cross-multiplied magnitudes themselves, so the safety net
	// stays effective at any delay scale — instead of demanding exact
	// cross-multiplied equality.
	if got := cyc.Ratio(); !got.Equal(lambda) {
		x := got.Num * float64(lambda.Den)
		y := lambda.Num * float64(got.Den)
		if math.Abs(x-y) > 1e-9*math.Max(math.Abs(x), math.Abs(y)) {
			return nil, fmt.Errorf("cycletime: internal error: extracted cycle ratio %v != cycle time %v",
				got, lambda)
		}
	}
	return cyc, nil
}

// sameCycle reports whether a and b are the same simple cycle up to
// rotation, so that the same cycle discovered from different cut-set
// events deduplicates. Comparison is allocation-free: each arc sequence
// is anchored at its lexicographically least rotation (precomputed once
// per cycle) and compared element-wise.
func sameCycle(a *CriticalCycle, aStart int, b *CriticalCycle, bStart int) bool {
	n := len(a.Arcs)
	if n != len(b.Arcs) || a.Period != b.Period {
		return false
	}
	for i := 0; i < n; i++ {
		ai, bi := aStart+i, bStart+i
		if ai >= n {
			ai -= n
		}
		if bi >= n {
			bi -= n
		}
		if a.Arcs[ai] != b.Arcs[bi] {
			return false
		}
	}
	return true
}

// leastRotation returns the start index of the lexicographically least
// rotation of s. Arc indices around a simple cycle are distinct, so that
// rotation is the one starting at the smallest arc.
func leastRotation(s []int) int {
	best := 0
	for i := range s {
		if s[i] < s[best] {
			best = i
		}
	}
	return best
}
