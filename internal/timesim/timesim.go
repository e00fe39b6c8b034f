// Package timesim implements the timing simulation of §IV of the paper:
// the evaluation of event occurrence times over the unfolding of a Timed
// Signal Graph under the MAX rule,
//
//	t(f) = 0                                if f ∈ I_u
//	t(f) = max{ t(e) + τ | e →τ f }         otherwise,
//
// and the event-initiated variant t_g (§IV.B), in which every
// instantiation not strictly preceded by the initiating instantiation g_0
// is pinned to time 0 and its out-arcs are ignored.
//
// The simulation streams period by period in a topological order of the
// unmarked-arc subgraph, so it needs O(n) working state and O(m) time per
// period and never materialises the unfolding. Occurrence times for all
// simulated periods are retained for table and diagram generation, and
// they are the whole trace: the max-predecessors the critical-cycle
// backtracking of §VI.B (Prop. 1) walks are derived from them on
// demand (Trace.Parent), never stored.
//
// Every entry point runs on a compiled Schedule (see Compile): the
// graph's in-arcs are specialised per unfolding period into flat
// record arrays, so the inner loop is a linear scan with no existence
// tests, and the simulations of one cycle-time analysis share the
// compiled form. Two record walks serve them:
//
//   - the scalar walk (class.walk), one simulation at a time: Run,
//     RunFrom and RunWith keep every period in a trace slab (pass 2
//     backtracks through one, deriving parents); RunFromWindow and
//     RunPlainWindow (the slack certificate's seed) keep two rows;
//   - the origin-lane walk (class.walkOrigins), several event-
//     initiated simulations per record load, one lane per origin (the
//     engine runs four):
//     RunFromOrigins keeps one row plus a carry row of the sources of
//     marked records (the engine's pass 1, its what-if rows and
//     decreases), RunLaneTrace keeps every period's row and carry row
//     (the pass 1 of a session that edits its delays), and Patch
//     re-walks the dirty cone of such a lane trace in place
//     (incremental.go).
//
// The Monte-Carlo kernel RunFromBatch (batch.go) walks one lane per
// delay sample (class.walkLanes) on the same one-row layout. Every
// trace-less run goes through one period driver, the rolling window
// (roll, window.go). Reachedness rides in the times (−∞): it is the
// same in every sample lane, because no delay is −∞ or NaN, and
// differs between origin lanes, whose walk therefore skips no record.
// All walks perform the reference kernel's float adds and comparisons
// in the same record order, so their times are bit-identical.
// ReferenceRun and ReferenceRunFrom walk the graph's adjacency lists
// directly; they are retained as the executable specification the
// compiled kernel is differentially tested against.
package timesim

import (
	"fmt"
	"math"

	"tsg/internal/sg"
	"tsg/internal/stat"
)

// Options configures a simulation run.
type Options struct {
	// Periods is the number of unfolding periods to simulate (>= 1).
	Periods int
}

// Trace holds the occurrence times of a finished simulation. Rows are
// stored as flat slabs with stride n = NumEvents: the value of
// instantiation e_p lives at index p*n+e.
type Trace struct {
	g       *sg.Graph
	origin  sg.EventID
	periods int
	n       int
	order   []sg.EventID

	// times[p*n+e] is t(e_p); NaN where the instantiation does not exist
	// (non-repetitive events beyond period 0). On compiled traces of an
	// event-initiated simulation, -Inf marks an instantiation the origin
	// does not precede (the paper pins it to 0; Time reports it so).
	times []float64

	// Set for compiled traces: the schedule whose records Parent
	// rescans, and the pooled slab Release returns; cols are the private
	// delay columns of the run (nil: the schedule's own).
	sched *Schedule
	slab  *slab
	cols  *BatchDelays

	// ref is the reference kernel's recorded reachedness and parents;
	// nil for compiled traces.
	ref *recorded
}

// recorded is what the reference kernel notes during its forward walk
// besides the times: the reached bitset over p*n+e (nil for plain
// simulations) and the parent that realised each max. Tests compare the
// compiled kernel's derived answers against it.
type recorded struct {
	reached      []uint64
	parentEvent  []sg.EventID // sg.None where no parent
	parentPeriod []int32
	parentArc    []int32
}

func bitGet(b []uint64, i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }
func bitSet(b []uint64, i int)      { b[i>>6] |= 1 << (uint(i) & 63) }

// Run executes the plain timing simulation t of §IV.A on the compiled
// kernel and returns its trace. Callers running many simulations of the
// same graph should Compile once and use Schedule.Run.
func Run(g *sg.Graph, opts Options) (*Trace, error) {
	s, err := Compile(g)
	if err != nil {
		return nil, err
	}
	return s.Run(opts)
}

// RunFrom executes the event-initiated timing simulation t_origin of
// §IV.B, initiated at instantiation 0 of the given event, on the
// compiled kernel.
func RunFrom(g *sg.Graph, origin sg.EventID, opts Options) (*Trace, error) {
	s, err := Compile(g)
	if err != nil {
		return nil, err
	}
	return s.RunFrom(origin, opts)
}

// ReferenceRun executes the plain simulation on the uncompiled reference
// kernel, which walks the graph adjacency directly. It exists for
// differential testing of the compiled kernel; results are bit-identical
// to Run.
func ReferenceRun(g *sg.Graph, opts Options) (*Trace, error) {
	return referenceRun(g, sg.None, opts)
}

// ReferenceRunFrom is the event-initiated counterpart of ReferenceRun;
// results are bit-identical to RunFrom.
func ReferenceRunFrom(g *sg.Graph, origin sg.EventID, opts Options) (*Trace, error) {
	if origin < 0 || int(origin) >= g.NumEvents() {
		return nil, fmt.Errorf("timesim: origin event %d out of range", origin)
	}
	return referenceRun(g, origin, opts)
}

func referenceRun(g *sg.Graph, origin sg.EventID, opts Options) (*Trace, error) {
	if opts.Periods < 1 {
		return nil, fmt.Errorf("timesim: periods must be >= 1, got %d", opts.Periods)
	}
	order, err := g.PeriodOrder()
	if err != nil {
		return nil, err
	}
	n := g.NumEvents()
	tr := &Trace{g: g, origin: origin, periods: opts.Periods, n: n, order: order}
	need := opts.Periods * n
	tr.times = make([]float64, need)
	for i := range tr.times {
		tr.times[i] = math.NaN()
	}
	initiated := origin != sg.None
	rec := &recorded{
		parentEvent:  make([]sg.EventID, need),
		parentPeriod: make([]int32, need),
		parentArc:    make([]int32, need),
	}
	if initiated {
		rec.reached = make([]uint64, (need+63)>>6)
	}
	for i := range rec.parentEvent {
		rec.parentEvent[i] = sg.None
	}
	tr.ref = rec
	for p := 0; p < opts.Periods; p++ {
		tr.referencePeriod(p, initiated)
	}
	return tr, nil
}

// referencePeriod evaluates all instantiations of period p in topological
// order, resolving each in-arc's existence and source period from first
// principles (§IV.A/§IV.B).
func (tr *Trace) referencePeriod(p int, initiated bool) {
	g, rec := tr.g, tr.ref
	n := tr.n
	base := p * n
	for _, f := range tr.order {
		ev := g.Event(f)
		if p > 0 && !ev.Repetitive {
			continue // no instantiation
		}
		best := math.Inf(-1)
		bestE, bestP, bestArc := sg.None, -1, -1
		anyPred := false
		for _, ai := range g.InArcs(f) {
			a := g.Arc(ai)
			m := 0
			if a.Marked {
				m = 1
			}
			var (
				srcPeriod int
				exists    bool
			)
			if g.Event(a.From).Repetitive {
				srcPeriod = p - m
				exists = srcPeriod >= 0
			} else {
				srcPeriod = 0
				exists = p == m
			}
			if !exists {
				continue
			}
			if initiated && !bitGet(rec.reached, srcPeriod*n+int(a.From)) {
				continue // arc from an event not preceded by the origin
			}
			anyPred = true
			if v := tr.times[srcPeriod*n+int(a.From)] + a.Delay; v > best {
				best = v
				bestE, bestP, bestArc = a.From, srcPeriod, ai
			}
		}
		fi := base + int(f)
		switch {
		case initiated && f == tr.origin && p == 0:
			// t_g(g) = 0 by definition, regardless of in-arcs.
			tr.times[fi] = 0
			bitSet(rec.reached, fi)
		case initiated && !anyPred:
			// g does not precede f_p: pinned to 0, out-arcs ignored
			// (reached stays false so successors skip it).
			tr.times[fi] = 0
		case !anyPred:
			tr.times[fi] = 0 // member of I_u: all in-arcs initially active
		default:
			tr.times[fi] = best
			if initiated {
				bitSet(rec.reached, fi)
			}
			rec.parentEvent[fi] = bestE
			rec.parentPeriod[fi] = int32(bestP)
			rec.parentArc[fi] = int32(bestArc)
		}
	}
}

// Release returns the trace's slabs to the pool of the Schedule that ran
// it. The trace must not be used afterwards. Traces from the reference
// kernel (or already released) are left untouched.
func (tr *Trace) Release() {
	if tr.sched == nil || tr.slab == nil {
		return
	}
	sl := tr.slab
	tr.slab = nil
	tr.times = nil
	tr.sched.pool.put(sl)
}

// Graph returns the simulated graph.
func (tr *Trace) Graph() *sg.Graph { return tr.g }

// Periods returns the number of simulated periods.
func (tr *Trace) Periods() int { return tr.periods }

// Origin returns the initiating event, or sg.None for plain simulations.
func (tr *Trace) Origin() sg.EventID { return tr.origin }

// index returns the slab index of e_period, or false when either is
// out of range.
func (tr *Trace) index(e sg.EventID, period int) (int, bool) {
	if e < 0 || int(e) >= tr.n || period < 0 || period >= tr.periods {
		return 0, false
	}
	return period*tr.n + int(e), true
}

// Time returns t(e_period) and whether that instantiation exists. An
// instantiation the origin does not precede reports the paper's pinned
// time 0.
func (tr *Trace) Time(e sg.EventID, period int) (float64, bool) {
	i, ok := tr.index(e, period)
	if !ok {
		return 0, false
	}
	switch v := tr.times[i]; {
	case math.IsNaN(v):
		return 0, false
	case math.IsInf(v, -1):
		return 0, true
	default:
		return v, true
	}
}

// Reached reports whether the origin precedes e_period (always true for
// existing instantiations of plain simulations; the origin itself counts
// as reached).
func (tr *Trace) Reached(e sg.EventID, period int) bool {
	i, ok := tr.index(e, period)
	if !ok {
		return false
	}
	v := tr.times[i]
	if math.IsNaN(v) {
		return false
	}
	if tr.ref != nil {
		return tr.ref.reached == nil || bitGet(tr.ref.reached, i)
	}
	return !math.IsInf(v, -1)
}

// Parent returns the predecessor instantiation and graph-arc index that
// realised the max for e_period. ok is false when the instantiation has
// no parent: it does not exist, is initial (a member of I_u or the
// origin_0 of an event-initiated simulation) or is not preceded by the
// origin.
func (tr *Trace) Parent(e sg.EventID, period int) (pe sg.EventID, pp int, arc int, ok bool) {
	i, ok := tr.index(e, period)
	if !ok {
		return sg.None, -1, -1, false
	}
	if rec := tr.ref; rec != nil {
		if pe = rec.parentEvent[i]; pe == sg.None {
			return sg.None, -1, -1, false
		}
		return pe, int(rec.parentPeriod[i]), int(rec.parentArc[i]), true
	}
	return tr.sched.parent(tr, e, period)
}

// AvgDistances returns the average occurrence distance series of §IV.C
// for a plain simulation: δ(e_i) = t(e_i)/(i+1) for i = 0..periods-1.
func (tr *Trace) AvgDistances(e sg.EventID) *stat.Series {
	s := stat.NewSeries(tr.periods)
	for p := 0; p < tr.periods; p++ {
		if v, ok := tr.Time(e, p); ok {
			s.Append(v / float64(p+1))
		}
	}
	return s
}

// InitiatedDistances returns the series δ_{g_0}(g_j) = t_{g_0}(g_j)/j for
// j = 1..periods-1, where g is the initiating event. These are the
// quantities maximised in Prop. 7 to obtain the cycle time.
func (tr *Trace) InitiatedDistances() (*stat.Series, error) {
	if tr.origin == sg.None {
		return nil, fmt.Errorf("timesim: InitiatedDistances on a plain simulation")
	}
	s := stat.NewSeries(tr.periods - 1)
	for j := 1; j < tr.periods; j++ {
		if v, ok := tr.Time(tr.origin, j); ok {
			s.Append(v / float64(j))
		}
	}
	return s, nil
}

// Distance returns δ_{g_0}(g_j) = t_{g_0}(g_j)/j for the initiating event.
func (tr *Trace) Distance(j int) (float64, error) {
	if tr.origin == sg.None {
		return 0, fmt.Errorf("timesim: Distance on a plain simulation")
	}
	if j < 1 || j >= tr.periods {
		return 0, fmt.Errorf("timesim: Distance index %d out of range [1,%d)", j, tr.periods)
	}
	v, ok := tr.Time(tr.origin, j)
	if !ok {
		return 0, fmt.Errorf("timesim: origin %s has no instantiation %d",
			tr.g.Event(tr.origin).Name, j)
	}
	return v / float64(j), nil
}

// OccurrenceDistance returns t(e_{i+1}) - t(e_i): the occurrence distance
// between successive instantiations (§II), used by the timing-diagram
// experiments of Fig. 1c/1d.
func (tr *Trace) OccurrenceDistance(e sg.EventID, i int) (float64, error) {
	a, ok := tr.Time(e, i)
	if !ok {
		return 0, fmt.Errorf("timesim: no instantiation %s_%d", tr.g.Event(e).Name, i)
	}
	b, ok := tr.Time(e, i+1)
	if !ok {
		return 0, fmt.Errorf("timesim: no instantiation %s_%d", tr.g.Event(e).Name, i+1)
	}
	return b - a, nil
}
