package timesim

import (
	"fmt"
	"math"
	"sync"

	"tsg/internal/sg"
)

// Schedule is a Timed Signal Graph compiled for repeated simulation. The
// existence logic of §IV.A — which in-arcs constrain an instantiation in
// which unfolding period, and from which source period — depends only on
// the period class, never on the concrete period:
//
//   - period 0: exactly the unmarked in-arcs (marked arcs start
//     satisfied by their token; arcs from non-repetitive sources exist
//     iff p equals their marking);
//   - period 1: arcs from repetitive sources, plus marked arcs from
//     non-repetitive sources (their single occurrence feeds f_1);
//   - periods >= 2: arcs from repetitive sources only.
//
// Compile therefore specialises the graph's in-arc records into three
// flat struct-of-arrays tables, one per class, in topological order. In
// every class the source period is p - markingOffset, so the inner loop
// of a period is a single linear scan with no branching on event or
// source kinds. All records within one event keep ascending arc-index
// order, so the first record attaining an instantiation's time is the
// parent the reference kernel selects (first max wins).
//
// A Schedule is immutable after Compile — except for its own delay
// columns, which RefreshArcDelay and RefreshDelays rewrite in place so
// one compiled schedule can track the delay edits of an sg.Overlay
// session (the compile-once/query-many engine of the cycletime
// package) — and safe for concurrent use between refreshes; the b
// event-initiated simulations of one cycle-time analysis share one
// Schedule and draw their working slabs from its pool. Refreshes must
// not run concurrently with simulations; the session layer serialises
// them. Runs at other delays read private columns (BatchDelays).
type Schedule struct {
	g *sg.Graph
	n int

	// The three record classes: period 0 over the full period order,
	// period 1 and the steady state (periods >= 2) over the repetitive
	// events in period order. c1 and cS share their order and pos views.
	c0, c1, cS class

	// arcTo/arcMark are the flat head-event and marking columns of the
	// graph's arcs, so the incremental kernel's propagation loop never
	// copies Arc structs.
	arcTo   []sg.EventID
	arcMark []int32

	patchPool sync.Pool // *patchScratch

	// rowInit is the times-row template for periods >= 1: NaN at
	// non-repetitive slots (no instantiation), 0 elsewhere (overwritten
	// during evaluation).
	rowInit []float64

	// carry lays out the carry row of the one-row origin-lane window
	// (origins.go): the slot of every source of a marked record of
	// periods >= 1, -1 elsewhere; carried lists those sources by slot.
	carry   []int32
	carried []sg.EventID

	pool    memPool[slab]
	winPool memPool[window] // the rolling-window kernels
}

// class is the in-arc record table of one period class: CSR over the
// positions of its order view, records of one event in ascending
// arc-index order. In every class the source period of a record is the
// evaluated period minus the record's marking offset.
type class struct {
	order []sg.EventID // events evaluated in a period of this class
	pos   []int32      // event -> position in order, -1 where absent

	off  []int32 // records of position i are off[i]..off[i+1]-1
	src  []sg.EventID
	del  []float64
	mark []int32 // marking offset of the source period (0 throughout class 0)
	arc  []int32

	// rec inverts the arc column: graph arc index -> record position,
	// -1 where the arc has no record of this class. It makes a
	// single-arc delay refresh O(1) and doubles as the existence test
	// of §IV.A in the incremental kernel.
	rec []int32
}

// newClass allocates a class for exactly recs records over the events
// of order (pos shared with the caller).
func newClass(order []sg.EventID, pos []int32, recs, m int) class {
	c := class{
		order: order, pos: pos,
		off:  make([]int32, 1, len(order)+1),
		src:  make([]sg.EventID, 0, recs),
		del:  make([]float64, 0, recs),
		mark: make([]int32, 0, recs),
		arc:  make([]int32, 0, recs),
		rec:  make([]int32, m),
	}
	for i := range c.rec {
		c.rec[i] = -1
	}
	return c
}

// push appends in-CSR record r to the class.
func (c *class) push(csr *sg.InCSR, r int32) {
	c.rec[csr.Arc[r]] = int32(len(c.src))
	c.src = append(c.src, csr.Src[r])
	c.del = append(c.del, csr.Delay[r])
	c.mark = append(c.mark, csr.Mark[r])
	c.arc = append(c.arc, int32(csr.Arc[r]))
}

// slab is the pooled times storage of one full trace.
type slab struct {
	times []float64
}

// Compile builds the simulation schedule of a graph. The graph must have
// a period order (guaranteed for validated graphs).
func Compile(g *sg.Graph) (*Schedule, error) {
	order, err := g.PeriodOrder()
	if err != nil {
		return nil, err
	}
	csr := g.InCSR()
	n := g.NumEvents()
	m := g.NumArcs()
	s := &Schedule{g: g, n: n}

	// Exact record counts per class, so the column arrays are allocated
	// once instead of growing by appends.
	var n0, n1, nS, nR int
	for _, f := range order {
		rep := g.Event(f).Repetitive
		if rep {
			nR++
		}
		for r := csr.Off[f]; r < csr.Off[f+1]; r++ {
			if csr.Mark[r] == 0 {
				n0++
			}
			if !rep {
				continue
			}
			if g.Event(csr.Src[r]).Repetitive {
				n1++
				nS++
			} else if csr.Mark[r] == 1 {
				n1++
			}
		}
	}

	pos0 := make([]int32, n)
	posR := make([]int32, n)
	orderR := make([]sg.EventID, 0, nR)
	for i := range posR {
		posR[i] = -1
	}
	for idx, f := range order {
		pos0[f] = int32(idx)
		if g.Event(f).Repetitive {
			posR[f] = int32(len(orderR))
			orderR = append(orderR, f)
		}
	}
	s.c0 = newClass(order, pos0, n0, m)
	s.c1 = newClass(orderR, posR, n1, m)
	s.cS = newClass(orderR, posR, nS, m)

	s.rowInit = make([]float64, n)
	for i := range s.rowInit {
		s.rowInit[i] = math.NaN()
	}
	for _, f := range order {
		rep := g.Event(f).Repetitive
		for r := csr.Off[f]; r < csr.Off[f+1]; r++ {
			if csr.Mark[r] == 0 {
				s.c0.push(&csr, r)
			}
			if !rep {
				continue
			}
			srcRep := g.Event(csr.Src[r]).Repetitive
			if srcRep || csr.Mark[r] == 1 {
				s.c1.push(&csr, r)
			}
			if srcRep {
				s.cS.push(&csr, r)
			}
		}
		s.c0.off = append(s.c0.off, int32(len(s.c0.src)))
		if rep {
			s.rowInit[f] = 0
			s.c1.off = append(s.c1.off, int32(len(s.c1.src)))
			s.cS.off = append(s.cS.off, int32(len(s.cS.src)))
		}
	}

	s.carry = make([]int32, n)
	for i := range s.carry {
		s.carry[i] = -1
	}
	for _, c := range []*class{&s.c1, &s.cS} {
		for r, mk := range c.mark {
			if e := c.src[r]; mk != 0 && s.carry[e] < 0 {
				s.carry[e] = int32(len(s.carried))
				s.carried = append(s.carried, e)
			}
		}
	}

	s.arcTo = make([]sg.EventID, m)
	s.arcMark = make([]int32, m)
	for i := 0; i < m; i++ {
		a := g.Arc(i)
		s.arcTo[i] = a.To
		if a.Marked {
			s.arcMark[i] = 1
		}
	}
	return s, nil
}

// classes returns the three record classes.
func (s *Schedule) classes() [3]*class { return [3]*class{&s.c0, &s.c1, &s.cS} }

// class returns the record class that evaluates period p.
func (s *Schedule) class(p int) *class {
	switch p {
	case 0:
		return &s.c0
	case 1:
		return &s.c1
	}
	return &s.cS
}

// Graph returns the compiled graph.
func (s *Schedule) Graph() *sg.Graph { return s.g }

// MemEstimate returns the approximate heap bytes of the compiled
// schedule's own arrays — the three per-class record tables, their
// offset and inverse columns, the order views and the row template —
// excluding the graph, which the schedule shares with its compiler,
// and excluding working memory, whose size depends on the simulation
// shape — slabs and lane traces scale with the period count, windows
// with n and the lane count alone (WindowBytes, LaneWindowBytes). The
// session layer accounts for what it retains; see
// cycletime.Engine.SizeHint.
func (s *Schedule) MemEstimate() int64 {
	var sz int64
	for _, c := range s.classes() {
		sz += int64(len(c.src)) * 28 // src+del+mark+arc columns
		sz += int64(len(c.off)+len(c.rec)) * 4
	}
	sz += int64(len(s.c0.pos)+len(s.c1.pos)+len(s.arcMark)+len(s.carry))*4 + int64(len(s.arcTo)+len(s.carried))*8
	sz += int64(len(s.c0.order)+len(s.c1.order)+len(s.rowInit)) * 8
	return sz
}

// RefreshArcDelay rewrites the compiled delay columns for one arc. It
// is the O(1) hook an sg.Overlay session drains its dirty set into
// (Overlay.DrainDirty), keeping the schedule consistent with in-place
// delay edits without recompiling. Must not run concurrently with
// Run/RunFrom.
func (s *Schedule) RefreshArcDelay(arc int, delay float64) {
	for _, c := range s.classes() {
		if r := c.rec[arc]; r >= 0 {
			c.del[r] = delay
		}
	}
}

// RefreshDelays re-reads every arc delay from the compiled graph (an
// overlay view whose delays may have changed wholesale) into the delay
// columns: the O(m) full-refresh counterpart of RefreshArcDelay. Must
// not run concurrently with Run/RunFrom.
func (s *Schedule) RefreshDelays() {
	for _, c := range s.classes() {
		for r, a := range c.arc {
			c.del[r] = s.g.Arc(int(a)).Delay
		}
	}
}

// Run executes the plain timing simulation t of §IV.A.
func (s *Schedule) Run(opts Options) (*Trace, error) {
	return s.run(sg.None, nil, opts)
}

// RunFrom executes the event-initiated simulation t_origin of §IV.B.
// The returned trace may be handed back to the schedule's slab pool with
// Trace.Release once its values have been consumed.
func (s *Schedule) RunFrom(origin sg.EventID, opts Options) (*Trace, error) {
	return s.RunWith(origin, nil, opts)
}

// RunWith is RunFrom (Run for origin sg.None) at the width-1 private
// delay columns d, or the schedule's own for nil d. Parent rescans d,
// so d must not change while the trace is in use.
func (s *Schedule) RunWith(origin sg.EventID, d *BatchDelays, opts Options) (*Trace, error) {
	if origin != sg.None && (origin < 0 || int(origin) >= s.n) {
		return nil, fmt.Errorf("timesim: origin event %d out of range", origin)
	}
	if d != nil && d.s != 1 {
		return nil, fmt.Errorf("timesim: a trace runs at one delay column, got %d", d.s)
	}
	return s.run(origin, d, opts)
}

// acquire prepares a slab for a run of the given period count, reusing
// pooled memory where the capacity suffices. The walk writes every
// cell, so the slab is not cleared.
func (s *Schedule) acquire(periods int) *slab {
	need := periods * s.n
	sl := s.pool.get()
	if sl == nil {
		sl = &slab{}
	}
	if cap(sl.times) < need {
		sl.times = make([]float64, need)
	} else {
		sl.times = sl.times[:need]
	}
	return sl
}

func (s *Schedule) run(origin sg.EventID, d *BatchDelays, opts Options) (*Trace, error) {
	if opts.Periods < 1 {
		return nil, fmt.Errorf("timesim: periods must be >= 1, got %d", opts.Periods)
	}
	sl := s.acquire(opts.Periods)
	tr := &Trace{
		g: s.g, origin: origin, periods: opts.Periods, n: s.n, order: s.c0.order,
		times: sl.times, sched: s, slab: sl, cols: d,
	}
	for p := 0; p < tr.periods; p++ {
		rw := tr.rows(p)
		if p > 0 {
			copy(tr.times[rw.cur:rw.cur+s.n], s.rowInit)
		}
		s.class(p).walk(&rw)
	}
	return tr, nil
}

// column returns the delay column period p's walk reads from d (nil:
// the schedule's own).
func (s *Schedule) column(d *BatchDelays, p int) []float64 {
	if d != nil {
		return d.del[min(p, 2)]
	}
	return s.class(p).del
}

// rows is the storage one period's walk reads and writes: the
// evaluated period's row starts at cur, its predecessor's at cur-back,
// and lane l of event e sits at row start + e·width + l. A full trace
// slab lays every period out in turn (back = n, one lane); the rolling
// window (roll) alternates two rows of one lane, or overwrites one row
// of several (cur = back = 0) beside a carry row; a lane trace keeps
// one such row and carry row per period.
type rows struct {
	times []float64
	del   []float64 // the walked class's delay column, width lanes per record
	cur   int
	back  int
	width int        // lanes per event; walk reads one, walkLanes width
	pin   sg.EventID // the initiating instantiation (period 0 only), else sg.None
	// unreached is the time written where no live record reaches an
	// instantiation: 0 in a plain simulation (a member of I_u), -Inf in
	// an event-initiated one. A -Inf source sums to -Inf (NaN on a +Inf
	// delay) and never wins a max, exactly as if skipped, so the times
	// carry reachedness themselves.
	unreached float64
}

// rows returns the storage view that evaluates period p of a slab trace.
func (tr *Trace) rows(p int) rows {
	rw := rows{times: tr.times, del: tr.sched.column(tr.cols, p), cur: p * tr.n, back: tr.n, width: 1, pin: sg.None}
	if tr.origin != sg.None {
		rw.unreached = math.Inf(-1)
		if p == 0 {
			rw.pin = tr.origin
		}
	}
	return rw
}

// walk is the scalar simulation kernel: it evaluates every
// instantiation of the class's order view into rw under the MAX rule,
// at the delay column rw.del. Each position keeps the maximum over its
// records, so both kernels built on it — full slab runs and the
// two-row window — perform the same float adds and comparisons as the
// reference kernel.
//
// The initiating instantiation rw.pin is 0 by definition (§IV.B). An
// instantiation with no live in-record is written as rw.unreached.
// Delays are never NaN or -Inf (sg validates them), so a live source
// always beats -Inf and "the max stayed -Inf" is exactly "no record was
// live".
func (c *class) walk(rw *rows) {
	times, pin, unreached := rw.times, rw.pin, rw.unreached
	cur, back := rw.cur, rw.back
	off, src, del, mark := c.off, c.src, rw.del, c.mark
	for idx, f := range c.order {
		best := math.Inf(-1)
		for r := off[idx]; r < off[idx+1]; r++ {
			if v := times[cur-int(mark[r])*back+int(src[r])] + del[r]; v > best {
				best = v
			}
		}
		switch {
		case f == pin:
			best = 0
		case math.IsInf(best, -1):
			best = unreached
		}
		times[cur+int(f)] = best
	}
}

// parent derives the max-predecessor of f_p from the trace's times: the
// first record, in ascending arc order, whose source time plus delay
// (at the trace's columns) equals t(f_p). The walk keeps the first
// strict maximum, so this is the record it would have kept, ties and
// +Inf delays included. An unreached source sums to -Inf or NaN and
// never matches a live time.
func (s *Schedule) parent(tr *Trace, f sg.EventID, p int) (sg.EventID, int, int, bool) {
	c := s.class(p)
	idx := c.pos[f]
	rw := tr.rows(p)
	if idx < 0 || f == rw.pin {
		return sg.None, -1, -1, false
	}
	t := tr.times[rw.cur+int(f)]
	if math.IsInf(t, -1) {
		return sg.None, -1, -1, false
	}
	for r := c.off[idx]; r < c.off[idx+1]; r++ {
		if tr.times[rw.cur-int(c.mark[r])*rw.back+int(c.src[r])]+rw.del[r] == t {
			return c.src[r], p - int(c.mark[r]), int(c.arc[r]), true
		}
	}
	return sg.None, -1, -1, false
}
