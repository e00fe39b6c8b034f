package timesim

import (
	"fmt"
	"math"

	"tsg/internal/sg"
)

// The rolling window: the one driver (roll) of every simulation that
// reads times period by period and keeps no trace. The existence rules
// of §IV.A only ever reference the current period (unmarked in-arcs)
// and the previous one (marked in-arcs), so O(n) working state per
// lane suffices regardless of the period count. One lane alternates
// two rows; more lanes share one row, overwritten in place each
// period, and a carry row of the sources of marked records
// (origins.go). Four entry points run on it:
//
//   - RunFromOrigins (origins.go): one lane per origin at one delay
//     column, reading back any event of any lane in every period. A
//     fresh session's pass 1 (the series of Prop. 7) and the what-if
//     rows run it, up to four origins per walk;
//   - RunFromWindow, one origin's own times on the scalar walk. It
//     shares its runner (lanes) with a single origin of
//     RunFromOrigins; RunFromBatch at width 1 runs it too;
//   - RunFromBatch (batch.go): one lane per delay sample of a
//     BatchDelays — the Monte-Carlo kernel;
//   - RunPlainWindow, the plain simulation t of §IV.A on the scalar
//     walk, handing each period's row to a visitor: the seed of the
//     engine's slack certificate.
//
// They differ only in the record walk (class.walk; walkOrigins, which
// pins each lane's own origin; walkLanes) and in what they read back.
// Results are bit-identical to Run/RunFrom + Trace.Time/Reached: every
// walk performs the same float adds and comparisons in the same record
// order; only the row storage differs. Pass 2, which backtracks
// through every period, re-simulates its few λ-winning origins with
// full traces; a session that patches its pass 1 keeps every row of
// its origin lanes (LaneTrace, incremental.go).

// window is the pooled working set of one windowed simulation: two
// rows back to back, or one row and the carry row. Like a slab, an
// instantiation the origin does not precede holds -Inf.
type window struct {
	times []float64
}

// acquireWindow draws a window of need floats from the schedule's
// pool, reusing pooled memory where the capacity suffices.
func (s *Schedule) acquireWindow(need int) *window {
	w := s.winPool.get()
	if w == nil || cap(w.times) < need {
		return &window{times: make([]float64, need)}
	}
	w.times = w.times[:need]
	return w
}

// WindowBytes returns the approximate heap bytes of one pooled
// single-lane two-row window: the per-simulation working set of the
// scalar windowed kernel (two float64 rows).
func (s *Schedule) WindowBytes() int64 { return int64(s.n) * 2 * 8 }

// LaneWindowBytes returns the approximate heap bytes of one pooled
// window of more than one lane (origin lanes or Monte-Carlo sample
// lanes): one float64 row and the carry row, each lanes wide.
func (s *Schedule) LaneWindowBytes(lanes int) int64 {
	return int64(s.n+len(s.carried)) * int64(lanes) * 8
}

// checkRun validates the origins and period count of a run.
func (s *Schedule) checkRun(origins []sg.EventID, periods int) error {
	for _, o := range origins {
		if o < 0 || int(o) >= s.n {
			return fmt.Errorf("timesim: origin event %d out of range", o)
		}
	}
	if periods < 1 {
		return fmt.Errorf("timesim: periods must be >= 1, got %d", periods)
	}
	return nil
}

// roll is the period driver of the rolling window. It validates the
// run, draws a window of width lanes per event from the pool, and
// evaluates the simulations from origins over periods 0..periods at
// the delay columns d (nil: the schedule's own). Width 1 alternates
// two rows; a wider window is one row and the carry row, which roll
// refills before every period after the first. origins holds no
// origin (the plain simulation, where an unreached instantiation is
// 0), one origin, which roll pins in every lane (rw.pin), or one per
// lane, which walkOrigins pins itself. For each period, step(p, c, rw)
// walks class c into rw and reads what it needs; rw.cur is the start
// of period p's row and rw.del the period's delay column.
func (s *Schedule) roll(origins []sg.EventID, periods, width int, d *BatchDelays, step func(p int, c *class, rw rows)) error {
	if err := s.checkRun(origins, periods); err != nil {
		return err
	}
	stride, need := s.n, 2*s.n // where the second row starts
	if width > 1 {
		stride, need = 0, (s.n+len(s.carried))*width
	}
	w := s.acquireWindow(need)
	rw := rows{times: w.times, del: s.column(d, 0), width: width, pin: sg.None, unreached: math.Inf(-1)}
	switch len(origins) {
	case 0:
		rw.unreached = 0
	case 1:
		rw.pin = origins[0]
	}
	step(0, &s.c0, rw)
	rw.pin = sg.None
	for p := 1; p <= periods; p++ {
		if width > 1 {
			s.fillCarry(w.times, w.times, width)
		}
		prev := rw.cur
		rw.cur = stride - prev
		rw.back = rw.cur - prev
		rw.del = s.column(d, p)
		step(p, s.class(p), rw)
	}
	s.winPool.put(w)
	return nil
}

// fillCarry copies the W lanes of every carried event from the row src
// into its carry slot behind the row dst, for the marked records of
// dst's period. The rolling window passes its one row as both.
func (s *Schedule) fillCarry(src, dst []float64, W int) {
	carry := dst[s.n*W:]
	for k, e := range s.carried {
		if W == 4 {
			*(*[4]float64)(carry[k*4:]) = *(*[4]float64)(src[int(e)*4:])
			continue
		}
		copy(carry[k*W:(k+1)*W], src[int(e)*W:])
	}
}

// time reads lane l of event e from period p's row: NaN where the
// unfolding has no origin-preceded instantiation e_p. A non-repetitive
// event has no instantiation past period 0; its slot in a later row is
// never written and holds a stale value, so it reads NaN too.
func (s *Schedule) time(rw *rows, e sg.EventID, p, l int) float64 {
	if p > 0 && s.c1.pos[e] < 0 {
		return math.NaN()
	}
	if t := rw.times[rw.cur+int(e)*rw.width+l]; t != math.Inf(-1) {
		return t
	}
	return math.NaN()
}

// RunFromWindow executes the event-initiated simulation t_origin of
// §IV.B over periods 0..periods with the two-row window, writing
// out[j-1] = t_origin(origin_j) for j = 1..periods — NaN when the
// unfolding has no origin-preceded instantiation origin_j. The values
// (and NaN pattern) are bit-identical to a RunFrom trace with
// Periods: periods+1 read back through Time/Reached at the origin.
func (s *Schedule) RunFromWindow(origin sg.EventID, periods int, out []float64) error {
	return s.window(origin, periods, out, nil)
}

// window is RunFromWindow at the delay columns d (nil: the schedule's
// own).
func (s *Schedule) window(origin sg.EventID, periods int, out []float64, d *BatchDelays) error {
	if len(out) < periods {
		return fmt.Errorf("timesim: window output has %d entries, need %d", len(out), periods)
	}
	return s.lanes([]sg.EventID{origin}, d, periods, func(p int, rw rows) {
		if p > 0 {
			out[p-1] = s.time(&rw, origin, p, 0)
		}
	})
}

// RunPlainWindow executes the plain simulation t of §IV.A over periods
// 0..periods on the two-row window at the width-1 delay columns d (nil:
// the schedule's own), calling visit(p, row) once period p is walked:
// row[e] is t(e_p) for every event with an instantiation in period p —
// every event in period 0, the repetitive ones after it; other slots
// hold stale values. The times are bit-identical to a Run trace's.
func (s *Schedule) RunPlainWindow(d *BatchDelays, periods int, visit func(p int, row []float64)) error {
	if d != nil && d.s != 1 {
		return fmt.Errorf("timesim: a plain window runs at one delay column, got %d", d.s)
	}
	return s.roll(nil, periods, 1, d, func(p int, c *class, rw rows) {
		c.walk(&rw)
		visit(p, rw.times[rw.cur:rw.cur+s.n])
	})
}
