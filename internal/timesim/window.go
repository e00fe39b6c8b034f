package timesim

import (
	"fmt"
	"math"

	"tsg/internal/sg"
)

// The rolling two-row window: the one driver of every simulation that
// reads times period by period and keeps no trace. The existence rules
// of §IV.A only ever reference the current period (unmarked in-arcs)
// and the previous one (marked in-arcs), so two rows suffice: O(n)
// working state per lane regardless of the period count. Three kernels
// run on it:
//
//   - RunFromWindow, the λ-only pass 1: one lane, the schedule's own
//     delay columns, the origin's occurrence time per period (the
//     distance series of Prop. 7);
//   - RunFromBatch (batch.go): one lane per delay sample of a
//     BatchDelays — the Monte-Carlo kernel at S lanes, and
//     RunFromWindow at private delays at one lane;
//   - RunFromWindowEvents, the what-if rows: one lane, the times of a
//     few chosen events in every period 0..periods.
//
// They share roll — validation, row alternation, the origin pin, the
// row layout and −∞ reachedness — and differ only in the record walk
// (class.walk, or class.walkLanes over S lanes) and in what they read
// back. Results are bit-identical to RunFrom + Trace.Time/Reached:
// every walk performs the same float adds and comparisons in the same
// record order; only the row storage differs. The engine's pass 1 runs
// RunFromWindow whenever it does not retain traces; pass 2, which
// backtracks through every period of a trace, re-simulates only the
// handful of λ-winning origins with full traces.

// window is the pooled working set of one single-lane windowed
// simulation: two times rows back to back (row A at [0,n), row B at
// [n,2n)). Like a slab, an instantiation the origin does not precede
// holds -Inf (see rows.unreached).
type window struct {
	times []float64
}

// acquireWindow draws a two-row window from the schedule's pool.
func (s *Schedule) acquireWindow() *window {
	w := s.winPool.get()
	if w == nil || len(w.times) != 2*s.n {
		w = &window{times: make([]float64, 2*s.n)}
	}
	return w
}

// WindowBytes returns the approximate heap bytes of one pooled
// two-row window: the per-simulation working set of the windowed
// kernel (two float64 rows).
func (s *Schedule) WindowBytes() int64 { return int64(s.n) * 2 * 8 }

// SlabBytes returns the approximate heap bytes of one pooled full
// trace slab for the given period count: 8 B of time per
// instantiation, the whole of a trace. This is the quantity the
// windowed kernel avoids.
func (s *Schedule) SlabBytes(periods int) int64 {
	return int64(periods) * int64(s.n) * 8
}

// roll is the period driver of the rolling window. It validates the
// run, lays rows of width lanes per event over times (two rows of
// n·width floats), and evaluates the event-initiated simulation from
// origin over periods 0..periods at the delay columns d (nil: the
// schedule's own): period 0 with the origin pinned to 0, then each
// later period into the row its predecessor does not occupy. For each
// period, step(p, c, rw) walks class c into rw and reads what it
// needs; rw.cur is the start of period p's row and rw.del the period's
// delay column. An instantiation with no live in-record is -Inf in
// every lane.
func (s *Schedule) roll(origin sg.EventID, periods int, times []float64, width int, d *BatchDelays, step func(p int, c *class, rw rows)) error {
	if origin < 0 || int(origin) >= s.n {
		return fmt.Errorf("timesim: origin event %d out of range", origin)
	}
	if periods < 1 {
		return fmt.Errorf("timesim: periods must be >= 1, got %d", periods)
	}
	rw := rows{times: times, del: s.column(d, 0), width: width, pin: origin, unreached: math.Inf(-1)}
	step(0, &s.c0, rw)
	rw.pin = sg.None
	for p := 1; p <= periods; p++ {
		prev := rw.cur
		rw.cur = s.n*width - prev
		rw.back = rw.cur - prev
		rw.del = s.column(d, p)
		step(p, s.class(p), rw)
	}
	return nil
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
// own), on two pooled rows.
func (s *Schedule) window(origin sg.EventID, periods int, out []float64, d *BatchDelays) error {
	if len(out) < periods {
		return fmt.Errorf("timesim: window output has %d entries, need %d", len(out), periods)
	}
	w := s.acquireWindow()
	err := s.roll(origin, periods, w.times, 1, d, func(p int, c *class, rw rows) {
		c.walk(0, len(c.order), &rw)
		if p > 0 {
			out[p-1] = s.time(&rw, origin, p, 0)
		}
	})
	s.winPool.put(w)
	return err
}

// RunFromWindowEvents executes the event-initiated simulation t_origin
// over periods 0..periods with the two-row window and records, for
// every events[k], out[k][j] = t_origin(events[k]_j) for j =
// 0..periods — NaN where the unfolding has no origin-preceded
// instantiation. Each out[k] must hold at least periods+1 entries. The
// values are bit-identical to a RunFrom trace with Periods: periods+1
// read back through Time/Reached.
func (s *Schedule) RunFromWindowEvents(origin sg.EventID, periods int, events []sg.EventID, out [][]float64) error {
	if len(out) < len(events) {
		return fmt.Errorf("timesim: window output has %d rows, need %d", len(out), len(events))
	}
	for k, e := range events {
		if e < 0 || int(e) >= s.n {
			return fmt.Errorf("timesim: read event %d out of range", e)
		}
		if len(out[k]) <= periods {
			return fmt.Errorf("timesim: window output row %d has %d entries, need %d", k, len(out[k]), periods+1)
		}
	}
	w := s.acquireWindow()
	err := s.roll(origin, periods, w.times, 1, nil, func(p int, c *class, rw rows) {
		c.walk(0, len(c.order), &rw)
		for k, e := range events {
			out[k][p] = s.time(&rw, e, p, 0)
		}
	})
	s.winPool.put(w)
	return err
}
