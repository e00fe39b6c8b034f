package timesim

import (
	"fmt"
	"math"

	"tsg/internal/sg"
)

// Windowed scalar kernel: the λ-only pass-1 simulation. A λ-only
// analysis needs nothing from an event-initiated trace but the
// origin's occurrence time per period (the distance series of
// Prop. 7) — yet RunFrom materialises the full (periods+1)×n slab.
// Like the Monte-Carlo batch kernel (batch.go), the existence rules of
// §IV.A only ever reference the current period (unmarked in-arcs) and
// the previous one (marked in-arcs), so the scalar walk can roll a
// two-row window: O(n) working state regardless of the period count,
// emitting just the origin series.
//
// Results are bit-identical to RunFrom + Trace.Time/Reached: both run
// the same walk, only the row storage differs. The engine's pass 1
// runs this kernel whenever it does not retain traces; pass 2 — which
// backtracks through every period of a trace — re-simulates only the
// handful of λ-winning origins with full traces.

// window is the pooled working set of one windowed simulation: two
// times rows back to back (row A at [0,n), row B at [n,2n)). Like a
// slab, an instantiation the origin does not precede holds -Inf (see
// rows.unreached).
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

// RunFromWindow executes the event-initiated simulation t_origin of
// §IV.B over periods 0..periods with the two-row window, writing
// out[j-1] = t_origin(origin_j) for j = 1..periods — NaN when the
// unfolding has no origin-preceded instantiation origin_j. The values
// (and NaN pattern) are bit-identical to a RunFrom trace with
// Periods: periods+1 read back through Time/Reached at the origin.
func (s *Schedule) RunFromWindow(origin sg.EventID, periods int, out []float64) error {
	if origin < 0 || int(origin) >= s.n {
		return fmt.Errorf("timesim: origin event %d out of range", origin)
	}
	if periods < 1 {
		return fmt.Errorf("timesim: periods must be >= 1, got %d", periods)
	}
	if len(out) < periods {
		return fmt.Errorf("timesim: window output has %d entries, need %d", len(out), periods)
	}
	if s.c1.pos[origin] < 0 {
		// A non-repetitive origin has no instantiation past period 0.
		for j := range out[:periods] {
			out[j] = math.NaN()
		}
		return nil
	}
	w := s.acquireWindow()
	n := s.n
	// Period 0 has no predecessor row; its records are all unmarked.
	rw := rows{times: w.times, pin: origin, unreached: math.Inf(-1)}
	s.c0.walk(0, len(s.c0.order), &rw)
	rw.pin = sg.None
	for p := 1; p <= periods; p++ {
		prev := rw.cur
		rw.cur = n - prev
		rw.back = rw.cur - prev
		c := s.class(p)
		c.walk(0, len(c.order), &rw)
		if t := w.times[rw.cur+int(origin)]; t != math.Inf(-1) {
			out[p-1] = t
		} else {
			out[p-1] = math.NaN()
		}
	}
	s.winPool.put(w)
	return nil
}
