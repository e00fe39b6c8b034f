package timesim

import (
	"fmt"
	"math"

	"tsg/internal/sg"
)

// Origin lanes: the kernel of every λ and what-if row the engine
// computes. The b event-initiated simulations of Prop. 7 run over one
// compiled structure at one delay column and differ only in which
// instantiation is pinned to 0 in period 0. So W origins share one
// record walk, lane l of every event being the simulation from
// origins[l]: each record is loaded once per walk instead of once per
// origin. Reachedness rides in the times as −∞ and differs between
// lanes, so unlike walkLanes no record is skipped: an unreached source
// sums to −∞ (or NaN on a +Inf delay) and never wins a max, exactly as
// in the scalar walk.
//
// The window is one row, overwritten in place in topological order,
// so an unmarked record finds its source's current value in the row. A
// marked record needs the previous period's value, which the row may
// have overwritten; so before each period roll copies the sources of
// marked records (Schedule.carried: 64 of the benchmark pipegrid's
// 10^5 events) into a carry row behind the row, where marked records
// read them. The window is then (n + carried)·W floats, about half of
// two rows. The Monte-Carlo sample lanes (batch.go) use the same
// layout.

// Read asks an origin-lane run for the times of one event in one
// lane: Out[j] = t_o(Event_j) for j = 0..periods, o being the lane's
// origin — NaN where the unfolding has no o-preceded instantiation
// Event_j. Out must hold at least periods+1 entries.
type Read struct {
	Lane  int
	Event sg.EventID
	Out   []float64
}

// RunFromOrigins executes the event-initiated simulation t_o of §IV.B
// for every origin o = origins[l] in one walk over periods
// 0..periods, filling every read. Lane l's read of its own origin is
// the distance series of Prop. 7 (Out[1:]); reads of the tails of a
// head's in-arcs, in the lane at that head, are the engine's what-if
// rows. d is nil (the schedule's own delay columns) or a width-1
// private set. Origins may repeat. Each read is bit-identical, NaN
// pattern included, to a RunFrom trace from its lane's origin at the
// same delays read through Time/Reached. A single origin runs
// RunFromWindow's scalar walk.
func (s *Schedule) RunFromOrigins(origins []sg.EventID, d *BatchDelays, periods int, reads []Read) error {
	W := len(origins)
	if W == 0 {
		return fmt.Errorf("timesim: no origins")
	}
	if d != nil && d.s != 1 {
		return fmt.Errorf("timesim: origin lanes run at one delay column, got %d", d.s)
	}
	for _, r := range reads {
		if r.Lane < 0 || r.Lane >= W {
			return fmt.Errorf("timesim: read lane %d of %d", r.Lane, W)
		}
		if r.Event < 0 || int(r.Event) >= s.n {
			return fmt.Errorf("timesim: read event %d out of range", r.Event)
		}
		if len(r.Out) <= periods {
			return fmt.Errorf("timesim: read output has %d entries, need %d", len(r.Out), periods+1)
		}
	}
	return s.lanes(origins, d, periods, func(p int, rw rows) {
		for _, r := range reads {
			r.Out[p] = s.time(&rw, r.Event, p, r.Lane)
		}
	})
}

// lanes is the one runner of origin lanes: the simulations from
// origins at the delay columns d (nil: the schedule's own), handing
// each period's rows to read once walked. One origin walks class.walk
// on two rows, more walk walkOrigins on one row and the carry row.
func (s *Schedule) lanes(origins []sg.EventID, d *BatchDelays, periods int, read func(p int, rw rows)) error {
	if len(origins) == 1 {
		return s.roll(origins, periods, 1, d, func(p int, c *class, rw rows) {
			c.walk(0, len(c.order), &rw)
			read(p, rw)
		})
	}
	return s.roll(origins, periods, len(origins), d, func(p int, c *class, rw rows) {
		pins := origins
		if p > 0 {
			pins = nil
		}
		c.walkOrigins(&rw, pins, s.carry)
		read(p, rw)
	})
}

// walkOrigins is walk over the rw.width origin lanes of the one-row
// window at one delay per record: each instantiation starts at −∞ in
// every lane, every record raises lane l to source + delay where that
// is larger — an unmarked record's source read from the row, a marked
// one's from its carry slot (carry[src] slots behind the row) — and in
// period 0 (pins non-nil) lane l of pins[l] is then set to 0. A lane
// that no live record reaches stays −∞, walk's unreached. The width
// the engine chunks pass 1 into has an unrolled case, which keeps the
// lanes in registers.
func (c *class) walkOrigins(rw *rows, pins []sg.EventID, carry []int32) {
	times, del, W := rw.times, rw.del, rw.width
	off, src, mark := c.off, c.src, c.mark
	n := len(carry)
	ninf := math.Inf(-1)
	for idx, f := range c.order {
		fi := int(f) * W
		lo, hi := off[idx], off[idx+1]
		switch W {
		case 4:
			a0, a1, a2, a3 := ninf, ninf, ninf, ninf
			for r := lo; r < hi; r++ {
				sl := int(src[r])
				if mark[r] != 0 {
					sl = n + int(carry[sl])
				}
				b := (*[4]float64)(times[sl*4:])
				d := del[r]
				if v := b[0] + d; v > a0 {
					a0 = v
				}
				if v := b[1] + d; v > a1 {
					a1 = v
				}
				if v := b[2] + d; v > a2 {
					a2 = v
				}
				if v := b[3] + d; v > a3 {
					a3 = v
				}
			}
			*(*[4]float64)(times[fi:]) = [4]float64{a0, a1, a2, a3}
		default:
			dst := times[fi : fi+W : fi+W]
			for l := range dst {
				dst[l] = ninf
			}
			for r := lo; r < hi; r++ {
				sl := int(src[r])
				if mark[r] != 0 {
					sl = n + int(carry[sl])
				}
				si := sl * W
				b, d := times[si:si+W:si+W], del[r]
				for l := range dst {
					if v := b[l] + d; v > dst[l] {
						dst[l] = v
					}
				}
			}
		}
		for l, o := range pins {
			if o == f {
				times[fi+l] = 0
			}
		}
	}
}
