package timesim

import (
	"fmt"
	"math"

	"tsg/internal/sg"
)

// Origin lanes: the pass-1 kernel. The b event-initiated simulations
// of one cycle-time analysis (Prop. 7) run over one compiled structure
// at one delay column and differ only in which instantiation is pinned
// to 0 in period 0. So W origins share one record walk on the rolling
// window, lane l of every event being the simulation from origins[l]:
// the record indices, marking offsets and delays are loaded once per
// record instead of once per origin. Reachedness rides in the times as
// −∞ and is no longer the same in every lane, so unlike walkLanes no
// record is skipped: an unreached source sums to −∞ (or NaN on a +Inf
// delay) and never wins a max, exactly as in the scalar walk.
//
// The window is one row, not two: every period overwrites it in place
// in topological order, so an unmarked record finds its source's
// current value in the row. A marked record needs the source's value
// of the previous period, which the row may already have overwritten;
// so after each period the sources of marked records
// (Schedule.carried: 64 of the 10^5 events of the benchmark's
// pipegrid, 8 of random-2000's 2000) are copied into a carry row
// behind the main one, where marked records read them. The lane
// window is then (n + carried)·W floats, about half of two rows: it is
// the part of pass 1's memory that grows with the lane count.

// RunFromOrigins executes the event-initiated simulation t_o of §IV.B
// for every origin o = origins[l] in one walk over periods
// 0..periods, writing out[l][j-1] = t_o(o_j) for j = 1..periods — NaN
// when the unfolding has no o-preceded instantiation o_j. d is nil
// (the schedule's own delay columns) or a width-1 private set; every
// lane runs at it. Origins may repeat. Each lane is bit-identical,
// NaN pattern included, to RunFromWindow from its origin at the same
// delays: the walk makes the same adds and comparisons in the same
// record order. A single origin runs RunFromWindow's scalar walk.
func (s *Schedule) RunFromOrigins(origins []sg.EventID, d *BatchDelays, periods int, out [][]float64) error {
	W := len(origins)
	if W == 0 {
		return fmt.Errorf("timesim: no origins")
	}
	if d != nil && d.s != 1 {
		return fmt.Errorf("timesim: origin lanes run at one delay column, got %d", d.s)
	}
	if len(out) < W {
		return fmt.Errorf("timesim: origin output has %d rows, need %d", len(out), W)
	}
	for l, row := range out[:W] {
		if len(row) < periods {
			return fmt.Errorf("timesim: origin output row %d has %d entries, need %d", l, len(row), periods)
		}
	}
	if W == 1 {
		return s.window(origins[0], periods, out[0], d)
	}
	w := s.acquireWindow((s.n + len(s.carried)) * W)
	err := s.roll(origins, periods, w.times, W, 0, d, func(p int, c *class, rw rows) {
		pins := origins
		if p > 0 {
			pins = nil
		}
		c.walkOrigins(&rw, pins, s.carry)
		s.fillCarry(w.times, W)
		if p > 0 {
			for l, o := range origins {
				out[l][p-1] = s.time(&rw, o, p, l)
			}
		}
	})
	s.winPool.put(w)
	return err
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

// fillCarry copies the W lanes of every carried event from the row of
// times into its carry slot, for the next period's marked records.
func (s *Schedule) fillCarry(times []float64, W int) {
	carry := times[s.n*W:]
	for k, e := range s.carried {
		if W == 4 {
			*(*[4]float64)(carry[k*4:]) = *(*[4]float64)(times[int(e)*4:])
			continue
		}
		copy(carry[k*W:(k+1)*W], times[int(e)*W:])
	}
}
