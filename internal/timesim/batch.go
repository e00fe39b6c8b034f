package timesim

import (
	"fmt"
	"math"

	"tsg/internal/sg"
)

// Batch simulation: the Monte-Carlo kernel. An event-initiated timing
// simulation decomposes into a structural part — which instantiations
// exist, which in-arcs constrain them, whether the origin precedes them
// (reachedness) — and an arithmetic part, the max-plus evaluation of
// occurrence times. The structural part depends only on the graph and
// the origin, never on the delays; so S delay samples can share one
// structural pass, paying per sample only the inner add/max over a
// delay column. That amortises the record traversal and the loop
// overhead over the whole batch, which is where the Monte-Carlo
// subsystem's throughput comes from (see cycletime.AnalyzeMC).
//
// The batch kernel is the rolling window of window.go with S sample
// lanes per event, on the one row and carry row of the origin lanes:
// only the record walk differs (walkLanes). Reachedness is the same in
// every lane, because no delay is −∞ or NaN, so a record whose source
// is −∞ in lane 0 is skipped whole. Memory is (n + carried)·S floats
// from the schedule's window pool, independent of the period count.
// Only the origin's occurrence times are exposed: they are exactly
// what the distance series needs (Prop. 7). Per-sample results are
// bit-identical to RunFromWindow with the same delays: the record
// order, and hence every float add and max, is the same.
//
// At width 1 a BatchDelays is also the private delay column of every
// run at delays other than the schedule's own: the scalar window
// (RunFromBatch), slab traces (RunWith), the origin lanes
// (RunFromOrigins) and the plain window (RunPlainWindow), which the
// engine's what-if decreases, bounds, Monte-Carlo support bound and
// per-sample slack certificates run.

// BatchDelays is a private set of delay columns, S lanes per record of
// each record class, laid out record-major ([record*S + lane]) so the
// kernel's inner loop over lanes is contiguous. A run reads it instead
// of the schedule's own columns, so any number of delay assignments
// share one compiled schedule. It holds delays only — runs draw their
// windows from the schedule's pool — so concurrent runs may share a
// set none of them writes. It is tied to the schedule that created it
// (NewBatchDelays).
type BatchDelays struct {
	s   int
	del [3][]float64 // per record class: period 0, period 1, periods >= 2
}

// NewBatchDelays allocates delay columns for batches of s samples,
// every lane at the schedule's own delays. It reads the schedule's
// columns, so it must not run concurrently with a refresh.
func (sch *Schedule) NewBatchDelays(s int) *BatchDelays {
	b := &BatchDelays{s: s}
	for k, c := range sch.classes() {
		b.del[k] = make([]float64, len(c.del)*s)
		for r, d := range c.del {
			for l := range s {
				b.del[k][r*s+l] = d
			}
		}
	}
	return b
}

// Samples returns the batch width.
func (b *BatchDelays) Samples() int { return b.s }

// Set fills sample column `sample` from a per-arc delay vector.
func (b *BatchDelays) Set(sch *Schedule, sample int, delays []float64) {
	for k, c := range sch.classes() {
		col := b.del[k]
		for r, a := range c.arc {
			col[r*b.s+sample] = delays[a]
		}
	}
}

// SetArc sets one arc's delay in sample column `sample`, in O(1).
func (b *BatchDelays) SetArc(sch *Schedule, sample, arc int, delay float64) {
	for k, c := range sch.classes() {
		if r := c.rec[arc]; r >= 0 {
			b.del[k][int(r)*b.s+sample] = delay
		}
	}
}

// RunFromBatch executes the event-initiated simulation t_origin of
// §IV.B for every delay sample of the batch in one structural pass,
// evaluating unfolding periods 0..periods. For sample s and period
// j in 1..periods, out[s][j-1] receives the origin's occurrence time
// t_origin(origin_j), or NaN when the unfolding has no origin-preceded
// instantiation origin_j (matching Trace.Time/Reached semantics — the
// inputs of the distance series δ). out must hold at least bd.Samples()
// rows of at least `periods` entries. A width-1 set runs RunFromWindow's
// scalar walk; a wider one walks its lanes on one row and the carry
// row. Either window comes from the schedule's pool.
func (sch *Schedule) RunFromBatch(origin sg.EventID, bd *BatchDelays, periods int, out [][]float64) error {
	S := bd.s
	if len(out) < S {
		return fmt.Errorf("timesim: batch output has %d rows, need %d", len(out), S)
	}
	for s, row := range out[:S] {
		if len(row) < periods {
			return fmt.Errorf("timesim: batch output row %d has %d entries, need %d", s, len(row), periods)
		}
	}
	if S == 1 {
		return sch.window(origin, periods, out[0], bd)
	}
	return sch.roll([]sg.EventID{origin}, periods, S, bd, func(p int, c *class, rw rows) {
		c.walkLanes(&rw, sch.carry)
		if p > 0 {
			for s := 0; s < S; s++ {
				out[s][p-1] = sch.time(&rw, origin, p, s)
			}
		}
	})
}

// walkLanes is walk over the rw.width lanes of the one-row window:
// lane l of the row and of the delay column rw.del is a separate delay
// sample. An unmarked record reads its source from the row, a marked
// one from its carry slot (carry[src] slots behind the row), as
// walkOrigins does. A record whose source is −∞ in lane 0 is
// unreached in every lane and skipped whole.
// The first live record sets the instantiation's lanes to source +
// delay, each later one keeps the larger — the values and comparisons
// walk makes, so every lane is bit-identical to a scalar walk over
// that lane's delays. The batchWidth case runs on fixed-size arrays,
// which lets the compiler drop the bounds checks of the lane loops.
func (c *class) walkLanes(rw *rows, carry []int32) {
	times, del, pin, S := rw.times, rw.del, rw.pin, rw.width
	off, src, mark := c.off, c.src, c.mark
	n := len(carry)
	for idx, f := range c.order {
		fi := int(f) * S
		dst := times[fi : fi+S : fi+S]
		if f == pin {
			clear(dst)
			continue
		}
		live := false
		for r := off[idx]; r < off[idx+1]; r++ {
			sl := int(src[r])
			if mark[r] != 0 {
				sl = n + int(carry[sl])
			}
			si := sl * S
			if math.IsInf(times[si], -1) {
				continue
			}
			dr := int(r) * S
			if S == batchWidth {
				a := (*[batchWidth]float64)(dst)
				b := (*[batchWidth]float64)(times[si:])
				d := (*[batchWidth]float64)(del[dr:])
				if !live {
					for l := range a {
						a[l] = b[l] + d[l]
					}
				} else {
					for l := range a {
						if v := b[l] + d[l]; v > a[l] {
							a[l] = v
						}
					}
				}
				live = true
				continue
			}
			b, d := times[si:si+S:si+S], del[dr:dr+S:dr+S]
			for l := range dst {
				if v := b[l] + d[l]; !live || v > dst[l] {
					dst[l] = v
				}
			}
			live = true
		}
		if !live {
			for l := range dst {
				dst[l] = math.Inf(-1)
			}
		}
	}
}

// batchWidth is the batch width walkLanes is specialised for — the
// Monte-Carlo layer's block size.
const batchWidth = 16
