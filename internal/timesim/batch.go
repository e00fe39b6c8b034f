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
// The batch kernel is the rolling window of window.go with S lanes per
// event: the same driver (roll), the same −∞ reachedness, only the
// record walk runs over lanes (walkLanes). Reachedness is the same in
// every lane, because no delay is −∞ or NaN, so a record whose source
// is −∞ in lane 0 is skipped whole. Memory is O(n·S), independent of
// the period count. Only the origin's occurrence times are exposed:
// they are exactly what the cycle-time analysis's distance series needs
// (Prop. 7).
//
// Per-sample results are bit-identical to RunFromWindow with the same
// delays: the record order, and hence every float add and max, is the
// same.

// BatchDelays is a private set of delay columns, S lanes per record of
// each record class, laid out record-major ([record*S + lane]) so the
// kernel's inner loop over lanes is contiguous. A run reads it instead
// of the schedule's own columns (RunFromBatch, RunWith), so any number
// of delay assignments share one compiled schedule. It is tied to the
// schedule that created it (NewBatchDelays).
type BatchDelays struct {
	s   int
	del [3][]float64 // per record class: period 0, period 1, periods >= 2
	// times is the two-row window of S-lane runs, reused across calls
	// (such a set belongs to one worker); width-1 runs use the pool's.
	times []float64
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
// scalar walk on a pooled window, so concurrent runs may share it.
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
	if len(bd.times) != 2*sch.n*S {
		bd.times = make([]float64, 2*sch.n*S)
	}
	return sch.roll(origin, periods, bd.times, S, bd, func(p int, c *class, rw rows) {
		c.walkLanes(&rw)
		if p > 0 {
			for s := 0; s < S; s++ {
				out[s][p-1] = sch.time(&rw, origin, p, s)
			}
		}
	})
}

// walkLanes is walk over rw.width lanes: lane l of every row and of
// the delay column rw.del is a separate delay sample. A record whose
// source is −∞ in lane 0 is unreached in every lane and skipped whole.
// The first live record sets the instantiation's lanes to source +
// delay, each later one keeps the larger — the values and comparisons
// walk makes, so every lane is bit-identical to a scalar walk over
// that lane's delays. The batchWidth case runs on fixed-size arrays,
// which lets the compiler drop the bounds checks of the lane loops.
func (c *class) walkLanes(rw *rows) {
	times, del, pin, S := rw.times, rw.del, rw.pin, rw.width
	cur, back := rw.cur, rw.back
	off, src, mark := c.off, c.src, c.mark
	for idx, f := range c.order {
		fi := cur + int(f)*S
		dst := times[fi : fi+S : fi+S]
		if f == pin {
			clear(dst)
			continue
		}
		live := false
		for r := off[idx]; r < off[idx+1]; r++ {
			si := cur - int(mark[r])*back + int(src[r])*S
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
