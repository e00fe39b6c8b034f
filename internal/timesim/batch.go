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
// delay column. That amortises the record traversal, the reachedness
// bookkeeping and the loop overhead over the whole batch, which is
// where the Monte-Carlo subsystem's throughput comes from (see
// cycletime.AnalyzeMC).
//
// The batch kernel keeps a rolling two-row window of occurrence times:
// the §IV.A existence rules reference only the current period (unmarked
// in-arcs) and the previous one (marked in-arcs), so full (periods×n)
// trace slabs are never materialised — memory is O(n·S), independent of
// the period count. Only the origin's occurrence times are exposed:
// they are exactly what the cycle-time analysis's distance series needs
// (Prop. 7).
//
// Per-sample results are bit-identical to RunFrom with the same delays:
// the record order, and hence every float add and max, is the same.

// BatchDelays holds the per-sample delay columns of a batch, laid out
// record-major ([record*S + sample]) so the kernel's inner loop over
// samples is contiguous. Build one per worker with NewBatchDelays and
// refill it with Set; it is tied to the schedule that created it.
type BatchDelays struct {
	s          int
	d0, d1, dS []float64
	// Working memory, reused across RunFromBatch calls (a BatchDelays
	// belongs to one worker, like the schedule clone it feeds).
	cur, prev   []float64
	rCur, rPrev []bool
	acc         []float64
}

// NewBatchDelays allocates delay columns for batches of s samples.
func (sch *Schedule) NewBatchDelays(s int) *BatchDelays {
	return &BatchDelays{
		s:  s,
		d0: make([]float64, len(sch.c0.del)*s),
		d1: make([]float64, len(sch.c1.del)*s),
		dS: make([]float64, len(sch.cS.del)*s),
	}
}

// Samples returns the batch width.
func (b *BatchDelays) Samples() int { return b.s }

// Set fills sample column `sample` from a per-arc delay vector.
func (b *BatchDelays) Set(sch *Schedule, sample int, delays []float64) {
	for r, a := range sch.c0.arc {
		b.d0[r*b.s+sample] = delays[a]
	}
	for r, a := range sch.c1.arc {
		b.d1[r*b.s+sample] = delays[a]
	}
	for r, a := range sch.cS.arc {
		b.dS[r*b.s+sample] = delays[a]
	}
}

// RunFromBatch executes the event-initiated simulation t_origin of
// §IV.B for every delay sample of the batch in one structural pass,
// evaluating unfolding periods 0..periods. For sample s and period
// j in 1..periods, out[s][j-1] receives the origin's occurrence time
// t_origin(origin_j), or NaN when the unfolding has no origin-preceded
// instantiation origin_j (matching Trace.Time/Reached semantics — the
// inputs of the distance series δ). out must hold at least bd.Samples()
// rows of at least `periods` entries.
func (sch *Schedule) RunFromBatch(origin sg.EventID, bd *BatchDelays, periods int, out [][]float64) error {
	if origin < 0 || int(origin) >= sch.n {
		return fmt.Errorf("timesim: origin event %d out of range", origin)
	}
	if periods < 1 {
		return fmt.Errorf("timesim: periods must be >= 1, got %d", periods)
	}
	S := bd.s
	if len(out) < S {
		return fmt.Errorf("timesim: batch output has %d rows, need %d", len(out), S)
	}
	n := sch.n
	if len(bd.cur) < n*S {
		bd.cur = make([]float64, n*S)
		bd.prev = make([]float64, n*S)
		bd.rCur = make([]bool, n)
		bd.rPrev = make([]bool, n)
		bd.acc = make([]float64, S)
	}
	cur, prev, rCur, rPrev, acc := bd.cur, bd.prev, bd.rCur, bd.rPrev, bd.acc
	for i := range rCur {
		rCur[i] = false
	}

	// Period 0: every event has an instantiation; all live in-arc
	// sources sit in the same period (earlier in topological order).
	for idx, f := range sch.c0.order {
		any := false
		for r := sch.c0.off[idx]; r < sch.c0.off[idx+1]; r++ {
			src := int(sch.c0.src[r])
			if !rCur[src] {
				continue
			}
			srcRow := cur[src*S : src*S+S]
			del := bd.d0[int(r)*S : int(r)*S+S]
			if !any {
				any = true
				addSet(acc, srcRow, del, S)
				continue
			}
			addMax(acc, srcRow, del, S)
		}
		fi := int(f) * S
		switch {
		case f == origin:
			// t_origin(origin_0) = 0 by definition, regardless of in-arcs.
			for s := 0; s < S; s++ {
				cur[fi+s] = 0
			}
			rCur[f] = true
		case !any:
			// Member of I_u, or not preceded by the origin: pinned to 0,
			// not reached.
			for s := 0; s < S; s++ {
				cur[fi+s] = 0
			}
		default:
			copy(cur[fi:fi+S], acc)
			rCur[f] = true
		}
	}

	for p := 1; p <= periods; p++ {
		cur, prev = prev, cur
		rCur, rPrev = rPrev, rCur
		off, src, mark := sch.c1.off, sch.c1.src, sch.c1.mark
		del := bd.d1
		if p >= 2 {
			off, src, mark = sch.cS.off, sch.cS.src, sch.cS.mark
			del = bd.dS
		}
		for i := range rCur {
			rCur[i] = false
		}
		for idx, f := range sch.c1.order {
			any := false
			for r := off[idx]; r < off[idx+1]; r++ {
				sp := int(src[r])
				row := cur
				reachedRow := rCur
				if mark[r] == 1 {
					row = prev
					reachedRow = rPrev
				}
				if !reachedRow[sp] {
					continue
				}
				srcRow := row[sp*S : sp*S+S]
				d := del[int(r)*S : int(r)*S+S]
				if !any {
					any = true
					addSet(acc, srcRow, d, S)
					continue
				}
				addMax(acc, srcRow, d, S)
			}
			fi := int(f) * S
			if !any {
				for s := 0; s < S; s++ {
					cur[fi+s] = 0
				}
				continue
			}
			copy(cur[fi:fi+S], acc)
			rCur[f] = true
		}
		oi := int(origin) * S
		if rCur[origin] {
			for s := 0; s < S; s++ {
				out[s][p-1] = cur[oi+s]
			}
		} else {
			for s := 0; s < S; s++ {
				out[s][p-1] = math.NaN()
			}
		}
	}
	// Hand the (possibly swapped) buffers back for reuse.
	bd.cur, bd.prev, bd.rCur, bd.rPrev = cur, prev, rCur, rPrev
	return nil
}

// batchWidth is the batch width the inner loops are specialised for —
// the Monte-Carlo layer's block size. Other widths take the generic
// loop; the constant-bound version lets the compiler drop bounds checks
// and unroll.
const batchWidth = 16

// addSet writes acc[s] = src[s] + del[s].
func addSet(acc, src, del []float64, S int) {
	if S == batchWidth && len(acc) >= batchWidth && len(src) >= batchWidth && len(del) >= batchWidth {
		a := (*[batchWidth]float64)(acc)
		b := (*[batchWidth]float64)(src)
		c := (*[batchWidth]float64)(del)
		for s := 0; s < batchWidth; s++ {
			a[s] = b[s] + c[s]
		}
		return
	}
	for s := 0; s < S; s++ {
		acc[s] = src[s] + del[s]
	}
}

// addMax folds acc[s] = max(acc[s], src[s] + del[s]).
func addMax(acc, src, del []float64, S int) {
	if S == batchWidth && len(acc) >= batchWidth && len(src) >= batchWidth && len(del) >= batchWidth {
		a := (*[batchWidth]float64)(acc)
		b := (*[batchWidth]float64)(src)
		c := (*[batchWidth]float64)(del)
		for s := 0; s < batchWidth; s++ {
			if v := b[s] + c[s]; v > a[s] {
				a[s] = v
			}
		}
		return
	}
	for s := 0; s < S; s++ {
		if v := src[s] + del[s]; v > acc[s] {
			acc[s] = v
		}
	}
}
