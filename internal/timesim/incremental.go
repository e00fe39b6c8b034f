package timesim

import (
	"fmt"
	"math/bits"
)

// Patch is the incremental re-simulation kernel: it updates a finished
// trace in place so that it becomes bit-identical to a fresh Run (or
// RunFrom, for event-initiated traces) of the schedule at its CURRENT
// delay columns, given that the trace was produced at delay columns
// that differ only on the listed dirty arcs.
//
// The algorithm re-propagates only the forward cone of the dirty arc
// heads. The worklist is one bitset per period over topological
// positions, swept in ascending bit order — exactly the (period, topo)
// evaluation order of the full kernel; every set position is
// recomputed by the walk Run itself uses (class.walk, one position
// at a time) against rows whose already-final entries are either
// untouched (outside the cone) or previously recomputed (inside it, at
// a smaller position). An instantiation whose recomputed time equals
// its old value bitwise stops the expansion: the trace holds nothing
// but times, so nothing downstream can change. Same-period propagation
// only ever targets positions after the sweep cursor (unmarked arcs
// respect the topo order), and marked arcs target later periods, so
// the sweep never misses a queued position.
//
// Cost: O(periods · n/64) to sweep the bitset words plus the record
// scans of the cone members — for a localized edit a small fraction of
// the O(periods·m) full run. An edit whose cone floods the unfolding
// would cost MORE than a full run patched node by node (each changed
// node pays an out-arc scan and worklist bookkeeping on top of the
// in-record scan), so the patch watches its own cone: past
// patchBailFraction of the instantiations it abandons the worklist and
// simply re-evaluates every row in place with the straight kernel —
// bit-identical either way, and the worst case is capped at one plain
// simulation.
//
// The trace must have been produced by this schedule and not yet
// released; callers must serialise Patch with Run/RunFrom/refreshes on
// the same trace, but patches of DIFFERENT traces may run concurrently
// (each Patch draws private scratch from a pool).
//
// The returned PatchStats report the dirty-cone size actually swept
// and whether the flood bail-out fired — the engine surfaces both
// through spans and Stats().
func (s *Schedule) Patch(tr *Trace, dirty []int) (PatchStats, error) {
	if tr.sched != s {
		return PatchStats{}, fmt.Errorf("timesim: Patch on a trace from a different schedule")
	}
	if tr.slab == nil {
		return PatchStats{}, fmt.Errorf("timesim: Patch on a released trace")
	}
	if tr.cols != nil {
		return PatchStats{}, fmt.Errorf("timesim: Patch on a trace simulated at private delay columns")
	}
	n := s.n
	P := tr.periods
	ps := s.acquirePatch(P, n)
	defer s.patchPool.Put(ps)

	// Validate before seeding any bits, so an error return cannot pool
	// the scratch with pending bits set (its contract is empty bitsets
	// between patches).
	m := len(s.arcTo)
	for _, ai := range dirty {
		if ai < 0 || ai >= m {
			return PatchStats{}, fmt.Errorf("timesim: dirty arc %d out of range [0,%d)", ai, m)
		}
	}
	// Seed the worklist: every instantiation whose in-record delay
	// column changed, in every period the arc has a class record in.
	for _, ai := range dirty {
		for p := 0; p < P; p++ {
			ps.queue(s, p, ai)
		}
	}

	// The flood budget: beyond this many recomputations, re-evaluating
	// the remaining rows outright is cheaper than worklist propagation.
	budget := (len(s.c0.order) + (P-1)*len(s.c1.order)) / patchBailFraction
	recomputed := 0
	for p := 0; p < P; p++ {
		c := s.class(p)
		rw := tr.rows(p)
		pend := ps.pend[p*ps.words : (p+1)*ps.words]
		for w := 0; w < ps.words; w++ {
			for pend[w] != 0 {
				if budget--; budget < 0 {
					// Flood: re-evaluate every row from p on in place.
					// Earlier rows are final and the walk rewrites
					// every cell.
					ps.clear()
					s.runPeriods(tr, p)
					return PatchStats{Recomputed: recomputed, Flooded: true}, nil
				}
				recomputed++
				b := pend[w] & (-pend[w])
				pend[w] &^= b
				pos := w<<6 + bits.TrailingZeros64(b)
				f := c.order[pos]
				fi := rw.cur + int(f)
				old := tr.times[fi]
				c.walk(pos, pos+1, &rw)
				if tr.times[fi] == old {
					continue
				}
				// Forward the change to every successor instantiation
				// within the simulated horizon.
				for _, ai := range s.g.OutArcs(f) {
					if t := p + int(s.arcMark[ai]); t < P {
						ps.queue(s, t, ai)
					}
				}
			}
		}
	}
	return PatchStats{Recomputed: recomputed}, nil
}

// PatchStats reports what one Patch call did.
type PatchStats struct {
	// Recomputed counts the instantiations the worklist sweep actually
	// re-evaluated (the realized dirty-cone size) before finishing or
	// bailing out.
	Recomputed int
	// Flooded is true when the cone exceeded the flood budget and the
	// patch fell back to straight in-place re-evaluation of the
	// remaining rows.
	Flooded bool
}

// patchBailFraction tunes the flood bail-out: a patch abandons its
// worklist once it has recomputed more than 1/patchBailFraction of the
// trace's instantiations. Worklist propagation costs roughly two to
// three times the straight kernel's per-node work (out-arc scan +
// bitset bookkeeping on top of the in-record scan), so a flood that
// bails after 1/8 of the instantiations has wasted about a third of
// one plain evaluation before switching to it — while cones an order
// of magnitude smaller than the unfolding (the localized-edit case the
// kernel exists for) never hit the budget.
const patchBailFraction = 8

// patchScratch is the private working memory of one Patch: one pending
// bitset per period over topological positions. Setting a bit queues
// an instantiation (idempotently); the sweep clears each bit before
// recomputing, so a finished patch leaves the bitsets empty for the
// next acquisition.
type patchScratch struct {
	pend  []uint64 // periods × words, all zero between patches
	words int      // words per period
}

// queue queues the head of arc ai in period p, if the arc constrains
// that period at all: the record-class inverse columns double as the
// existence test of §IV.A (an arc has a class record exactly when it
// constrains the target period).
func (ps *patchScratch) queue(s *Schedule, p, ai int) {
	c := s.class(p)
	if c.rec[ai] < 0 {
		return
	}
	pos := int(c.pos[s.arcTo[ai]])
	ps.pend[p*ps.words+pos>>6] |= 1 << (uint(pos) & 63)
}

// clear resets every pending bit (the bail-out path; a completed sweep
// leaves the bitsets empty on its own).
func (ps *patchScratch) clear() {
	clear(ps.pend)
}

// acquirePatch prepares pooled patch scratch for periods × n keys.
func (s *Schedule) acquirePatch(periods, n int) *patchScratch {
	ps, _ := s.patchPool.Get().(*patchScratch)
	words := (n + 63) >> 6
	need := periods * words
	if ps == nil || ps.words != words || len(ps.pend) < need {
		ps = &patchScratch{pend: make([]uint64, need), words: words}
	}
	return ps
}

// MemEstimate returns the approximate heap bytes of a compiled trace's
// retained slab: its times rows, 8 B per instantiation. Session layers
// retaining committed traces for incremental re-simulation account
// them with this (see cycletime.Engine.SizeHint).
func (tr *Trace) MemEstimate() int64 {
	return int64(len(tr.times)) * 8
}
