package timesim

import (
	"fmt"
	"math"
	"math/bits"

	"tsg/internal/sg"
)

// Retained origin lanes and their incremental patch. A session that
// edits its delays keeps its pass 1 as lane traces: walkOrigins with
// every period's row kept, each row followed by its own carry row,
// filled from the previous row, so a kept row reads exactly like the
// rolling one and every lane is bit-identical to RunFromOrigins.
//
// Patch re-propagates only the forward cone of the dirty arc heads.
// The worklist is one bitset per period over topological positions,
// swept in ascending bit order — the (period, topo) order of the walk
// — and every set position is re-walked in all its lanes against rows
// whose final entries are untouched (outside the cone) or already
// re-walked (inside it). An instantiation whose lanes all keep their
// bits stops the expansion: the trace holds nothing but times. When a
// carried event changes, the next row's carry slot is refreshed before
// that row is swept. Unmarked arcs only queue positions after the
// cursor and marked arcs later periods, so no queued position is
// missed. One worklist serves all lanes: a chunk of four origins costs
// one patch, not four.
//
// Cost: O(periods · n/64) bitset words plus the record scans of the
// cone, all lanes at once. Per position the worklist costs about two
// to three times the straight walk, so past 1/patchBailFraction of the
// positions the patch re-walks the remaining rows instead: a flooding
// edit costs the budget's worklist work plus a walk of the rest. On
// random-2000 (2 vCPUs) a flooding edit, both chunks together, took
// 0.7–0.8 ms against 0.6–1.2 ms for a fresh session's lane pass 1.
// Cones are unions over a chunk's lanes, so an edit whose per-origin
// cones are disjoint and wide costs up to four lanes per position.

// LaneTrace is a retained origin-lane run: the event-initiated
// simulations from its origins, lane l from origins[l], at the
// schedule's own delay columns, over periods 0..periods with every row
// kept. Read reads it back; Patch updates it in place after delay
// refreshes. A trace must not be read while it is patched; different
// traces may be patched concurrently.
type LaneTrace struct {
	s       *Schedule
	origins []sg.EventID
	periods int
	row     int       // floats per period: (n + carried) · lanes
	times   []float64 // (periods+1) rows
}

// RunLaneTrace executes RunFromOrigins' simulations at the schedule's
// own delay columns and keeps every period's row: (periods+1) ·
// LaneWindowBytes(len(origins)) bytes.
func (s *Schedule) RunLaneTrace(origins []sg.EventID, periods int) (*LaneTrace, error) {
	if len(origins) == 0 {
		return nil, fmt.Errorf("timesim: no origins")
	}
	if err := s.checkRun(origins, periods); err != nil {
		return nil, err
	}
	row := (s.n + len(s.carried)) * len(origins)
	lt := &LaneTrace{s: s, origins: append([]sg.EventID(nil), origins...), periods: periods, row: row,
		times: make([]float64, (periods+1)*row)}
	lt.walkRows(0)
	return lt, nil
}

// rows returns the storage view of period p's row.
func (lt *LaneTrace) rows(p int) rows {
	return rows{times: lt.times[p*lt.row : (p+1)*lt.row], del: lt.s.class(p).del, width: len(lt.origins), pin: sg.None}
}

// walkRows walks every row from period from on, refilling each row's
// carry slots from the row before it.
func (lt *LaneTrace) walkRows(from int) {
	s := lt.s
	for p := from; p <= lt.periods; p++ {
		rw := lt.rows(p)
		if p > 0 {
			s.fillCarry(lt.times[(p-1)*lt.row:], rw.times, rw.width)
		}
		c := s.class(p)
		c.walkOrigins(&rw, pinned(lt.origins, p), s.carry, 0, len(c.order))
	}
}

// Read fills every read from the kept rows, bit-identical, NaN pattern
// included, to RunFromOrigins over the same origins at the trace's
// current delays.
func (lt *LaneTrace) Read(reads []Read) error {
	if err := lt.s.checkReads(reads, len(lt.origins), lt.periods); err != nil {
		return err
	}
	for p := 0; p <= lt.periods; p++ {
		rw := lt.rows(p)
		for _, r := range reads {
			r.Out[p] = lt.s.time(&rw, r.Event, p, r.Lane)
		}
	}
	return nil
}

// Patch updates the lane trace in place (see the top of this file) so
// that it is bit-identical to a fresh RunLaneTrace at the schedule's
// CURRENT delay columns, given that it was walked at columns that
// differ only on the dirty arcs. Each Patch draws private scratch from
// a pool.
func (s *Schedule) Patch(lt *LaneTrace, dirty []int) (PatchStats, error) {
	if lt.s != s {
		return PatchStats{}, fmt.Errorf("timesim: Patch on a lane trace from a different schedule")
	}
	// Validate before seeding any bits, so an error return cannot pool
	// the scratch with pending bits set (its contract is empty bitsets
	// between patches).
	m := len(s.arcTo)
	for _, ai := range dirty {
		if ai < 0 || ai >= m {
			return PatchStats{}, fmt.Errorf("timesim: dirty arc %d out of range [0,%d)", ai, m)
		}
	}
	P, W := lt.periods+1, len(lt.origins)
	ps := s.acquirePatch(P, W)
	defer s.patchPool.Put(ps)
	// Seed the worklist: every instantiation whose in-record delay
	// column changed, in every period the arc has a class record in.
	for _, ai := range dirty {
		for p := 0; p < P; p++ {
			ps.queue(s, p, ai)
		}
	}

	// The flood budget: beyond this many re-walks, walking the
	// remaining rows outright is cheaper than worklist propagation.
	budget := (len(s.c0.order) + (P-1)*len(s.c1.order)) / patchBailFraction
	recomputed := 0
	for p := 0; p < P; p++ {
		c := s.class(p)
		rw := lt.rows(p)
		pins := pinned(lt.origins, p)
		pend := ps.pend[p*ps.words : (p+1)*ps.words]
		for w := 0; w < ps.words; w++ {
			for pend[w] != 0 {
				if budget--; budget < 0 {
					// Flood: re-walk every row from p on. Earlier rows
					// are final and the walk rewrites every cell.
					ps.clear()
					lt.walkRows(p)
					return PatchStats{Recomputed: recomputed, Flooded: true}, nil
				}
				recomputed++
				b := pend[w] & (-pend[w])
				pend[w] &^= b
				pos := w<<6 + bits.TrailingZeros64(b)
				f := c.order[pos]
				cell := rw.times[int(f)*W : (int(f)+1)*W]
				copy(ps.old, cell)
				c.walkOrigins(&rw, pins, s.carry, pos, pos+1)
				if sameBits(ps.old, cell) {
					continue
				}
				if k := s.carry[f]; k >= 0 && p+1 < P {
					copy(lt.times[(p+1)*lt.row+(s.n+int(k))*W:], cell)
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

// sameBits reports whether a and b hold the same float bits lane by
// lane.
func sameBits(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// PatchStats reports what one Patch call did.
type PatchStats struct {
	// Recomputed counts the positions the worklist sweep actually
	// re-walked, all lanes of one instantiation counting once (the
	// realized dirty-cone size), before finishing or bailing out.
	Recomputed int
	// Flooded is true when the cone exceeded the flood budget and the
	// patch fell back to re-walking the remaining rows.
	Flooded bool
}

// patchBailFraction tunes the flood bail-out: a patch abandons its
// worklist once it has re-walked more than 1/patchBailFraction of the
// trace's positions, having wasted about a third of one walk, while
// cones an order of magnitude smaller than the unfolding (the
// localized-edit case the kernel exists for) never hit the budget.
const patchBailFraction = 8

// patchScratch is the private working memory of one Patch: one pending
// bitset per period over topological positions, and the lanes of the
// position being re-walked. Setting a bit queues an instantiation
// (idempotently); the sweep clears each bit before re-walking, so a
// finished patch leaves the bitsets empty for the next acquisition.
type patchScratch struct {
	pend  []uint64 // periods × words, all zero between patches
	words int      // words per period
	old   []float64
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

// acquirePatch prepares pooled patch scratch for periods × n positions
// of W lanes.
func (s *Schedule) acquirePatch(periods, W int) *patchScratch {
	ps, _ := s.patchPool.Get().(*patchScratch)
	words := (s.n + 63) >> 6
	need := periods * words
	if ps == nil || ps.words != words || len(ps.pend) < need {
		ps = &patchScratch{pend: make([]uint64, need), words: words}
	}
	if cap(ps.old) < W {
		ps.old = make([]float64, W)
	}
	ps.old = ps.old[:W]
	return ps
}
