// Package hier implements hierarchical macro-compression of Timed
// Signal Graphs: the scalability pass that folds huge token-free
// regions into boundary-delay macro arcs, so the paper's O(b·periods·m)
// analysis kernel only ever sweeps the compressed graph.
//
// # The partition
//
// The boundary of a graph is the set of events the period structure or
// the once-only semantics can observe directly:
//
//   - heads of initially marked arcs (the border machinery of §VI.A
//     initiates simulations there and reads distances back there),
//   - heads of disengageable arcs, and all non-repetitive events
//     (disengageable arcs only leave non-repetitive events, §III.A),
//
// Everything else is interior: repetitive events whose in- and
// out-arcs are all plain — unmarked and engageable. The validation
// rules make the interior an unmarked DAG whose every event is
// reachable from the boundary.
//
// # The compression
//
// The compressed graph keeps exactly the boundary events. Arcs with
// both endpoints on the boundary are copied verbatim. Every maximal
// family of boundary-to-boundary paths through the interior collapses
// to macro arcs carrying the exact MAX-rule delay:
//
//   - an unmarked macro arc u → w with delay max over interior paths
//     u ⇒ w (the MAX firing rule makes the max over parallel paths
//     exact, not approximate);
//   - a marked macro arc u → w with delay max over u ⇒ v plus the
//     initially marked arc v → w it absorbs (tails of marked arcs may
//     be interior; their token moves onto the macro arc).
//
// Under this partition the event-initiated simulation times of every
// boundary event — and hence the distance series of Prop. 7, the cycle
// time, and the border set itself — are identical on the compressed
// and the flat graph: in exact arithmetic always, bit-for-bit whenever
// the arc delays are integers (path sums are then exact in float64).
// λ-winning cycles of the compressed graph expand back to concrete
// flat critical cycles on demand (expand.go).
//
// The interior delays are computed by multi-source DAG sweeps
// batched macroWidth entries wide: distance columns are record-major,
// so one linear pass over the interior CSR serves macroWidth entry
// events from contiguous cache lines — the same blocking trick as the
// lanes of the Monte-Carlo kernel (timesim.RunFromBatch).
package hier

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"tsg/internal/sg"
)

// ErrNoGain reports that compression was aborted because the compressed
// graph would not be smaller than the flat one (tiny interiors can make
// all-pairs macro arcs outnumber the paths they summarise). Analyze
// falls back to flat analysis; callers of Compress can do the same.
var ErrNoGain = errors.New("hier: compression would not shrink the graph")

// macroWidth is the batching width of the interior sweeps: distance
// columns per interior event, laid out record-major. 8 columns × 8
// bytes = one 64-byte cache line per interior event, and a macroWidth
// block of the distance slab stays far below L2 alongside the CSR
// stream it is swept with.
const macroWidth = 8

// Stats summarises one compression.
type Stats struct {
	FlatEvents, FlatArcs             int
	CompressedEvents, CompressedArcs int
	Boundary, Interior               int
	MacroArcs                        int
	// Fallback is set on Analyze results when compression was skipped
	// (ErrNoGain) and the flat graph was analysed directly.
	Fallback bool
}

// EventRatio returns compressed/flat event count.
func (s Stats) EventRatio() float64 {
	return float64(s.CompressedEvents) / float64(s.FlatEvents)
}

// ArcRatio returns compressed/flat arc count.
func (s Stats) ArcRatio() float64 {
	return float64(s.CompressedArcs) / float64(s.FlatArcs)
}

// arc origin classes of the compressed graph.
const (
	kindDirect      int8 = iota // verbatim copy of a flat arc
	kindMacro                   // unmarked interior macro
	kindMarkedMacro             // macro absorbing an initially marked arc
)

// Compressed is a compressed graph together with the mappings and the
// retained interior structure needed to expand winners back to flat
// terms. It is immutable after Compress and safe for concurrent use.
type Compressed struct {
	flat *sg.Graph
	comp *sg.Graph

	toFlat []sg.EventID // compressed ID -> flat ID (ascending)
	toComp []sg.EventID // flat ID -> compressed ID, sg.None for interior

	kind    []int8       // per compressed arc
	flatArc []int32      // kindDirect: flat arc index; else -1
	entry   []sg.EventID // macro kinds: the flat entry event u; else None

	// Interior structure, in unmarked-topological order. In-records of
	// interior events: iSrcPos >= 0 is the topo position of an interior
	// source; iSrcPos < 0 encodes a boundary source with flat event
	// ^iSrcPos. iArc is the flat arc index (for path expansion).
	interior []sg.EventID // topo position -> flat event
	iPos     []int32      // flat ID -> topo position, -1 for boundary
	iOff     []int32
	iSrcPos  []int32
	iDel     []float64
	iArc     []int32

	// Out-records of interior events that leave the interior: the
	// emission points of macro arcs. Grouped by interior topo position.
	eOff    []int32
	eHead   []sg.EventID // flat head (a boundary event)
	eDel    []float64
	eMarked []bool
	eArc    []int32 // flat arc index

	// sweepPool recycles the dist/pred scratch of expansion sweeps —
	// a winner cycle expands one macro at a time, and without reuse the
	// O(interior) scratch dominates the allocation profile on big
	// fabrics.
	sweepPool sync.Pool // *sweepScratch
}

// sweepScratch is the pooled working set of one expansion sweep.
type sweepScratch struct {
	dist []float64
	pred []int32
}

// Flat returns the original graph.
func (c *Compressed) Flat() *sg.Graph { return c.flat }

// Graph returns the compressed graph.
func (c *Compressed) Graph() *sg.Graph { return c.comp }

// ToFlat maps a compressed event ID to its flat event ID.
func (c *Compressed) ToFlat(e sg.EventID) sg.EventID { return c.toFlat[e] }

// Stats returns the compression summary.
func (c *Compressed) Stats() Stats {
	macro := 0
	for _, k := range c.kind {
		if k != kindDirect {
			macro++
		}
	}
	return Stats{
		FlatEvents: c.flat.NumEvents(), FlatArcs: c.flat.NumArcs(),
		CompressedEvents: c.comp.NumEvents(), CompressedArcs: c.comp.NumArcs(),
		Boundary: c.comp.NumEvents(), Interior: len(c.interior),
		MacroArcs: macro,
	}
}

// Compress partitions a validated graph and folds its interior into
// macro arcs. It returns ErrNoGain when the compressed graph would not
// be smaller than the flat one.
func Compress(g *sg.Graph) (*Compressed, error) {
	n := g.NumEvents()
	m := g.NumArcs()
	if n == 0 {
		return nil, fmt.Errorf("hier: empty graph")
	}

	// 1. Boundary: non-repetitive events, heads of marked arcs, heads of
	// disengageable arcs.
	isBoundary := make([]bool, n)
	for i := 0; i < n; i++ {
		if !g.Event(sg.EventID(i)).Repetitive {
			isBoundary[i] = true
		}
	}
	for i := 0; i < m; i++ {
		a := g.Arc(i)
		if a.Marked || a.Once {
			isBoundary[a.To] = true
		}
	}

	c := &Compressed{flat: g}
	c.toComp = make([]sg.EventID, n)
	nb := 0
	for i := 0; i < n; i++ {
		if isBoundary[i] {
			c.toComp[i] = sg.EventID(nb)
			nb++
		} else {
			c.toComp[i] = sg.None
		}
	}
	c.toFlat = make([]sg.EventID, 0, nb)
	for i := 0; i < n; i++ {
		if isBoundary[i] {
			c.toFlat = append(c.toFlat, sg.EventID(i))
		}
	}

	// 2. Interior topological order (restriction of the period order).
	order, err := g.PeriodOrder()
	if err != nil {
		return nil, err
	}
	c.iPos = make([]int32, n)
	for i := range c.iPos {
		c.iPos[i] = -1
	}
	c.interior = make([]sg.EventID, 0, n-nb)
	for _, e := range order {
		if !isBoundary[e] {
			c.iPos[e] = int32(len(c.interior))
			c.interior = append(c.interior, e)
		}
	}
	ni := len(c.interior)

	// 3. Interior in-record CSR (sweep input) and escape-record CSR
	// (macro emission points), both in topo-position order.
	csr := g.InCSR()
	c.iOff = make([]int32, ni+1)
	c.eOff = make([]int32, ni+1)
	for q, e := range c.interior {
		c.iOff[q+1] = c.iOff[q] + csr.Off[int(e)+1] - csr.Off[e]
		cnt := int32(0)
		for _, ai := range g.OutArcs(e) {
			if c.iPos[g.Arc(ai).To] < 0 {
				cnt++
			}
		}
		c.eOff[q+1] = c.eOff[q] + cnt
	}
	c.iSrcPos = make([]int32, c.iOff[ni])
	c.iDel = make([]float64, c.iOff[ni])
	c.iArc = make([]int32, c.iOff[ni])
	c.eHead = make([]sg.EventID, c.eOff[ni])
	c.eDel = make([]float64, c.eOff[ni])
	c.eMarked = make([]bool, c.eOff[ni])
	c.eArc = make([]int32, c.eOff[ni])
	for q, e := range c.interior {
		p := c.iOff[q]
		for r := csr.Off[e]; r < csr.Off[int(e)+1]; r++ {
			src := csr.Src[r]
			if sp := c.iPos[src]; sp >= 0 {
				c.iSrcPos[p] = sp
			} else {
				c.iSrcPos[p] = ^int32(src)
			}
			c.iDel[p] = csr.Delay[r]
			c.iArc[p] = int32(csr.Arc[r])
			p++
		}
		p = c.eOff[q]
		for _, ai := range g.OutArcs(e) {
			a := g.Arc(ai)
			if c.iPos[a.To] >= 0 {
				continue
			}
			c.eHead[p] = a.To
			c.eDel[p] = a.Delay
			c.eMarked[p] = a.Marked
			c.eArc[p] = int32(ai)
			p++
		}
	}

	// 4. Entries: boundary events with a plain out-arc into the interior.
	var entries []sg.EventID
	for _, u := range c.toFlat {
		for _, ai := range g.OutArcs(u) {
			if c.iPos[g.Arc(ai).To] >= 0 {
				entries = append(entries, u)
				break
			}
		}
	}

	// 5. Batched interior sweeps: macroWidth entries share one pass over
	// the interior CSR. Emissions accumulate per entry, max-collapsed per
	// (head, marked) pair.
	type macro struct {
		entry  sg.EventID
		head   sg.EventID
		delay  float64
		marked bool
	}
	var macros []macro
	directArcs := 0
	for i := 0; i < m; i++ {
		a := g.Arc(i)
		if c.iPos[a.From] < 0 && c.iPos[a.To] < 0 {
			directArcs++
		}
	}
	// Abort when macro arcs would stop compression from shrinking the
	// graph (pathological partitions: near-empty interiors with rich
	// boundary fan-in/fan-out).
	macroCap := m - directArcs + m/2 + 64

	neg := math.Inf(-1)
	dist := make([]float64, ni*macroWidth)
	colOf := make(map[sg.EventID]int, macroWidth)
	type emitKey struct {
		head   sg.EventID
		marked bool
	}
	acc := make([]map[emitKey]float64, macroWidth)
	for bStart := 0; bStart < len(entries); bStart += macroWidth {
		K := len(entries) - bStart
		if K > macroWidth {
			K = macroWidth
		}
		for i := range dist {
			dist[i] = neg
		}
		clear(colOf)
		for k := 0; k < K; k++ {
			colOf[entries[bStart+k]] = k
			acc[k] = make(map[emitKey]float64)
		}
		for q := 0; q < ni; q++ {
			row := dist[q*macroWidth : q*macroWidth+macroWidth]
			for r := c.iOff[q]; r < c.iOff[q+1]; r++ {
				sp := c.iSrcPos[r]
				d := c.iDel[r]
				if sp >= 0 {
					src := dist[int(sp)*macroWidth : int(sp)*macroWidth+macroWidth]
					for k := 0; k < macroWidth; k++ {
						if v := src[k] + d; v > row[k] {
							row[k] = v
						}
					}
					continue
				}
				if k, ok := colOf[sg.EventID(^sp)]; ok && d > row[k] {
					row[k] = d
				}
			}
			for r := c.eOff[q]; r < c.eOff[q+1]; r++ {
				key := emitKey{head: c.eHead[r], marked: c.eMarked[r]}
				d := c.eDel[r]
				for k := 0; k < K; k++ {
					if row[k] == neg {
						continue
					}
					v := row[k] + d
					if best, ok := acc[k][key]; !ok || v > best {
						acc[k][key] = v
					}
				}
			}
		}
		for k := 0; k < K; k++ {
			u := entries[bStart+k]
			keys := make([]emitKey, 0, len(acc[k]))
			for key := range acc[k] {
				keys = append(keys, key)
			}
			sort.Slice(keys, func(i, j int) bool {
				if keys[i].head != keys[j].head {
					return keys[i].head < keys[j].head
				}
				return !keys[i].marked && keys[j].marked
			})
			for _, key := range keys {
				macros = append(macros, macro{entry: u, head: key.head, delay: acc[k][key], marked: key.marked})
			}
			acc[k] = nil
		}
		if len(macros) > macroCap {
			return nil, ErrNoGain
		}
	}
	if ni == 0 || directArcs+len(macros) >= m {
		return nil, ErrNoGain
	}

	// 6. Assemble the compressed graph: boundary events in flat-ID order
	// (so the compressed border set lists the same events in the same
	// order), direct arcs in flat order, then the macro arcs.
	b := sg.NewDenseBuilder(g.Name()+"/compressed", nb, directArcs+len(macros))
	for _, fe := range c.toFlat {
		ev := g.Event(fe)
		if ev.Repetitive {
			b.AddEvent(ev.Name)
		} else {
			b.AddNonRepetitiveEvent(ev.Name)
		}
	}
	c.kind = make([]int8, 0, directArcs+len(macros))
	c.flatArc = make([]int32, 0, directArcs+len(macros))
	c.entry = make([]sg.EventID, 0, directArcs+len(macros))
	for i := 0; i < m; i++ {
		a := g.Arc(i)
		cf, ct := c.toComp[a.From], c.toComp[a.To]
		if cf < 0 || ct < 0 {
			continue
		}
		if a.Once {
			b.AddOnceArc(cf, ct, a.Delay)
		} else {
			b.AddArc(cf, ct, a.Delay, a.Marked)
		}
		c.kind = append(c.kind, kindDirect)
		c.flatArc = append(c.flatArc, int32(i))
		c.entry = append(c.entry, sg.None)
	}
	for _, ma := range macros {
		b.AddArc(c.toComp[ma.entry], c.toComp[ma.head], ma.delay, ma.marked)
		if ma.marked {
			c.kind = append(c.kind, kindMarkedMacro)
		} else {
			c.kind = append(c.kind, kindMacro)
		}
		c.flatArc = append(c.flatArc, -1)
		c.entry = append(c.entry, ma.entry)
	}
	comp, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("hier: compressed graph invalid: %w", err)
	}
	c.comp = comp
	return c, nil
}
