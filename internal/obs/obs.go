// Package obs is the process-wide observability layer: a
// context-propagated span tracer backed by a fixed-size lock-free ring,
// plus Prometheus-style counters and fixed-bucket histograms with a
// text-exposition writer and a matching parser/linter.
//
// Edge is the one HTTP observability edge both daemons share: a
// tracer, a registry, <daemon>.<endpoint> request roots feeding a
// <prefix>_http_request_duration_seconds histogram, the build-info and
// uptime gauges, and the /metrics and /debug/trace handlers. tsgserved
// and tsgrouter register only the families and spans that are theirs.
//
// The design goal is that instrumentation stays cheap enough to leave
// on in production serving:
//
//   - Recording a finished span is a short seqlocked burst of atomic
//     stores into a pre-allocated ring slot — no locks, no allocation,
//     no I/O. Record halves are packed two per word and span handles
//     are pooled, so the hot path neither allocates nor pays an
//     atomic store per field.
//   - Span names, answer tiers and annotation keys are interned to
//     Names once, up front (package-level vars, NewEdge); the hot path
//     moves only integers.
//   - Graph fingerprints are interned per tracer; callers cache the id
//     alongside the graph, so per-graph attribution is one store.
//   - When no tracer rides the context, StartN and LeafN return a nil
//     *Span and every method on it is a nil-check no-op, so library
//     code can be instrumented unconditionally. Running with tracing
//     disabled (a nil Edge) is the "compiled-out" baseline the OBS
//     experiment measures against.
//
// Spans form trees: StartN derives a child context, so a serve
// request naturally produces handler → admission → cache → engine
// phase nesting, inspectable via /debug/trace or tsgtime -trace.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// ---------------------------------------------------------------------
// Name interning
// ---------------------------------------------------------------------

// nameTab interns span names, tiers and annotation keys process-wide.
// The set is small and static (phase names declared by instrumented
// packages), so a RWMutex map is effectively contention-free.
var nameTab = struct {
	sync.RWMutex
	ids  map[string]uint32
	strs []string
}{ids: make(map[string]uint32), strs: []string{""}} // id 0 reserved: "absent"

// Name is a pre-interned span name, tier or annotation key. Hot call
// sites intern once into a package-level var (obs.N at init) and pass
// the Name, so the per-span cost is integer moves — no map lookups, no
// string hashing, no concatenation.
type Name uint32

// N interns s and returns its Name. Intended for package-level vars:
//
//	var spanAnswer = obs.N("engine.answer")
func N(s string) Name { return Name(Intern(s)) }

// Intern returns the process-wide id for a span name, tier or
// annotation key. Ids are stable for the life of the process; id 0 is
// reserved to mean "absent".
func Intern(s string) uint32 {
	nameTab.RLock()
	id, ok := nameTab.ids[s]
	nameTab.RUnlock()
	if ok {
		return id
	}
	nameTab.Lock()
	defer nameTab.Unlock()
	if id, ok = nameTab.ids[s]; ok {
		return id
	}
	id = uint32(len(nameTab.strs))
	nameTab.strs = append(nameTab.strs, s)
	nameTab.ids[s] = id
	return id
}

// NameOf resolves an interned id back to its string ("" for 0 or
// unknown ids).
func NameOf(id uint32) string {
	nameTab.RLock()
	defer nameTab.RUnlock()
	if int(id) < len(nameTab.strs) {
		return nameTab.strs[id]
	}
	return ""
}

// internTable interns graph fingerprints per tracer. Unlike span names
// the value set grows with the graphs a server has seen, so it lives on
// the tracer rather than in a process global.
type internTable struct {
	mu   sync.RWMutex
	ids  map[string]uint32
	strs []string
}

func (t *internTable) intern(s string) uint32 {
	t.mu.RLock()
	id, ok := t.ids[s]
	t.mu.RUnlock()
	if ok {
		return id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok = t.ids[s]; ok {
		return id
	}
	if t.ids == nil {
		t.ids = make(map[string]uint32)
		t.strs = []string{""}
	}
	id = uint32(len(t.strs))
	t.strs = append(t.strs, s)
	t.ids[s] = id
	return id
}

func (t *internTable) lookup(id uint32) string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if int(id) < len(t.strs) {
		return t.strs[id]
	}
	return ""
}

// ---------------------------------------------------------------------
// Ring tracer
// ---------------------------------------------------------------------

// slot is one ring record. Every field is atomic so concurrent
// writers/readers are race-detector clean; seq implements a seqlock:
// odd while a writer is mid-record, even (and nonzero) once committed.
// Snapshot readers re-check seq after reading and drop torn records.
//
// The u32 halves of a record — ids, name, graph, tier, annotation keys
// — are packed two per word: on amd64 every atomic store is a
// full-barrier XCHG costing tens of cycles, so the packing (plus
// skipping the annotation words when no annotation is set) keeps
// Span.End at 8 stores instead of 13. Span/trace/parent ids are
// truncated to 32 bits on commit; they only need to be unique within
// the ring window, which holds thousands of spans, not billions.
//
// An alternative design — heap-allocate every span and publish the
// pointer itself with one atomic store — measured slower end-to-end:
// the allocation plus GC pressure of two spans per warm request costs
// more than the stores it saves. Pooled handles plus a packed in-place
// commit is the cheaper point.
type slot struct {
	seq   atomic.Uint64
	ts    atomic.Uint64 // trace<<32 | span
	pn    atomic.Uint64 // parent<<32 | name
	gt    atomic.Uint64 // graph<<32 | tier
	keys  atomic.Uint64 // akey<<32 | bkey; 0 = no annotations, a/b stale
	a     atomic.Uint64
	b     atomic.Uint64
	start atomic.Int64
	end   atomic.Int64
}

// Tracer records finished spans into a fixed-size power-of-two ring.
// All methods are safe for concurrent use. The zero value is not
// usable; construct with NewTracer.
type Tracer struct {
	slots  []slot
	mask   uint64
	next   atomic.Uint64 // ring write cursor (1-based record number)
	ids    atomic.Uint64 // span-id allocator
	graphs internTable
	onEnd  func(name uint32, seconds float64)
	pool   sync.Pool
}

// DefaultRingSize is the span-ring capacity of every daemon's Edge, and
// of NewTracer when a non-positive size is requested: enough for a few
// hundred request trees of interactive depth.
const DefaultRingSize = 8192

// NewTracer builds a tracer whose ring holds at least size spans
// (rounded up to a power of two, minimum 64). Memory is allocated once,
// up front.
func NewTracer(size int) *Tracer {
	if size <= 0 {
		size = DefaultRingSize
	}
	n := 64
	for n < size {
		n <<= 1
	}
	t := &Tracer{slots: make([]slot, n), mask: uint64(n - 1)}
	t.pool.New = func() any { return new(Span) }
	return t
}

// OnEnd installs a hook invoked with the interned name and duration of
// every finished span — the bridge that feeds phase-duration
// histograms. It must be installed before the tracer sees traffic; it
// is not synchronized against concurrent Span.End calls.
func (t *Tracer) OnEnd(f func(name uint32, seconds float64)) { t.onEnd = f }

// Recorded reports how many spans have ever been recorded (including
// ones the ring has since overwritten). The ring write cursor is that
// count — slots are claimed once per record — so no separate counter
// is maintained on the commit path.
func (t *Tracer) Recorded() uint64 { return t.next.Load() }

// InternGraph pre-interns a graph fingerprint, returning its id.
func (t *Tracer) InternGraph(fp string) uint32 { return t.graphs.intern(fp) }

// Span is an in-flight span handle. A nil *Span is a valid no-op, so
// instrumented code never branches on whether tracing is enabled.
// Handles are pooled; after End the span must not be touched.
type Span struct {
	tr       *Tracer
	trace    uint64
	id       uint64
	parent   uint64
	name     uint32
	graph    uint32
	tier     uint32
	akey, bk uint32
	a, b     uint64
	start    int64
}

// SetGraphID attributes the span (and, at snapshot time, its whole
// trace) to the graph fingerprint interned as id by
// Tracer.InternGraph. Callers cache the id alongside the graph, so
// attribution moves one integer.
func (s *Span) SetGraphID(id uint32) {
	if s == nil {
		return
	}
	s.graph = id
}

// SetTierN records which answer tier the span took (e.g. "fast-path",
// "cached-row", "lambda-only", "full").
func (s *Span) SetTierN(tier Name) {
	if s == nil {
		return
	}
	s.tier = uint32(tier)
}

// AnnotateN attaches up to two numeric key=value annotations (e.g.
// dirty-cone size, flood count, sample count). Extra keys beyond two
// are dropped.
func (s *Span) AnnotateN(key Name, v uint64) {
	if s == nil {
		return
	}
	switch {
	case s.akey == 0:
		s.akey, s.a = uint32(key), v
	case s.bk == 0:
		s.bk, s.b = uint32(key), v
	}
}

// End commits the span into the tracer ring: a seqlocked burst of
// packed atomic stores into a pre-allocated slot, with zero
// allocations, then returns the handle to the pool.
func (s *Span) End() {
	if s == nil {
		return
	}
	end := time.Now().UnixNano()
	t := s.tr
	n := t.next.Add(1)
	sl := &t.slots[(n-1)&t.mask]
	sl.seq.Store(2*n - 1) // mark: write in progress
	sl.ts.Store(uint64(uint32(s.trace))<<32 | uint64(uint32(s.id)))
	sl.pn.Store(uint64(uint32(s.parent))<<32 | uint64(s.name))
	sl.gt.Store(uint64(s.graph)<<32 | uint64(s.tier))
	keys := uint64(s.akey)<<32 | uint64(s.bk)
	sl.keys.Store(keys)
	if keys != 0 {
		// Unannotated spans (the warm hot path) skip both value words:
		// keys == 0 tells readers the stale a/b contents are dead.
		sl.a.Store(s.a)
		sl.b.Store(s.b)
	}
	sl.start.Store(s.start)
	sl.end.Store(end)
	sl.seq.Store(2 * n) // commit
	if f := t.onEnd; f != nil {
		f(s.name, float64(end-s.start)/1e9)
	}
	*s = Span{}
	t.pool.Put(s)
}

// SpanRecord is a committed span as read back out of the ring.
type SpanRecord struct {
	Trace         uint64            `json:"trace"`
	ID            uint64            `json:"id"`
	Parent        uint64            `json:"parent,omitempty"`
	Name          string            `json:"name"`
	Graph         string            `json:"graph,omitempty"`
	Tier          string            `json:"tier,omitempty"`
	StartUnixNano int64             `json:"start_unix_nano"`
	DurationNS    int64             `json:"duration_ns"`
	Attrs         map[string]uint64 `json:"attrs,omitempty"`
}

// Snapshot reads every committed record currently in the ring,
// dropping torn ones (seqlock re-check), and returns them ordered by
// start time. It allocates freely; it is the /debug/trace read path,
// not the hot path.
func (t *Tracer) Snapshot() []SpanRecord {
	out := make([]SpanRecord, 0, len(t.slots))
	for i := range t.slots {
		sl := &t.slots[i]
		s1 := sl.seq.Load()
		if s1 == 0 || s1&1 == 1 {
			continue
		}
		ts, pn, gt := sl.ts.Load(), sl.pn.Load(), sl.gt.Load()
		keys := sl.keys.Load()
		av, bv := sl.a.Load(), sl.b.Load()
		start, end := sl.start.Load(), sl.end.Load()
		if sl.seq.Load() != s1 {
			continue // torn: a writer lapped us mid-read
		}
		rec := SpanRecord{
			Trace:         ts >> 32,
			ID:            ts & 0xffffffff,
			Parent:        pn >> 32,
			Name:          NameOf(uint32(pn)),
			Graph:         t.graphs.lookup(uint32(gt >> 32)),
			Tier:          NameOf(uint32(gt)),
			StartUnixNano: start,
			DurationNS:    end - start,
		}
		ak, bk := uint32(keys>>32), uint32(keys)
		if ak != 0 || bk != 0 {
			rec.Attrs = make(map[string]uint64, 2)
			if ak != 0 {
				rec.Attrs[NameOf(ak)] = av
			}
			if bk != 0 {
				rec.Attrs[NameOf(bk)] = bv
			}
		}
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].StartUnixNano != out[j].StartUnixNano {
			return out[i].StartUnixNano < out[j].StartUnixNano
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// SnapshotGraph is Snapshot filtered to traces touching the given
// graph fingerprint: a trace is kept if any of its spans is attributed
// to fp, so engine phases recorded before attribution still appear.
func (t *Tracer) SnapshotGraph(fp string) []SpanRecord {
	all := t.Snapshot()
	if fp == "" {
		return all
	}
	keep := make(map[uint64]bool)
	for _, r := range all {
		if r.Graph == fp {
			keep[r.Trace] = true
		}
	}
	out := all[:0]
	for _, r := range all {
		if keep[r.Trace] {
			out = append(out, r)
		}
	}
	return out
}
