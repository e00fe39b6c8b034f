package cluster

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"tsg/internal/obs"
	"tsg/internal/serve"
)

// graphState is the router's per-fingerprint record: the write journal
// that lets any replica be (re)built to the current baseline, the sync
// marks saying which node is caught up to which version, and the
// router-level exactly-once table.
//
// The journal is the replication mechanism, not just bookkeeping.
// Writes commit to the primary, append here, then replay to the other
// replicas; a node that was dead, restarted, or newly pulled into the
// replica set by a re-hash is brought up to date by replaying the
// journal against it — upload the body, re-send the reset record and
// every edit it missed, each under its ORIGINAL (client, seq) stamp so
// a durable node that already holds a prefix in its own WAL dedupes
// that prefix and applies exactly the suffix it missed. Replay is
// therefore idempotent against every node state the cluster can reach.
type graphState struct {
	mu sync.Mutex

	fp   string
	text string // journaled .tsg body ("" if the router never saw it)
	// Structural summary from the parse, for upload responses.
	events, arcs, border int

	// version numbers accepted writes 1..n; resetAt is the version of
	// the retained reset record (0 = baseline is compile-time delays).
	// Edits before the last reset are dropped — the reset record plus
	// the edits after it fully determine the session state.
	version  uint64
	resetAt  uint64
	resetReq *serve.EditRequest
	edits    []journalEdit

	// compactions counts last-writer-per-arc journal compactions (the
	// journal stays bounded by the arc count under sustained edit load).
	compactions int

	// maxSeq is the router's own exactly-once table: client id → highest
	// seq accepted through this router. It guards the one hole node
	// tables can't cover — a retry arriving after compaction dropped the
	// original record from the journal, which a freshly synced replica
	// would otherwise re-apply out of order.
	maxSeq map[string]uint64

	// marks: node id → how far that node is known to be synced. A mark
	// taken under an older node epoch is void (the node was ejected
	// since; it may have lost anything).
	marks map[int]syncMark

	// syncGates: node id → the gate serializing journal replays to that
	// node. Replays run outside mu (they are network calls); the gate
	// keeps one replayer per (graph, node) so records land in journal
	// order while the graph's readers — and replays to other nodes —
	// proceed under mu.
	syncGates map[int]*sync.Mutex

	// dropped marks an instance evicted from r.graphs (state no backend
	// confirmed, after the backends rejected a request for it). Writers that
	// held a stale pointer must re-resolve instead of journaling into
	// an orphan.
	dropped bool

	requests atomic.Uint64
	// obsGraph caches the tracer's interned id of fp (0 = not yet
	// interned), so attributing a request tree is an atomic load.
	obsGraph atomic.Uint32
}

// journalEdit is one accepted write, replayable verbatim.
type journalEdit struct {
	version uint64
	req     serve.EditRequest
}

// syncMark records a node's replication watermark for one graph.
type syncMark struct {
	epoch   uint64 // node epoch the mark is valid under
	version uint64 // journal version applied through
}

// graph returns (creating if needed) the state for a fingerprint.
func (r *Router) graph(fp string) *graphState {
	r.mu.Lock()
	defer r.mu.Unlock()
	gs := r.graphs[fp]
	if gs == nil {
		gs = &graphState{
			fp:     fp,
			maxSeq: map[string]uint64{},
			marks:  map[int]syncMark{},
		}
		r.graphs[fp] = gs
	}
	return gs
}

// lookupGraph returns the state for a fingerprint, or nil. The read
// path resolves through here: a fingerprint no backend ever confirmed
// must not allocate router state, or r.graphs grows without bound
// under bogus (or merely unknown) fingerprint references.
func (r *Router) lookupGraph(fp string) *graphState {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.graphs[fp]
}

// lockGraph returns the fingerprint's state with gs.mu held,
// re-resolving when a concurrent dropUnconfirmed evicted the instance
// between lookup and lock (journaling into a dropped orphan would
// silently lose the record for future replication).
func (r *Router) lockGraph(fp string) *graphState {
	for {
		gs := r.graph(fp)
		gs.mu.Lock()
		if !gs.dropped {
			return gs
		}
		gs.mu.Unlock()
	}
}

// dropUnconfirmed evicts the graph's state if no backend ever confirmed
// it: no journaled write and no sync mark. That is the trail of a
// request the backends rejected — a fingerprint-only write, or inline
// text that parses but does not compile — and keeping it would let
// distinct rejected texts grow r.graphs without bound. Lock order is
// r.mu then gs.mu (the only place both are held); callers must hold
// neither.
func (r *Router) dropUnconfirmed(fp string, gs *graphState) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.graphs[fp] != gs {
		return
	}
	gs.mu.Lock()
	if gs.version == 0 && len(gs.marks) == 0 {
		gs.dropped = true
		delete(r.graphs, fp)
	}
	gs.mu.Unlock()
}

// gateLocked returns the node's replay gate, creating it on first use.
// Caller holds gs.mu.
func (gs *graphState) gateLocked(id int) *sync.Mutex {
	if gs.syncGates == nil {
		gs.syncGates = map[int]*sync.Mutex{}
	}
	g := gs.syncGates[id]
	if g == nil {
		g = &sync.Mutex{}
		gs.syncGates[id] = g
	}
	return g
}

// journalCompactAt bounds the edit journal: past this many entries it
// is compacted to the last write per arc. Compaction preserves the
// final state replay reconstructs (an overwritten write is
// unobservable) and keeps commit order among survivors; the router's
// maxSeq table keeps dropped (client, seq) stamps deduplicable.
const defaultJournalCompactAt = 65536

// appendWriteLocked journals an accepted write and returns its version.
// Caller holds gs.mu.
func (gs *graphState) appendWriteLocked(req *serve.EditRequest, compactAt int) uint64 {
	gs.version++
	if req.Reset {
		// The reset supersedes everything before it: the retained record
		// plus subsequent edits fully rebuild the session.
		gs.resetAt = gs.version
		gs.resetReq = req
		gs.edits = gs.edits[:0]
	} else {
		gs.edits = append(gs.edits, journalEdit{version: gs.version, req: *req})
		if compactAt > 0 && len(gs.edits) > compactAt {
			gs.compactLocked()
		}
	}
	if req.Client != "" && req.Seq > gs.maxSeq[req.Client] {
		gs.maxSeq[req.Client] = req.Seq
	}
	return gs.version
}

// compactLocked rewrites the journal to the last write per arc, in
// commit order. A multi-arc edit request survives if ANY of its arcs
// has no later writer (re-applying its other arcs on replay is then
// superseded by the later entries that overwrote them, which replay
// after it).
func (gs *graphState) compactLocked() {
	last := map[int]uint64{} // arc -> version of its last writer
	for _, je := range gs.edits {
		for _, ed := range je.req.Edits {
			last[ed.Arc] = je.version
		}
	}
	kept := gs.edits[:0]
	for _, je := range gs.edits {
		for _, ed := range je.req.Edits {
			if last[ed.Arc] == je.version {
				kept = append(kept, je)
				break
			}
		}
	}
	gs.edits = kept
	gs.compactions++
}

// sync brings one node up to the graph's current journal version
// WITHOUT holding gs.mu across the network: the suffix the node is
// missing is snapshotted under the lock and replayed outside it, so a
// slow or dead-but-not-yet-ejected replica stalls neither this graph's
// readers nor replays to its other replicas. The per-(graph, node)
// gate keeps replays to one node serial, so records land in journal
// order; the write path (syncLocked, under gs.mu) may still replay the
// same records concurrently with a gated replay's network phase — the
// backends' per-(client, seq) high-water dedupe makes every such
// duplicate a no-op, because both streams send consecutive journal
// records from a confirmed watermark, so the lagging stream only ever
// re-sends records the leading one already applied. Marks only advance
// (epoch-validated, never regressing), so a late completion cannot
// certify past a fresher watermark.
func (r *Router) sync(ctx context.Context, n *node, gs *graphState) error {
	gs.mu.Lock()
	if gs.syncedLocked(n) || (gs.text == "" && gs.version == 0) {
		gs.mu.Unlock()
		return nil
	}
	gate := gs.gateLocked(n.id)
	gs.mu.Unlock()

	gate.Lock()
	defer gate.Unlock()

	// Snapshot the suffix this node is missing. The journal entries are
	// copied out: compaction rewrites gs.edits' backing array in place,
	// so a borrowed sub-slice could mutate mid-replay.
	gs.mu.Lock()
	ep := n.epoch.Load()
	mark, ok := gs.marks[n.id]
	fresh := !ok || mark.epoch != ep
	if fresh {
		mark = syncMark{epoch: ep}
	} else if mark.version >= gs.version {
		gs.mu.Unlock()
		return nil
	}
	text := ""
	if fresh {
		text = gs.text
	}
	target := gs.version
	resetAt := gs.resetAt
	var resetReq *serve.EditRequest
	if gs.resetReq != nil && mark.version < gs.resetAt {
		cp := *gs.resetReq
		resetReq = &cp
	}
	var suffix []journalEdit
	for _, je := range gs.edits {
		if je.version > mark.version {
			suffix = append(suffix, je)
		}
	}
	gs.mu.Unlock()

	sp := obs.LeafN(ctx, nameSync)
	sp.AnnotateN(keyNode, uint64(n.id))
	defer sp.End()
	replayed := 0
	if fresh && text != "" {
		// Unknown or post-ejection node: start from nothing. The upload
		// is idempotent by content (a durable node that kept the graph
		// answers from cache and skips its own WAL append).
		if _, err := n.cl.UploadText(ctx, text); err != nil {
			return fmt.Errorf("sync upload to %s: %w", n.url, err)
		}
		gs.advanceMark(n, ep, 0)
	}
	if resetReq != nil {
		if _, err := n.cl.EditStamped(ctx, *resetReq); err != nil {
			r.telSyncReplays(replayed)
			return fmt.Errorf("sync reset to %s: %w", n.url, err)
		}
		gs.advanceMark(n, ep, resetAt)
		replayed++
	}
	for _, je := range suffix {
		if _, err := n.cl.EditStamped(ctx, je.req); err != nil {
			r.telSyncReplays(replayed)
			return fmt.Errorf("sync edit v%d to %s: %w", je.version, n.url, err)
		}
		gs.advanceMark(n, ep, je.version)
		replayed++
	}
	// The snapshot is fully applied: the node is current through the
	// snapshot version even where compaction left gaps. Anything
	// journaled since is a later replay's (or the write path's) job.
	gs.advanceMark(n, ep, target)
	r.telSyncReplays(replayed)
	return nil
}

// advanceMark raises the node's watermark to version, taken under
// epoch ep. It is a no-op if the node was ejected since ep (everything
// pushed under the old epoch is suspect) or if a concurrent replay
// already certified a higher version under this epoch.
func (gs *graphState) advanceMark(n *node, ep, version uint64) {
	gs.mu.Lock()
	defer gs.mu.Unlock()
	if n.epoch.Load() != ep {
		return
	}
	if m, ok := gs.marks[n.id]; ok && m.epoch == ep && m.version >= version {
		return
	}
	gs.marks[n.id] = syncMark{epoch: ep, version: version}
}

// syncLocked is the write path's variant of sync: the edit commit
// holds gs.mu across dedupe, primary sync, commit, and journal append
// so journal order is commit order, and the primary's pre-commit
// replay must happen under that same hold. It brings one node up to
// the journal's current version: upload the body if the node's mark
// predates its current epoch (it may have lost everything), then
// replay the reset record and every edit past its watermark, original
// stamps intact. On success the mark is current; on failure the mark
// keeps whatever progress was made, so the next attempt resumes
// instead of restarting. Caller holds gs.mu.
func (r *Router) syncLocked(ctx context.Context, n *node, gs *graphState) error {
	mark, ok := gs.marks[n.id]
	ep := n.epoch.Load()
	if ok && mark.epoch == ep && mark.version >= gs.version {
		return nil
	}
	sp := obs.LeafN(ctx, nameSync)
	sp.AnnotateN(keyNode, uint64(n.id))
	defer sp.End()
	replayed := 0
	if !ok || mark.epoch != ep {
		// Unknown or post-ejection node: start from nothing. The upload
		// is idempotent by content (a durable node that kept the graph
		// answers from cache and skips its own WAL append).
		if gs.text != "" {
			if _, err := n.cl.UploadText(ctx, gs.text); err != nil {
				return fmt.Errorf("sync upload to %s: %w", n.url, err)
			}
		}
		mark = syncMark{epoch: ep, version: 0}
		gs.marks[n.id] = mark
	}
	if gs.resetReq != nil && mark.version < gs.resetAt {
		if _, err := n.cl.EditStamped(ctx, *gs.resetReq); err != nil {
			return fmt.Errorf("sync reset to %s: %w", n.url, err)
		}
		mark.version = gs.resetAt
		gs.marks[n.id] = mark
		replayed++
	}
	for _, je := range gs.edits {
		if je.version <= mark.version {
			continue
		}
		if _, err := n.cl.EditStamped(ctx, je.req); err != nil {
			r.telSyncReplays(replayed)
			return fmt.Errorf("sync edit v%d to %s: %w", je.version, n.url, err)
		}
		mark.version = je.version
		gs.marks[n.id] = mark
		replayed++
	}
	// Everything replayable is applied: the node is current even when
	// compaction left version gaps in the journal.
	mark.version = gs.version
	gs.marks[n.id] = mark
	r.telSyncReplays(replayed)
	return nil
}

// invalidateMarkLocked voids a node's watermark for this graph (used
// when a node 404s a fingerprint the router knows it was given: the
// node lost state without a detected ejection). Caller holds gs.mu.
func (gs *graphState) invalidateMarkLocked(n *node) {
	delete(gs.marks, n.id)
}

// syncedLocked reports whether the node's mark is current. Caller
// holds gs.mu.
func (gs *graphState) syncedLocked(n *node) bool {
	mark, ok := gs.marks[n.id]
	return ok && mark.epoch == n.epoch.Load() && mark.version >= gs.version
}
