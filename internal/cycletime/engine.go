package cycletime

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"tsg/internal/mcr"
	"tsg/internal/obs"
	"tsg/internal/sg"
	"tsg/internal/stat"
	"tsg/internal/timesim"
)

// Engine is a compiled cycle-time analysis session: compile a Timed
// Signal Graph once — delay overlay, CSR simulation schedule, period
// order, cut set, slab pool — and answer arbitrarily many analyses,
// what-if queries and sensitivity sweeps against the compiled form,
// with no per-query re-Build or re-Compile. This is the architecture
// the paper's motivation asks for (§I: performance analysis cheap
// enough to sit inside a designer's edit-evaluate loop): the one-shot
// entry points (Analyze, Slacks, Sensitivity, AnalyzeBounds) are thin
// wrappers that build a throwaway Engine, while sessions with heavy
// query traffic hold one and reuse it.
//
// Query cost model:
//
//   - Analyze: one O(b²m) two-pass analysis, cached until delays are
//     edited. Pass 2 (winner re-simulation and critical-cycle
//     backtracking) is lazy: λ-only queries (CycleTime) stop after
//     pass 1, and the first Analyze/Summary/Slacks per committed
//     baseline pays the extraction once;
//   - SetDelay/ResetDelays (committed edits): O(1) at commit time.
//     Once a session has committed an edit, its pass 1 keeps every
//     row of its origin lanes (timesim.LaneTrace, one per chunk of
//     originLanes cut events), and every later post-commit analysis
//     patches only the forward cone of the dirty arcs through them,
//     one worklist per chunk (timesim.Schedule.Patch) — a localized
//     edit re-analyses λ with zero simulations. A flooding edit pays
//     the flood budget's worklist work and then re-walks the rest of
//     each chunk: on random-2000 (2 vCPUs) about 0.9–1.0× a lane
//     pass 1. Disable with Options.NoIncremental;
//   - Slacks: derived from the cached analysis plus one plain
//     simulation on the two-row window that seeds the dual (Burns LP)
//     solve, so the slack certificate costs O(b·m) on top of the
//     analysis instead of an O(n·m) cold Bellman–Ford;
//   - Sensitivity/SensitivitySweep: a what-if whose perturbation stays
//     within the certified slack of its arc (or shrinks an arc that
//     some cached critical cycle avoids, or touches an arc outside the
//     repetitive core) is answered λ-unchanged in O(1) without
//     simulating. Any remaining delay INCREASE is answered exactly
//     from the per-arc what-if rows — one initiated simulation per
//     distinct arc head, shared across all queries of the session —
//     in O(periods) arithmetic. Only uncertified delay DECREASES pay
//     one λ-only analysis each, at a private delay column set that
//     differs from the session's in the one arc (timesim.BatchDelays)
//     — never a rebuild, a recompile or a write to the session's own
//     delays;
//   - AnalyzeBounds and Monte-Carlo: every run at delays other than
//     the session's reads them from private columns over the session's
//     one compiled schedule, plus a private overlay where pass 2 or the
//     slack certificate reads delays from a graph. They are dropped
//     when the query returns, so a session pins no memory for queries
//     it has answered.
//
// An Engine is safe for concurrent use under a readers/writer session
// lock. No query writes the session's delays, so every query whose
// session state already exists runs under the shared lock: a warm
// Analyze or Slacks, sweeps once the certificate and the what-if rows
// they need exist (uncertified decreases included), and bounds — many
// goroutines (the request handlers of a serving layer, see
// internal/serve) read one engine in parallel. The lock is taken
// exclusively by delay commits (SetDelay/ResetDelays), by queries that
// build session state first — a cold analysis, pass 2, the slack
// certificate, what-if rows — and by Monte-Carlo runs (the lazy
// sampling-plan compile of a dist.Model is not safe for concurrent
// first calls).
type Engine struct {
	mu      sync.RWMutex
	overlay *sg.Overlay
	g       *sg.Graph // overlay.Graph(): the simulated, delay-current view
	sched   *timesim.Schedule
	cut     []sg.EventID
	periods int
	opts    Options

	cert     *certificate
	counters engineCounters

	// Incremental commit state. A committed delay edit (SetDelay /
	// ResetDelays) drops the certificate; the overlay remembers the
	// edited arcs until the next analysis drains them. Once the session
	// has seen a commit (incr), pass 1 keeps its origin lanes in
	// traces, one per chunk of the cut, and every later post-commit
	// analysis patches them through the dirty cone
	// (timesim.Schedule.Patch) instead of re-simulating — a localized
	// edit re-analyses λ without running a single simulation. Pass 2
	// is lazy and re-simulates only λ winners when critical cycles are
	// requested. rows are the per-arc what-if rows, session-level so a
	// commit can invalidate only the arcs inside the structural forward
	// cone of the edit. All fields are guarded by the session lock.
	incr       bool
	traces     []*timesim.LaneTrace
	rows       [][]float64
	reachMark  []bool       // scratch for the row-invalidation BFS
	reachQueue []sg.EventID // scratch for the row-invalidation BFS
}

// certificate caches the analysis of the engine's current baseline
// delays plus the by-products the sensitivity fast paths need: the
// certified per-arc slacks (growing an arc within its slack cannot
// raise λ) and the intersection of the cached critical cycles
// (shrinking an arc avoided by some critical cycle cannot lower λ).
// The per-arc what-if rows live on the Engine itself (Engine.rows):
// they stay valid across a commit for every arc outside the edit's
// forward cone, so they outlive the certificate.
type certificate struct {
	result *Result
	// criticals reports that pass 2 ran: result.Critical and the
	// series' OnCritical flags are valid. λ and the series are complete
	// after pass 1 alone, so λ-only traffic — CycleTime, the
	// edit→analyze loop, what-if decisions — never pays the winner
	// backtracking; the first Analyze/Summary/Slacks runs it lazily.
	criticals  bool
	slacks     []ArcSlack
	slackByArc []float64 // NaN for arcs outside the repetitive core
	onAllCrit  []bool    // arc lies on every cached critical cycle
}

// engineCounters are the engine's query counters, atomic so queries
// under the shared lock and their pool workers count concurrently.
type engineCounters struct {
	analyses     atomic.Int64
	incremental  atomic.Int64
	fastPathHits atomic.Int64
	tableHits    atomic.Int64
	windowedP1   atomic.Int64
	slabP1       atomic.Int64
	patchFloods  atomic.Int64
	lazySkips    atomic.Int64
	pass2Runs    atomic.Int64
}

// EngineStats is a snapshot of an engine's query counters.
type EngineStats struct {
	// Analyses counts pass-1 analyses (the b event-initiated
	// simulations that yield λ): the session's own, one per uncertified
	// what-if decrease, one per bounds extreme, the Monte-Carlo
	// support-maximum bound and one per Monte-Carlo sample.
	Analyses int64
	// IncrementalAnalyses counts post-commit analyses answered by
	// patching the retained lane traces through the edit's dirty cone
	// instead of re-simulating (see SetDelay).
	IncrementalAnalyses int64
	// FastPathHits counts sensitivity queries answered from the slack
	// certificate without simulating.
	FastPathHits int64
	// TableAnswers counts delay-increase queries answered exactly from
	// the per-arc what-if rows (O(periods) each, one initiated
	// simulation per distinct arc head) instead of a full O(b²m)
	// re-analysis.
	TableAnswers int64
	// WindowedPass1 counts the pass-1 runs that keep no traces (origin
	// lanes on the rolling window, at the session's delays or at
	// private ones; Monte-Carlo samples aside); SlabPass1 counts the
	// runs that keep every row of their origin lanes (sessions that
	// have committed an edit retain one lane trace per chunk of the
	// cut for incremental patching).
	WindowedPass1 int64
	SlabPass1     int64
	// PatchFloods counts lane-trace patches — one per chunk of up to
	// four cut events and commit — whose dirty cone exceeded the flood
	// budget and fell back to re-walking the remaining rows
	// (timesim.PatchStats.Flooded).
	PatchFloods int64
	// LazyPass2Skips counts certificates dropped by a delay commit
	// before pass 2 (winner re-simulation and critical-cycle
	// backtracking) ever ran — analyses where laziness saved the whole
	// pass. Pass2Runs counts the extractions that did run: the
	// session's and one per bounds extreme (Monte-Carlo criticality
	// runs pass 2 per sample without counting it).
	LazyPass2Skips int64
	Pass2Runs      int64
}

// NewEngine compiles an analysis session with default options: the cut
// set is the border set, simulated over b periods.
func NewEngine(g *sg.Graph) (*Engine, error) { return NewEngineOpts(g, Options{}) }

// NewEngineOpts compiles an analysis session with explicit options. The
// options (cut set, periods, incremental mode) are fixed for the session's
// lifetime; delays are editable through SetDelay/ResetDelays.
func NewEngineOpts(g *sg.Graph, opts Options) (*Engine, error) {
	return NewEngineOptsCtx(context.Background(), g, opts)
}

// NewEngineOptsCtx is NewEngineOpts with an observability context: when
// a tracer rides ctx, session compilation (overlay + CSR schedule) is
// recorded as an engine.compile span sized by the graph.
func NewEngineOptsCtx(ctx context.Context, g *sg.Graph, opts Options) (*Engine, error) {
	sp := obs.LeafN(ctx, spanCompile)
	sp.AnnotateN(keyEvents, uint64(g.NumEvents()))
	sp.AnnotateN(keyArcs, uint64(g.NumArcs()))
	defer sp.End()
	cut := opts.CutSet
	if cut == nil {
		cut = g.BorderEvents()
	} else {
		// The cut set lives as long as the session: decouple it from
		// the caller's buffer.
		cut = append([]sg.EventID(nil), cut...)
		for _, e := range cut {
			if e < 0 || int(e) >= g.NumEvents() {
				return nil, fmt.Errorf("cycletime: cut-set event %d out of range", e)
			}
			if !g.Event(e).Repetitive {
				return nil, fmt.Errorf("cycletime: cut-set event %q is not repetitive", g.Event(e).Name)
			}
		}
		if !g.IsCutSet(cut) {
			return nil, fmt.Errorf("cycletime: events %v do not form a cut set", g.EventNames(cut))
		}
	}
	if len(cut) == 0 {
		return nil, fmt.Errorf("cycletime: graph %q has no border events (no repetitive behaviour to time)", g.Name())
	}
	periods := opts.Periods
	if periods == 0 {
		// b bounds ε_max for every initially-safe graph; using it keeps
		// custom (smaller) cut sets sound: fewer simulations, same depth.
		periods = len(g.BorderEvents())
		if periods < len(cut) {
			periods = len(cut)
		}
	}
	if periods < 1 {
		return nil, fmt.Errorf("cycletime: periods must be >= 1, got %d", periods)
	}
	ov := sg.NewOverlay(g)
	sched, err := timesim.Compile(ov.Graph())
	if err != nil {
		return nil, err
	}
	return &Engine{
		overlay: ov,
		g:       ov.Graph(),
		sched:   sched,
		cut:     cut,
		periods: periods,
		opts:    opts,
	}, nil
}

// Graph returns the engine's view of the graph. Delays read through it
// reflect the session's committed edits; callers must treat it as
// read-only and must not read it concurrently with SetDelay or
// ResetDelays. For delay reads concurrent with commits use Delay,
// which takes the session lock.
func (e *Engine) Graph() *sg.Graph { return e.g }

// Periods returns the number of unfolding periods each simulation of
// the session covers.
func (e *Engine) Periods() int { return e.periods }

// Stats returns a snapshot of the engine's query counters.
func (e *Engine) Stats() EngineStats {
	return EngineStats{
		Analyses:            e.counters.analyses.Load(),
		IncrementalAnalyses: e.counters.incremental.Load(),
		FastPathHits:        e.counters.fastPathHits.Load(),
		TableAnswers:        e.counters.tableHits.Load(),
		WindowedPass1:       e.counters.windowedP1.Load(),
		SlabPass1:           e.counters.slabP1.Load(),
		PatchFloods:         e.counters.patchFloods.Load(),
		LazyPass2Skips:      e.counters.lazySkips.Load(),
		Pass2Runs:           e.counters.pass2Runs.Load(),
	}
}

// Delay returns the current (session) delay of an arc.
func (e *Engine) Delay(arc int) float64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.overlay.Delay(arc)
}

// SizeHint estimates the resident heap bytes of the compiled session:
// the delay overlay, the compiled schedule's record columns, the lane
// traces a session that has committed an edit retains (times only, 8 B
// per instantiation and lane), and the cached certificate (slacks and
// what-if rows). Simulation windows and pass 2's slabs are transient:
// the schedule's pool holds them weakly, so a collection frees them
// between queries. Queries at other delays (what-if decreases, bounds,
// Monte-Carlo) keep nothing once they return, so they add nothing. It deliberately excludes the immutable graph, which the
// engine shares with its builder. Serving caches use the hint as the
// per-entry cost when bounding total engine memory
// (internal/serve.Cache).
func (e *Engine) SizeHint() int64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	m := int64(e.g.NumArcs())
	sz := int64(1024)           // struct headers, cut set, options
	sz += m * 72                // overlay: arc copies, delay column, nominal, dirty tracking
	sz += e.sched.MemEstimate() // compiled record columns
	if e.incr {
		// The lane traces pass 1 retains once the session has committed
		// an edit: every row of every chunk, one lane window per period.
		sz += int64(e.periods+1) * e.sched.LaneWindowBytes(len(e.cut))
	}
	if c := e.cert; c != nil {
		sz += int64(len(c.slacks))*24 + m*9 // slackByArc + onAllCrit
	}
	for _, row := range e.rows {
		sz += int64(len(row)) * 8
	}
	if e.rows != nil {
		sz += m * 24 // row headers
	}
	return sz
}

// SetDelay permanently edits the session baseline: subsequent analyses,
// slacks, sensitivities and sweeps see the new delay. The cached
// analysis certificate is invalidated, but the overlay remembers the
// edit as a dirty arc: once a session has committed an edit, its
// analyses retain their lane traces, and the first analysis after each
// commit re-propagates only the forward cone of the dirty arcs through
// them (bit-identical to a from-scratch analysis, typically orders of
// magnitude cheaper for localized edits). A no-op edit (the
// arc already has that delay) keeps the certificate. The compiled
// schedule is refreshed in place (no recompile).
func (e *Engine) SetDelay(arc int, delay float64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if arc >= 0 && arc < e.overlay.NumArcs() && e.overlay.Delay(arc) == delay {
		return nil
	}
	if err := e.overlay.SetDelay(arc, delay); err != nil {
		return err
	}
	e.commit()
	return nil
}

// ResetDelays restores every arc to the delay it had when the engine
// was compiled. Like SetDelay it is an incremental commit: only the
// arcs that actually change become dirty (Overlay.Reset).
func (e *Engine) ResetDelays() {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i := 0; i < e.overlay.NumArcs(); i++ {
		if e.overlay.Delay(i) != e.overlay.Nominal(i) {
			e.commit()
			break
		}
	}
	e.overlay.Reset()
}

// commit records a committed baseline edit, whose arcs the overlay
// keeps dirty for the next analysis: the certificate is dropped and
// (unless the session opts out) incremental mode is armed so that
// analysis retains its lane traces. Callers hold the session lock.
func (e *Engine) commit() {
	if e.cert != nil && !e.cert.criticals {
		// The certificate dies having never paid pass 2: the winner
		// re-simulation the lazy split deferred is now skipped for good.
		e.counters.lazySkips.Add(1)
	}
	e.cert = nil
	if !e.opts.NoIncremental {
		e.incr = true
	}
}

// Analyze runs the paper's two-pass analysis at the session's current
// delays. The result is cached: repeated calls without intervening
// delay edits answer without re-simulating. Each call returns a
// private deep copy, so callers may freely reorder or truncate the
// returned series and cycles without corrupting the certificate the
// sensitivity fast paths are derived from.
func (e *Engine) Analyze() (*Result, error) { return e.AnalyzeCtx(context.Background()) }

// AnalyzeCtx is Analyze with an observability context: when a tracer
// rides ctx (obs.WithTracer), the engine records an engine.answer span
// whose tier names the deepest work the answer required — cached /
// incremental / lambda-only / full — with the phase spans (pass 1,
// patch, pass 2, slack certificate) nested beneath it.
func (e *Engine) AnalyzeCtx(ctx context.Context) (*Result, error) {
	sp := obs.LeafN(ctx, spanAnswer)
	defer sp.End()
	// Warm path: the certificate already holds the analysis of the
	// committed baseline, critical cycles included — clone it under the
	// shared lock so concurrent readers never serialise.
	e.mu.RLock()
	if c := e.cert; c != nil && c.criticals {
		res := cloneResult(c.result)
		e.mu.RUnlock()
		sp.SetTierN(tierCached)
		return res, nil
	}
	e.mu.RUnlock()
	ctx = obs.ContextWith(ctx, sp) // cold: phases nest under this span
	e.mu.Lock()
	defer e.mu.Unlock()
	c, err := e.ensureResult(ctx)
	if err != nil {
		return nil, err
	}
	if err := e.ensureCriticals(ctx, c); err != nil {
		return nil, err
	}
	return cloneResult(c.result), nil
}

// cloneResult deep-copies an analysis result (series, distances,
// critical cycles), decoupling the caller's copy from the cached
// certificate.
func cloneResult(r *Result) *Result {
	nr := *r
	nr.Series = append([]BorderSeries(nil), r.Series...)
	for i := range nr.Series {
		nr.Series[i].Distances = append([]float64(nil), r.Series[i].Distances...)
	}
	nr.Critical = cloneCycles(r.Critical)
	return &nr
}

// cloneCycles deep-copies a critical-cycle list.
func cloneCycles(cycs []CriticalCycle) []CriticalCycle {
	out := append([]CriticalCycle(nil), cycs...)
	for i := range out {
		out[i].Events = append([]sg.EventID(nil), cycs[i].Events...)
		out[i].Arcs = append([]int(nil), cycs[i].Arcs...)
	}
	return out
}

// Summary returns the cycle time and a private copy of the critical
// cycles at the session's current delays. It is the serving layer's
// hot read: unlike Analyze it does not clone the per-cut-event
// distance series — b·periods floats that protocol responses never
// carry.
func (e *Engine) Summary() (stat.Ratio, []CriticalCycle, error) {
	return e.SummaryCtx(context.Background())
}

// SummaryCtx is Summary with an observability context (see AnalyzeCtx).
func (e *Engine) SummaryCtx(ctx context.Context) (stat.Ratio, []CriticalCycle, error) {
	sp := obs.LeafN(ctx, spanAnswer)
	defer sp.End()
	e.mu.RLock()
	if c := e.cert; c != nil && c.criticals {
		lam, cycs := c.result.CycleTime, cloneCycles(c.result.Critical)
		e.mu.RUnlock()
		sp.SetTierN(tierCached)
		return lam, cycs, nil
	}
	e.mu.RUnlock()
	ctx = obs.ContextWith(ctx, sp) // cold: phases nest under this span
	e.mu.Lock()
	defer e.mu.Unlock()
	c, err := e.ensureResult(ctx)
	if err != nil {
		return stat.Ratio{}, nil, err
	}
	if err := e.ensureCriticals(ctx, c); err != nil {
		return stat.Ratio{}, nil, err
	}
	return c.result.CycleTime, cloneCycles(c.result.Critical), nil
}

// CycleTime returns λ at the session's current delays. The warm path
// is a plain value read off the certificate under the shared lock —
// no result cloning at all — making this the cheapest repeated query
// an engine serves.
func (e *Engine) CycleTime() (stat.Ratio, error) {
	return e.CycleTimeCtx(context.Background())
}

// CycleTimeCtx is CycleTime with an observability context (see
// AnalyzeCtx). A cold call records tier lambda-only: pass 1 runs, the
// winner backtracking stays lazy.
func (e *Engine) CycleTimeCtx(ctx context.Context) (stat.Ratio, error) {
	sp := obs.LeafN(ctx, spanAnswer)
	defer sp.End()
	e.mu.RLock()
	if c := e.cert; c != nil {
		lam := c.result.CycleTime
		e.mu.RUnlock()
		sp.SetTierN(tierCached)
		return lam, nil
	}
	e.mu.RUnlock()
	ctx = obs.ContextWith(ctx, sp) // cold: phases nest under this span
	e.mu.Lock()
	defer e.mu.Unlock()
	c, err := e.ensureResult(ctx)
	if err != nil {
		return stat.Ratio{}, err
	}
	return c.result.CycleTime, nil
}

// Slacks returns the per-arc timing slacks at the session's cycle time,
// certified by the engine's own simulation times: the λ-detrended
// occurrence maxima of one plain simulation seed the dual (Burns LP)
// solve, which converges in a handful of relaxation rounds instead of
// the cold Bellman–Ford's O(n) (see mcr.FeasiblePotentialSeeded). The
// certifying potential is not unique, so individual slack values may
// differ from the one-shot Slacks — both are valid certificates with
// the same guarantees (no negative slack, every critical arc tight).
func (e *Engine) Slacks() ([]ArcSlack, error) { return e.SlacksCtx(context.Background()) }

// SlacksCtx is Slacks with an observability context (see AnalyzeCtx).
func (e *Engine) SlacksCtx(ctx context.Context) ([]ArcSlack, error) {
	sp := obs.LeafN(ctx, spanAnswer)
	defer sp.End()
	e.mu.RLock()
	if c := e.cert; c != nil && c.slackByArc != nil {
		out := append([]ArcSlack(nil), c.slacks...)
		e.mu.RUnlock()
		sp.SetTierN(tierCached)
		return out, nil
	}
	e.mu.RUnlock()
	ctx = obs.ContextWith(ctx, sp) // cold: phases nest under this span
	e.mu.Lock()
	defer e.mu.Unlock()
	c, err := e.ensureCert(ctx)
	if err != nil {
		return nil, err
	}
	return append([]ArcSlack(nil), c.slacks...), nil
}

// Sensitivity answers "what is λ if this arc's delay becomes newDelay"
// without disturbing the session: certified perturbations are answered
// from the slack certificate without simulating, increases from the
// arc's what-if row, and uncertified decreases by one λ-only analysis
// at private delays.
func (e *Engine) Sensitivity(arc int, newDelay float64) (stat.Ratio, error) {
	return e.SensitivityCtx(context.Background(), arc, newDelay)
}

// SensitivityCtx is Sensitivity with an observability context: the
// engine.answer span's tier names the answer taken — fast-path (slack
// certificate, no simulation), cached-row (what-if row arithmetic) or
// lambda-only (one pass-1 re-analysis). It is a one-candidate sweep.
func (e *Engine) SensitivityCtx(ctx context.Context, arc int, newDelay float64) (stat.Ratio, error) {
	sp := obs.LeafN(ctx, spanAnswer)
	defer sp.End()
	out, err := e.sweep(ctx, sp, []WhatIf{{Arc: arc, Delay: newDelay}})
	if err != nil {
		return stat.Ratio{}, err
	}
	return out[0], nil
}

// WhatIf is one delay assignment of a sensitivity sweep.
type WhatIf struct {
	Arc   int
	Delay float64
}

// SensitivitySweep answers many what-if queries in one call: λ for each
// candidate as if its arc's delay were replaced, all against the
// session baseline (candidates do not compose). Results are identical
// to calling Sensitivity once per candidate — the differential tests
// assert it — but the sweep answers certified candidates from the slack
// fast path without simulating, batches the what-if-row simulations of
// the remaining increases (one per distinct arc head, on the worker
// pool), and splits the λ-only analyses of uncertified decreases over
// the same pool, one job per (candidate, cut event).
func (e *Engine) SensitivitySweep(cands []WhatIf) ([]stat.Ratio, error) {
	return e.SensitivitySweepCtx(context.Background(), cands)
}

// SensitivitySweepCtx is SensitivitySweep with cooperative cancellation:
// the sweep checks ctx before every decrease simulation it runs on the
// worker pool, and returns ctx.Err() once it fires — a request whose
// deadline expired (or whose client went away) stops burning cores
// mid-sweep. Certified candidates answered from the warm certificate
// never block, so cancellation costs nothing on the fast path. Sweeps
// never write session state other than the what-if rows they build,
// so a cancelled sweep leaves the engine immediately reusable. The
// engine.sweep span's tier is the deepest any candidate took.
func (e *Engine) SensitivitySweepCtx(ctx context.Context, cands []WhatIf) ([]stat.Ratio, error) {
	sp := obs.LeafN(ctx, spanSweep)
	defer sp.End()
	sp.AnnotateN(keyCands, uint64(len(cands)))
	return e.sweep(ctx, sp, cands)
}

// sweep answers cands under the shared lock when the certificate exists
// and every increase it does not certify already has its what-if row,
// else exclusively once the certificate and the missing rows are built;
// sp receives the deepest tier taken.
func (e *Engine) sweep(ctx context.Context, sp *obs.Span, cands []WhatIf) ([]stat.Ratio, error) {
	if err := e.validateCands(cands); err != nil {
		return nil, err
	}
	e.mu.RLock()
	if c := e.cert; c != nil && c.slackByArc != nil {
		if out, missing, err := e.answer(ctx, sp, c, cands); missing == nil {
			e.mu.RUnlock()
			return out, err
		}
	}
	e.mu.RUnlock()
	ctx = obs.ContextWith(ctx, sp) // cold: phases nest under this span
	e.mu.Lock()
	defer e.mu.Unlock()
	c, err := e.ensureCert(ctx)
	if err != nil {
		return nil, err
	}
	out, missing, err := e.answer(ctx, sp, c, cands)
	if missing != nil {
		// One initiated simulation per distinct arc head builds the
		// rows, cheaper than one λ-only analysis.
		if err := e.ensureRows(ctx, missing); err != nil {
			return nil, err
		}
		out, _, err = e.answer(ctx, sp, c, cands)
	}
	return out, err
}

// answer is the one answer loop of a sweep: each candidate takes the
// fast path when the certificate proves λ unchanged, its arc's what-if
// row when it is an increase, else (an uncertified decrease) one λ-only
// analysis at private delays (whatIfDecreases). When increases lack
// their rows it returns those arcs as missing, having answered and
// counted nothing. Callers hold the session lock, shared or exclusive;
// sp receives the deepest tier taken.
func (e *Engine) answer(ctx context.Context, sp *obs.Span, c *certificate, cands []WhatIf) (out []stat.Ratio, missing []int, err error) {
	out = make([]stat.Ratio, len(cands))
	var fast, table int64
	var full []int
	for i, cd := range cands {
		cur := e.overlay.Delay(cd.Arc)
		if lam, ok := fastAnswer(c, cur, cd.Arc, cd.Delay); ok {
			out[i] = lam
			fast++
			continue
		}
		if cd.Delay <= cur {
			full = append(full, i)
			continue
		}
		if e.rows == nil || e.rows[cd.Arc] == nil {
			missing = append(missing, cd.Arc)
			continue
		}
		out[i] = e.answerFromRow(c.result.CycleTime, cd.Arc, cd.Delay)
		table++
	}
	if missing != nil {
		return nil, missing, nil
	}
	e.counters.fastPathHits.Add(fast)
	e.counters.tableHits.Add(table)
	sp.SetTierN(deepestTier(fast, table, int64(len(full))))
	if len(full) > 0 {
		if err := e.whatIfDecreases(obs.ContextWith(ctx, sp), cands, full, out); err != nil {
			return nil, nil, err
		}
	}
	return out, nil, nil
}

// deepestTier names the deepest what-if tier a sweep took, given how
// many candidates each tier answered.
func deepestTier(fast, table, full int64) obs.Name {
	switch {
	case full > 0:
		return tierLambdaOnly
	case table > 0:
		return tierCachedRow
	case fast > 0:
		return tierFastPath
	}
	return 0
}

// validateCands checks every candidate against the session graph
// before any is answered (or counted), so a rejected sweep leaves the
// session statistics untouched. The arc count is fixed for the
// session's lifetime, so this needs no lock.
func (e *Engine) validateCands(cands []WhatIf) error {
	for i, cd := range cands {
		if cd.Arc < 0 || cd.Arc >= e.g.NumArcs() {
			return fmt.Errorf("cycletime: sweep candidate %d: arc index %d out of range [0,%d)", i, cd.Arc, e.g.NumArcs())
		}
		if cd.Delay < 0 || math.IsNaN(cd.Delay) {
			return fmt.Errorf("cycletime: sweep candidate %d: invalid delay %g on arc %d", i, cd.Delay, cd.Arc)
		}
	}
	return nil
}

// whatIfDecreases answers the uncertified decreases cands[i], i in full:
// each is the λ-only pass 1 at the session's delays with the one arc
// changed, one chunk-runner job per (candidate, chunk of cut events).
// Each job moves its arc into the worker's private columns and back
// out, so no job writes the session's delays. Each candidate's
// per-event bests are then folded in cut order, as pass 1 folds them.
// Callers hold the session lock, shared or exclusive.
func (e *Engine) whatIfDecreases(ctx context.Context, cands []WhatIf, full []int, out []stat.Ratio) error {
	e.counters.analyses.Add(int64(len(full)))
	e.counters.windowedP1.Add(int64(len(full)))
	sp := e.pass1Span(ctx, tierWindow)
	sp.AnnotateN(keyCands, uint64(len(full)))
	defer sp.End()
	b, P := len(e.cut), e.periods+1
	series := make([]BorderSeries, len(full)*b) // per candidate and cut event: the Best of its series
	err := e.runLanes(ctx, e.cut, len(full), func(w *laneWorker, j laneJob) (*timesim.BatchDelays, []timesim.Read) {
		if w.cols == nil {
			w.cols, w.buf = e.sched.NewBatchDelays(1), make([]float64, originLanes*P)
		}
		cd := cands[full[j.rep]]
		w.cols.SetArc(e.sched, 0, cd.Arc, cd.Delay)
		return w.cols, w.series(j.chunk, P, w.buf)
	}, func(w *laneWorker, j laneJob) {
		arc := cands[full[j.rep]].Arc
		w.cols.SetArc(e.sched, 0, arc, e.overlay.Delay(arc))
		for _, r := range w.reads {
			series[j.rep*b+j.lo+r.Lane].Best = seriesFromTimes(r.Event, r.Out[1:]).Best
		}
	})
	if err != nil {
		return err
	}
	for k, i := range full {
		res, err := e.assembleSeries(series[k*b : (k+1)*b])
		if err != nil {
			return err
		}
		out[i] = res.CycleTime
	}
	return nil
}

// AnalyzeBounds computes guaranteed cycle-time bounds when every arc
// delay may vary inside [lo(a), hi(a)] of the session's current delays:
// λ is monotone in each delay, so the two extreme assignments bracket
// every assignment in between. The two extreme analyses are independent
// and run on the worker pool, each at its own private delays, so the
// query writes no session state and runs under the shared lock.
func (e *Engine) AnalyzeBounds(lo, hi func(arc int, nominal float64) float64) (*Bounds, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	m := e.g.NumArcs()
	dLo := make([]float64, m)
	dHi := make([]float64, m)
	for i := 0; i < m; i++ {
		nom := e.overlay.Delay(i)
		dLo[i], dHi[i] = lo(i, nom), hi(i, nom)
		if dLo[i] < 0 || math.IsNaN(dLo[i]) {
			return nil, fmt.Errorf("cycletime: lower delays: arc %d: invalid delay %g", i, dLo[i])
		}
		if dHi[i] < 0 || math.IsNaN(dHi[i]) {
			return nil, fmt.Errorf("cycletime: upper delays: arc %d: invalid delay %g", i, dHi[i])
		}
		if dLo[i] > dHi[i] {
			return nil, fmt.Errorf("cycletime: arc %d has lo %g > hi %g", i, dLo[i], dHi[i])
		}
	}
	var (
		ds   = [2][]float64{dLo, dHi}
		res  [2]*Result
		errs [2]error
	)
	runIndexed(2, e.poolSize(2, len(e.cut)), func(i int) {
		at := e.privateDelays()
		if errs[i] = at.set(e.sched, ds[i]); errs[i] == nil {
			res[i], errs[i] = e.runAnalysis(context.Background(), at)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return &Bounds{
		Min: res[0].CycleTime, Max: res[1].CycleTime,
		MinResult: res[0], MaxResult: res[1],
	}, nil
}

// --- internals ---------------------------------------------------------

// delays is one delay assignment an analysis runs at: the graph whose
// arc delays backtracking sums into cycle lengths and the dual solve
// reads, and the compiled delay columns the kernels read — nil for the
// session schedule's own. The session's assignment is e.session();
// privateDelays makes one that leaves the session's delays alone.
type delays struct {
	g    *sg.Graph
	cols *timesim.BatchDelays
	ov   *sg.Overlay // behind g for a private assignment, else nil
}

// session returns the session's own delay assignment.
func (e *Engine) session() delays { return delays{g: e.g} }

// privateDelays returns a private delay assignment over the session's
// structure and compiled schedule, starting at the session's delays: a
// private overlay and width-1 delay columns. Callers hold the session
// lock, shared or exclusive.
func (e *Engine) privateDelays() delays {
	ov := sg.NewOverlay(e.g)
	return delays{g: ov.Graph(), cols: e.sched.NewBatchDelays(1), ov: ov}
}

// set moves a private assignment to the per-arc delays d.
func (at delays) set(sch *timesim.Schedule, d []float64) error {
	if err := at.ov.SetDelays(func(i int, _ float64) float64 { return d[i] }); err != nil {
		return err
	}
	at.cols.Set(sch, 0, d)
	return nil
}

// ensureResult returns the certificate holding the pass-1 analysis (λ
// and the distance series) of the current baseline delays, running it
// if needed. The arcs committed since the last analysis are drained
// from the overlay into the schedule; the retained lane traces, when
// present, are patched through their dirty cone instead of
// re-simulating; a session that has committed at least one edit starts
// retaining lane traces here. Critical cycles are NOT guaranteed by
// this certificate — callers that need them follow up with
// ensureCriticals.
func (e *Engine) ensureResult(ctx context.Context) (*certificate, error) {
	if e.cert != nil {
		return e.cert, nil
	}
	var dirty []int
	e.overlay.DrainDirty(func(arc int, delay float64) {
		e.sched.RefreshArcDelay(arc, delay)
		dirty = append(dirty, arc)
	})
	e.invalidateRows(dirty)
	tier := tierLambdaOnly
	if e.traces != nil {
		tier = tierIncr
	}
	var (
		res *Result
		err error
	)
	if e.incr {
		res, err = e.retainedPass1(ctx, dirty)
	} else {
		res, err = e.pass1At(ctx, nil)
	}
	obs.FromContext(ctx).SetTierN(tier)
	if err != nil {
		return nil, err
	}
	e.cert = &certificate{result: res}
	return e.cert, nil
}

// ensureCriticals runs pass 2 (Prop. 7/8) against the certificate if
// it has not run yet: exactly the cut-set events attaining λ lie on
// critical cycles, and extractCriticals backtracks them (Prop. 1) with
// one simulation per distinct cycle, k+1 periods long. The outcome is
// cached on the certificate until the next commit, so a session
// answering λ-only traffic (the edit→analyze loop) never pays it, and
// a session asking for critical cycles pays it once per committed
// baseline. Callers hold the session lock.
func (e *Engine) ensureCriticals(ctx context.Context, c *certificate) error {
	if c.criticals {
		return nil
	}
	if err := e.extractCriticals(ctx, e.session(), c.result); err != nil {
		return err
	}
	c.criticals = true
	// Pass 2 ran: whatever tier the pass-1 path recorded, this answer
	// paid for the complete two-pass analysis.
	obs.FromContext(ctx).SetTierN(tierFull)
	return nil
}

// extractCriticals is pass 2 (Prop. 7/8) against a pass-1 result at
// the delays at: exactly the cut-set events attaining λ lie on critical
// cycles, so every winner is marked OnCritical, and criticalCycles
// turns the winners, in cut order, into Critical with one k+1-period
// simulation per distinct cycle.
func (e *Engine) extractCriticals(ctx context.Context, at delays, res *Result) error {
	e.counters.pass2Runs.Add(1)
	winners := markWinners(res.Series, res.CycleTime)
	sp := obs.LeafN(ctx, spanPass2)
	sp.AnnotateN(keyWinners, uint64(len(winners)))
	defer sp.End()
	cycs, simulated, err := e.criticalCycles(at, winners, res.CycleTime)
	sp.AnnotateN(keySimulated, uint64(simulated))
	if err != nil {
		return err
	}
	res.Critical = cycs
	return nil
}

// poolSize is the one worker-pool rule of the package: jobs independent
// jobs of simsPerJob simulations each run on up to GOMAXPROCS
// goroutines once there are at least two jobs and AutoParallelThreshold
// simulations in all; below that the goroutine overhead outweighs the
// win.
func (e *Engine) poolSize(jobs, simsPerJob int) int {
	if jobs < 2 || jobs*simsPerJob < AutoParallelThreshold {
		return 1
	}
	return min(jobs, runtime.GOMAXPROCS(0))
}

// retainedPass1 is pass 1 on lane traces, one per chunk of the cut,
// pooled by poolSize: a session without traces walks and keeps them,
// one with traces patches them through the forward cone of the dirty
// arcs (timesim.Schedule.Patch) instead of simulating. λ and the
// series are then read off the traces — bit-identical to a
// from-scratch pass 1, because the patched traces equal fresh ones.
// Callers hold the session lock.
func (e *Engine) retainedPass1(ctx context.Context, dirty []int) (*Result, error) {
	patch := e.traces != nil
	var sp *obs.Span
	if patch {
		e.counters.incremental.Add(1)
		sp = obs.LeafN(ctx, spanPatch)
		sp.AnnotateN(keyDirty, uint64(len(dirty)))
	} else {
		e.counters.analyses.Add(1)
		e.counters.slabP1.Add(1)
		sp = e.pass1Span(ctx, tierSlab)
		e.traces = make([]*timesim.LaneTrace, (len(e.cut)+originLanes-1)/originLanes)
	}
	defer sp.End()
	errs := make([]error, len(e.traces))
	stats := make([]timesim.PatchStats, len(e.traces))
	runIndexed(len(e.traces), e.poolSize(len(e.traces), min(len(e.cut), originLanes)), func(i int) {
		if patch {
			stats[i], errs[i] = e.sched.Patch(e.traces[i], dirty)
		} else {
			e.traces[i], errs[i] = e.sched.RunLaneTrace(chunk(e.cut, i), e.periods)
		}
	})
	for i, err := range errs {
		if err != nil {
			// A failure (misuse-class only) leaves the trace set
			// inconsistent; drop it so the next analysis re-simulates.
			e.traces = nil
			return nil, fmt.Errorf("cycletime: lane trace of %v: %w", e.g.EventNames(chunk(e.cut, i)), err)
		}
	}
	if patch {
		// cone is the total realized dirty-cone size across the
		// chunks; floods counts the chunks that bailed out to
		// re-walking their remaining rows.
		var cone, floods uint64
		for _, st := range stats {
			cone += uint64(st.Recomputed)
			if st.Flooded {
				floods++
			}
		}
		e.counters.patchFloods.Add(int64(floods))
		sp.AnnotateN(keyCone, cone)
		if floods > 0 {
			sp.SetTierN(tierFlooded)
		}
	}
	P := e.periods + 1
	series := make([]BorderSeries, len(e.cut))
	times := make([]float64, len(e.cut)*P)
	var w laneWorker
	for i, lt := range e.traces {
		lo := i * originLanes
		if err := lt.Read(w.series(chunk(e.cut, i), P, times[lo*P:])); err != nil {
			return nil, err
		}
		for _, r := range w.reads {
			series[lo+r.Lane] = seriesFromTimes(r.Event, r.Out[1:])
		}
	}
	return e.assembleSeries(series)
}

// invalidateRows drops the what-if rows of every arc inside the
// structural forward cone of the dirty arcs — the arcs whose tail's
// initiated-simulation times may have moved. Rows outside the cone
// answer exactly as before: a row is a function of path weights from
// the arc's head to its tail, and no path reaches the tail through a
// dirty arc unless the tail is forward-reachable from a dirty arc's
// head. O(n+m) only when rows exist and arcs are dirty.
func (e *Engine) invalidateRows(dirty []int) {
	if e.rows == nil || len(dirty) == 0 {
		return
	}
	if e.reachMark == nil {
		e.reachMark = make([]bool, e.g.NumEvents())
	}
	queue := e.reachQueue[:0]
	for _, ai := range dirty {
		if to := e.g.Arc(ai).To; !e.reachMark[to] {
			e.reachMark[to] = true
			queue = append(queue, to)
		}
	}
	for head := 0; head < len(queue); head++ {
		for _, ai := range e.g.OutArcs(queue[head]) {
			if to := e.g.Arc(ai).To; !e.reachMark[to] {
				e.reachMark[to] = true
				queue = append(queue, to)
			}
		}
	}
	kept := 0
	for ai, row := range e.rows {
		if row == nil {
			continue
		}
		if e.reachMark[e.g.Arc(ai).From] {
			e.rows[ai] = nil
		} else {
			kept++
		}
	}
	if kept == 0 {
		e.rows = nil
	}
	for _, ev := range queue {
		e.reachMark[ev] = false
	}
	e.reachQueue = queue[:0]
}

// ensureCert extends ensureResult with the slack certificate the
// sensitivity fast path consumes.
func (e *Engine) ensureCert(ctx context.Context) (*certificate, error) {
	c, err := e.ensureResult(ctx)
	if err != nil {
		return nil, err
	}
	if c.slackByArc == nil {
		if err := e.buildCertificate(ctx, c); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// buildCertificate derives the slack certificate from the cached
// analysis: one plain windowed simulation seeds the dual solve with
// the primal evidence the engine already holds (the λ-detrended occurrence maxima
// max_p (t(e_p) − λ·p) are unfolded-path weights, already feasible
// along every simulated constraint), and the cached critical cycles are
// intersected for the delay-decrease fast path.
func (e *Engine) buildCertificate(ctx context.Context, c *certificate) error {
	// The decrease fast path intersects the critical cycles, so the
	// lazy pass 2 must have run.
	if err := e.ensureCriticals(ctx, c); err != nil {
		return err
	}
	sp := obs.LeafN(ctx, spanSlackcert)
	defer sp.End()
	slacks, err := e.certifySlacksAt(e.session(), c.result.CycleTime.Float())
	if err != nil {
		return err
	}
	c.slacks = slacks
	c.slackByArc = make([]float64, e.g.NumArcs())
	for i := range c.slackByArc {
		c.slackByArc[i] = math.NaN()
	}
	for _, s := range c.slacks {
		c.slackByArc[s.Arc] = s.Slack
	}
	c.onAllCrit = make([]bool, e.g.NumArcs())
	for i, cyc := range c.result.Critical {
		if i == 0 {
			for _, ai := range cyc.Arcs {
				c.onAllCrit[ai] = true
			}
			continue
		}
		in := make([]bool, e.g.NumArcs())
		for _, ai := range cyc.Arcs {
			in[ai] = true
		}
		for a := range c.onAllCrit {
			c.onAllCrit[a] = c.onAllCrit[a] && in[a]
		}
	}
	return nil
}

// certifySlacksAt runs one plain simulation at the delays at on the
// two-row window, seeds the dual (Burns LP) solve from the λ-detrended
// occurrence maxima max_p (t(e_p) − λ·p) it folds period by period —
// unfolded-path weights, already feasible along every simulated
// constraint — and returns the per-arc slack certificate at λ. Besides
// the session certificate, this is the per-sample slack evaluation of
// the Monte-Carlo subsystem (SlacksMC), which is why it takes the
// delays and λ as parameters instead of reading the cached result.
func (e *Engine) certifySlacksAt(at delays, lam float64) ([]ArcSlack, error) {
	seed := make([]float64, at.g.NumEvents())
	reps := at.g.RepetitiveEvents()
	err := e.sched.RunPlainWindow(at.cols, e.periods, func(p int, row []float64) {
		for _, ev := range reps {
			if v := row[ev] - lam*float64(p); v > seed[ev] {
				seed[ev] = v
			}
		}
	})
	if err != nil {
		return nil, err
	}
	u, err := mcr.FeasiblePotentialSeeded(at.g, lam, seed)
	if err != nil {
		return nil, fmt.Errorf("cycletime: certifying slacks at λ=%g: %w", lam, err)
	}
	return slacksFromPotential(at.g, lam, u), nil
}

// fastAnswer reports (λ, true) when the certificate proves the
// perturbed graph keeps the baseline cycle time:
//
//   - growing an arc within its certified slack keeps the potential u
//     feasible (λ' <= λ) while growing a delay never lowers the maximum
//     cycle ratio (λ' >= λ); the slackEps guard keeps the float-derived
//     certificate strictly on the safe side of the boundary, so a
//     perturbation landing exactly on the slack runs the full analysis
//     instead (same answer, simulated);
//   - shrinking an arc never raises any cycle ratio (λ' <= λ), and if
//     some cached critical cycle avoids the arc its ratio — and hence
//     λ — is untouched (λ' >= λ); this direction is exact and needs no
//     float margin.
func fastAnswer(c *certificate, current float64, arc int, newDelay float64) (stat.Ratio, bool) {
	delta := newDelay - current
	if delta == 0 {
		return c.result.CycleTime, true
	}
	s := c.slackByArc[arc]
	if math.IsNaN(s) {
		// Outside the repetitive core: every such arc leaves a
		// non-repetitive event (Validate forbids repetitive ->
		// non-repetitive arcs), so no path from a repetitive event —
		// in particular no cut-set simulation and no cycle — ever
		// traverses it. λ is independent of its delay.
		return c.result.CycleTime, true
	}
	if delta > 0 {
		// The guard margin scales with the operand magnitudes so the
		// float-derived certificate stays on the safe side of the
		// boundary at any delay scale, not just near unit delays.
		margin := slackEps * math.Max(1, math.Max(math.Abs(current), math.Abs(newDelay)))
		if delta <= s-margin {
			return c.result.CycleTime, true
		}
		return stat.Ratio{}, false
	}
	if !c.onAllCrit[arc] {
		return c.result.CycleTime, true
	}
	return stat.Ratio{}, false
}

// ensureRows builds the what-if rows for the given arcs: the arcs are
// grouped by head event, and one event-initiated simulation per
// distinct head — an origin lane of the chunk runner, up to
// originLanes heads per walk, never a full trace slab — reads back the
// head→tail path-weight rows of every requested in-arc of that head.
// Rows already built are skipped, so a session sweeping repeatedly
// amortises the simulations across sweeps — and across commits: a
// commit invalidates only the rows inside the edit's forward cone (see
// invalidateRows).
//
// rows[arc][j] is the maximum weight of an unfolded path covering j
// periods from the arc's head back to its tail (NaN when none),
// extracted from the event-initiated simulation t_head. Closing such a
// path with the arc itself yields every cycle through the arc, so λ
// after raising the arc's delay to d is
//
//	max(λ, max_j (rows[arc][j] + d) / (j + marking)),
//
// exactly: cycles avoiding the arc keep their ratio, paths from a
// repetitive head never leave the repetitive core (Validate forbids
// repetitive -> non-repetitive arcs), and any non-simple closed walk
// the rows include decomposes into simple cycles whose best ratio
// bounds it. nil per arc until built; one simulation per distinct head
// serves all arcs entering it. Like pass 1, the rows are session state
// and are built to the end once started.
func (e *Engine) ensureRows(ctx context.Context, arcs []int) error {
	if e.rows == nil {
		e.rows = make([][]float64, e.g.NumArcs())
	}
	byHead := map[sg.EventID][]int{}
	var heads []sg.EventID // in order of first request
	for _, ai := range arcs {
		if e.rows[ai] != nil {
			continue
		}
		v := e.g.Arc(ai).To
		if byHead[v] == nil {
			heads = append(heads, v)
		}
		byHead[v] = append(byHead[v], ai)
	}
	sp := obs.LeafN(ctx, spanRows)
	sp.AnnotateN(keyHeads, uint64(len(heads)))
	defer sp.End()
	return e.runLanes(context.Background(), heads, 1, func(w *laneWorker, j laneJob) (*timesim.BatchDelays, []timesim.Read) {
		w.reads = w.reads[:0]
		for l, v := range j.chunk {
			for _, ai := range byHead[v] {
				w.reads = append(w.reads, timesim.Read{Lane: l, Event: e.g.Arc(ai).From, Out: make([]float64, e.periods+1)})
			}
		}
		return nil, w.reads
	}, func(w *laneWorker, j laneJob) {
		k := 0
		for _, v := range j.chunk {
			for _, ai := range byHead[v] {
				e.rows[ai] = w.reads[k].Out
				k++
			}
		}
	})
}

// answerFromRow evaluates λ after raising one arc's delay to newDelay
// against the arc's what-if row: the best cycle through the arc closes
// a head→tail path with the perturbed arc, everything else keeps the
// baseline λ. Exact for newDelay >= the baseline delay.
func (e *Engine) answerFromRow(lam stat.Ratio, arc int, newDelay float64) stat.Ratio {
	m := 0
	if e.g.Arc(arc).Marked {
		m = 1
	}
	best := lam
	for j, t := range e.rows[arc] {
		if math.IsNaN(t) || j+m == 0 {
			continue
		}
		if r := stat.NewRatio(t+newDelay, j+m); best.Less(r) {
			best = r
		}
	}
	return best.Normalize()
}

// runAnalysis executes the paper's two-pass algorithm (§VII) at the
// delays at without touching session state: the form AnalyzeBounds
// runs its extremes in.
func (e *Engine) runAnalysis(ctx context.Context, at delays) (*Result, error) {
	res, err := e.pass1At(ctx, at.cols)
	if err != nil {
		return nil, err
	}
	if err := e.extractCriticals(ctx, at, res); err != nil {
		return nil, err
	}
	return res, nil
}

// DedupeCycles collapses rotation-equal simple cycles, keeping
// first-seen (winner) order — shared by the full and patched analysis
// paths so both produce identical Critical lists, and by hierarchical
// expansion, where distinct compressed cycles can fold onto one flat
// cycle.
func DedupeCycles(cycs []*CriticalCycle) []CriticalCycle {
	var out []CriticalCycle
	var anchors []int // least-rotation anchor of each cycle in out
	for _, cyc := range cycs {
		cStart := leastRotation(cyc.Arcs)
		dup := false
		for k := range out {
			if sameCycle(&out[k], anchors[k], cyc, cStart) {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, *cyc)
			anchors = append(anchors, cStart)
		}
	}
	return out
}

// originLanes is the most origins one walk carries as origin lanes
// (timesim.RunFromOrigins). Four lanes halve pass 1 on the batch
// graphs against scalar windows, in the 3.2 MB a 10^5-event graph's
// two pooled scalar windows held. The lane window grows with the
// width: eight lanes on a two-row window ran pass 1 faster still, but
// their 12.8 MB raised the batch workload's peak RSS by about 7%.
const originLanes = 4

// laneJob is one walk of runLanes: origins[lo:lo+len(chunk)] for rep.
type laneJob struct {
	rep, lo int
	chunk   []sg.EventID
}

// laneWorker is one chunk-runner worker's state: its job's reads and,
// for jobs at private delays, width-1 columns and an output buffer.
type laneWorker struct {
	reads []timesim.Read
	cols  *timesim.BatchDelays
	buf   []float64
}

// series sets the worker's reads to each lane's own origin, lane l
// into out[l*P:(l+1)*P], and returns them.
func (w *laneWorker) series(chunk []sg.EventID, P int, out []float64) []timesim.Read {
	w.reads = w.reads[:0]
	for l, o := range chunk {
		w.reads = append(w.reads, timesim.Read{Lane: l, Event: o, Out: out[l*P : (l+1)*P : (l+1)*P]})
	}
	return w.reads
}

// chunk returns chunk i of origins: origins[i·originLanes:], at most
// originLanes of them.
func chunk(origins []sg.EventID, i int) []sg.EventID {
	lo := i * originLanes
	return origins[lo:min(lo+originLanes, len(origins))]
}

// runLanes is the engine's one origin-lane chunk runner: origins in
// chunks of up to originLanes, each chunk once per repetition, as
// reps × chunks walks (timesim.RunFromOrigins) on the bounded worker
// pool. setup(w, j) prepares job j in worker w's state and returns its
// delay columns (nil: the session's own) and reads; after the walk,
// done(w, j) consumes w.reads. Each worker checks ctx before every job
// and stops at its first error, which runLanes returns.
func (e *Engine) runLanes(ctx context.Context, origins []sg.EventID, reps int,
	setup func(w *laneWorker, j laneJob) (*timesim.BatchDelays, []timesim.Read),
	done func(w *laneWorker, j laneJob)) error {
	chunks := (len(origins) + originLanes - 1) / originLanes
	jobs := reps * chunks
	ws := make([]laneWorker, e.poolSize(jobs, min(len(origins), originLanes)))
	errs := make([]error, len(ws))
	runWorkers(jobs, len(ws), func(wi, i int) {
		if errs[wi] != nil {
			return
		}
		if errs[wi] = ctx.Err(); errs[wi] != nil {
			return
		}
		j := laneJob{rep: i / chunks, lo: i % chunks * originLanes, chunk: chunk(origins, i%chunks)}
		w := &ws[wi]
		cols, reads := setup(w, j)
		if err := e.sched.RunFromOrigins(j.chunk, cols, e.periods, reads); err != nil {
			errs[wi] = fmt.Errorf("cycletime: simulating from %v: %w", e.g.EventNames(j.chunk), err)
			return
		}
		done(w, j)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// pass1At is the windowed pass 1 at the delay columns cols (nil: the
// session's own): the cut runs as origin lanes on the chunk runner,
// which materialises no slab, and each origin series is written
// straight into the result. It writes no session state, so the
// session's own λ and the analyses at private delays (bounds, the
// Monte-Carlo support-maximum bound) share it. Once started it runs to
// the end: its result is what the session caches.
func (e *Engine) pass1At(ctx context.Context, cols *timesim.BatchDelays) (*Result, error) {
	e.counters.analyses.Add(1)
	e.counters.windowedP1.Add(1)
	sp := e.pass1Span(ctx, tierWindow)
	defer sp.End()
	cut, P := e.cut, e.periods+1
	series := make([]BorderSeries, len(cut))
	times := make([]float64, len(cut)*P)
	err := e.runLanes(context.Background(), cut, 1, func(w *laneWorker, j laneJob) (*timesim.BatchDelays, []timesim.Read) {
		return cols, w.series(j.chunk, P, times[j.lo*P:])
	}, func(w *laneWorker, j laneJob) {
		for _, r := range w.reads {
			series[j.lo+r.Lane] = seriesFromTimes(r.Event, r.Out[1:])
		}
	})
	if err != nil {
		return nil, err
	}
	return e.assembleSeries(series)
}

// pass1Span opens the engine.pass1 span of a pass 1 on the given
// kernel tier.
func (e *Engine) pass1Span(ctx context.Context, tier obs.Name) *obs.Span {
	sp := obs.LeafN(ctx, spanPass1)
	sp.SetTierN(tier)
	sp.AnnotateN(keyCut, uint64(len(e.cut)))
	sp.AnnotateN(keyPeriods, uint64(e.periods))
	return sp
}

// assembleSeries folds the per-cut-event series into a pass-1 Result.
func (e *Engine) assembleSeries(series []BorderSeries) (*Result, error) {
	best := stat.Ratio{Num: -1, Den: 1}
	for i := range series {
		if best.Less(series[i].Best) {
			best = series[i].Best
		}
	}
	if best.Num < 0 {
		return nil, fmt.Errorf("cycletime: no cut-set event re-occurred within %d periods; graph has no cycles through %v",
			e.periods, e.g.EventNames(e.cut))
	}
	return &Result{Periods: e.periods, Series: series, CycleTime: best.Normalize()}, nil
}
