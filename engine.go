package tsg

import (
	"context"

	"tsg/internal/cycletime"
)

// This file exposes the compile-once / query-many session layer. The
// one-shot functions (Analyze, Slacks, Sensitivity, AnalyzeBounds)
// rebuild the compiled form on every call; an Engine keeps it alive so
// heavy what-if traffic — the designer's edit-evaluate loop of §I —
// never pays a recompile: a what-if reads its delay from private delay
// columns over the session's compiled schedule.
//
//	e, err := tsg.NewEngine(g)
//	res, err := e.Analyze()              // compiled once, cached
//	slacks, err := e.Slacks()            // certified by the simulation
//	lam, err := e.Sensitivity(arc, 5)    // fast path when within slack
//	lams, err := e.SensitivitySweep(...) // many what-ifs, worker pool
//	err = e.SetDelay(arc, 2)             // commit an edit, O(1)
//
// See examples/whatif for the full bottleneck-hunting loop.

// Engine is a compiled analysis session: one graph compilation serving
// arbitrarily many analyses, slack reports, what-if sensitivities,
// sweeps and interval bounds, with in-place delay edits between
// queries. An Engine is safe for concurrent use under a
// readers/writer session lock: queries whose session state exists —
// cached answers, warm sweeps including their simulated decreases,
// bounds — run fully in parallel, while SetDelay commits (and queries
// that must first build session state, and Monte-Carlo) take the lock
// exclusively — the discipline that lets the serving layer
// (internal/serve, cmd/tsgserved) share one engine across thousands
// of clients. Graph() exposes the engine's graph view, Stats() its
// query counters, and SizeHint() the estimated resident bytes the
// serving cache uses for cost accounting.
type Engine = cycletime.Engine

// EngineStats is a snapshot of an engine's query counters (full
// analyses run vs. queries answered from the slack fast path vs. the
// what-if rows).
type EngineStats = cycletime.EngineStats

// WhatIf is one delay assignment of a sensitivity sweep: "what would λ
// be if Arc's delay were Delay".
type WhatIf = cycletime.WhatIf

// NewEngine compiles an analysis session for the graph with default
// options (border-set cut, b periods).
func NewEngine(g *Graph) (*Engine, error) { return cycletime.NewEngine(g) }

// NewEngineOpts compiles an analysis session with explicit options
// (custom cut set, period override, scheduling).
func NewEngineOpts(g *Graph, opts AnalysisOptions) (*Engine, error) {
	return cycletime.NewEngineOpts(g, opts)
}

// NewEngineOptsCtx is NewEngineOpts with a context: a tracer attached
// to ctx (internal/obs) records the compile as an engine.compile span,
// and the engine's *Ctx query methods (AnalyzeCtx, CycleTimeCtx, ...)
// continue the span tree down to the kernel phases. With a plain
// context it behaves exactly like NewEngineOpts.
func NewEngineOptsCtx(ctx context.Context, g *Graph, opts AnalysisOptions) (*Engine, error) {
	return cycletime.NewEngineOptsCtx(ctx, g, opts)
}
