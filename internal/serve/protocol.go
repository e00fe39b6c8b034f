// Package serve turns the engine session layer into shared serving
// infrastructure: an LRU-bounded engine cache keyed by canonical graph
// fingerprints, singleflight compile deduplication so concurrent first
// requests for a graph trigger exactly one compile, and a JSON-over-
// HTTP protocol for the paper's interactive queries — analyze, slacks,
// batched what-ifs, Monte-Carlo, committed edits (POST /v1/edit, the
// edit→analyze loop on a shared session) — so thousands of clients
// asking about the same graph share one compiled engine and its warm
// certificate.
// cmd/tsgserved wraps the handler in a daemon; the client package
// speaks the protocol from Go.
//
// The protocol: every query request references its graph either by
// inline .tsg text ("graph") or by the fingerprint of a previously
// uploaded graph ("fingerprint"). Responses always carry the
// fingerprint, so a client can upload once (POST /v1/graphs, raw .tsg
// body) and switch to cheap fingerprint references for the rest of the
// session — the cache makes those requests share the compiled engine
// and its cached analysis across every client of the graph.
//
// Arc indices on the wire — WhatIfQuery.Arc, ArcSlack.Arc,
// CriticalCycle.Arcs, the MCResponse.Criticality array — are CANONICAL
// ranks (sg.CanonicalArcOrder / tsg.CanonicalArcOrder), not
// declaration-order indices. The fingerprint is deliberately invariant
// under declaration order, so two clients holding the same graph in
// different arc orders share one cached engine; the canonical rank is
// the index space they also share, computable by each side from its
// own copy alone. The client package's ArcMap translates between a
// local graph's declaration order and the wire space.
package serve

// GraphRef references the graph a query runs against: inline .tsg text
// (which may carry ~dist/@group statistical annotations) or the
// fingerprint of a graph the server already holds. Exactly one must be
// set; inline text wins when both are.
type GraphRef struct {
	// Graph is the full .tsg text of the graph.
	Graph string `json:"graph,omitempty"`
	// Fingerprint is the content key of a previously uploaded graph as
	// returned in any response's "fingerprint" field. For graphs
	// without statistical annotations it equals tsg.Fingerprint, so
	// clients can compute it locally.
	Fingerprint string `json:"fingerprint,omitempty"`
}

// Lambda is a cycle time on the wire: the exact rational plus float and
// display forms.
type Lambda struct {
	Num   float64 `json:"num"`
	Den   int     `json:"den"`
	Float float64 `json:"float"`
	Text  string  `json:"text"`
}

// CriticalCycle is one critical cycle on the wire, events by name.
type CriticalCycle struct {
	Events []string `json:"events"`
	Arcs   []int    `json:"arcs"`
	Length float64  `json:"length"`
	Period int      `json:"period"`
}

// AnalyzeRequest asks for the cycle time and critical cycles.
type AnalyzeRequest struct {
	GraphRef
}

// AnalyzeResponse is the outcome of POST /v1/analyze.
type AnalyzeResponse struct {
	Fingerprint string          `json:"fingerprint"`
	Lambda      Lambda          `json:"lambda"`
	Critical    []CriticalCycle `json:"critical"`
	// EngineCached reports whether the request was served by an engine
	// already resident in the cache (warm) rather than compiled for it.
	EngineCached bool `json:"engine_cached"`
}

// SlacksRequest asks for the per-arc timing slacks.
type SlacksRequest struct {
	GraphRef
}

// ArcSlack is one arc's slack on the wire.
type ArcSlack struct {
	Arc   int     `json:"arc"`
	From  string  `json:"from"`
	To    string  `json:"to"`
	Delay float64 `json:"delay"`
	Slack float64 `json:"slack"`
	Tight bool    `json:"tight"`
}

// SlacksResponse is the outcome of POST /v1/slacks.
type SlacksResponse struct {
	Fingerprint string     `json:"fingerprint"`
	Lambda      Lambda     `json:"lambda"`
	Slacks      []ArcSlack `json:"slacks"`
}

// WhatIfQuery is one delay assignment of a batched what-if request:
// "what would λ be if Arc's delay were Delay".
type WhatIfQuery struct {
	Arc   int     `json:"arc"`
	Delay float64 `json:"delay"`
}

// WhatIfRequest batches what-if queries against one graph; all queries
// are answered against the graph's baseline delays (they do not
// compose), exactly like Engine.SensitivitySweep.
type WhatIfRequest struct {
	GraphRef
	Queries []WhatIfQuery `json:"queries"`
}

// EngineStats mirrors the engine's query counters on the wire.
type EngineStats struct {
	Analyses            int64 `json:"analyses"`
	IncrementalAnalyses int64 `json:"incremental_analyses"`
	FastPathHits        int64 `json:"fast_path_hits"`
	TableAnswers        int64 `json:"table_answers"`
	// Kernel-selection and laziness counters (PR 8): window vs slab
	// pass-1 runs, patch flood bail-outs, and lazy pass-2 outcomes.
	WindowedPass1  int64 `json:"windowed_pass1,omitempty"`
	SlabPass1      int64 `json:"slab_pass1,omitempty"`
	PatchFloods    int64 `json:"patch_floods,omitempty"`
	LazyPass2Skips int64 `json:"lazy_pass2_skips,omitempty"`
	Pass2Runs      int64 `json:"pass2_runs,omitempty"`
}

// WhatIfResponse is the outcome of POST /v1/whatif: one λ per query,
// in request order, plus the serving engine's cumulative statistics.
type WhatIfResponse struct {
	Fingerprint string      `json:"fingerprint"`
	Lambdas     []Lambda    `json:"lambdas"`
	Stats       EngineStats `json:"stats"`
}

// DelayEdit is one committed delay assignment of an edit request.
// Arc is a canonical rank, like every arc index on the wire.
type DelayEdit struct {
	Arc   int     `json:"arc"`
	Delay float64 `json:"delay"`
}

// EditRequest commits delay edits to the graph's resident engine —
// the server half of the paper's edit→analyze loop. Unlike what-if
// queries, edits are durable and compose: they move the session
// baseline that every later query of every client of this fingerprint
// sees, until further edits or a reset. Reset restores the engine's
// compile-time delays before the edits (if any) are applied. The
// response carries λ at the new baseline; the analysis behind it is
// incremental — the engine re-propagates only the forward cone of the
// edited arcs through its retained simulation traces.
//
// Note the fingerprint still names the graph as uploaded: an edited
// engine's current delays diverge from the upload until reset. The
// fingerprint is a session handle here, not a content proof.
type EditRequest struct {
	GraphRef
	Edits []DelayEdit `json:"edits,omitempty"`
	Reset bool        `json:"reset,omitempty"`
	// Criticals additionally returns the critical cycles at the edited
	// baseline. Off by default: extracting them forces the engine's
	// lazy pass 2 (full-trace winner re-simulation) on every edit,
	// while the λ-only answer keeps the loop simulation-free for
	// localized edits.
	Criticals bool `json:"criticals,omitempty"`
	// Client and Seq make the edit idempotent under retries: a request
	// stamped with a (client, seq) pair the server has already applied
	// is acknowledged without re-applying (Deduped in the response), so
	// a client that lost the response to a timeout can retry the SAME
	// request safely — it applies exactly once. Seq must be >= 1 and
	// strictly increase per (fingerprint, client); the table survives
	// server restarts when the server runs durable. Unstamped edits
	// (empty client) keep the old at-least-once behavior.
	Client string `json:"client,omitempty"`
	Seq    uint64 `json:"seq,omitempty"`
}

// EditResponse is the outcome of POST /v1/edit: λ at the edited
// baseline (plus the critical cycles when requested), and the serving
// engine's cumulative statistics (Analyses vs IncrementalAnalyses
// shows the edit being answered by dirty-cone patching rather than
// re-simulation).
type EditResponse struct {
	Fingerprint string `json:"fingerprint"`
	Applied     int    `json:"applied"`
	// Deduped reports that the request's (client, seq) stamp was already
	// applied: nothing was re-applied (Applied is 0) and Lambda is the
	// current baseline — for a genuine retry, exactly the λ the lost
	// response carried.
	Deduped  bool            `json:"deduped,omitempty"`
	Lambda   Lambda          `json:"lambda"`
	Critical []CriticalCycle `json:"critical,omitempty"`
	Stats    EngineStats     `json:"stats"`
}

// MaxMCWorkers is the largest worker pool a /v1/mc request may ask
// for. Each worker is a goroutine with its own delay columns and
// working rows for as long as the request runs, so the cap bounds one
// request's goroutines and transient memory; nothing stays resident
// after it answers. Larger requests are refused, not clamped: answers
// are bit-identical only for a fixed (seed, workers) pair.
const MaxMCWorkers = 64

// MCRequest asks for a Monte-Carlo cycle-time analysis over the
// graph's delay distributions (its ~ annotations; with none, Jitter
// applies uniform ±Jitter to every delay).
type MCRequest struct {
	GraphRef
	Samples     int       `json:"samples,omitempty"`
	MinSamples  int       `json:"min_samples,omitempty"`
	Seed        uint64    `json:"seed,omitempty"`
	Quantiles   []float64 `json:"quantiles,omitempty"`
	Tol         float64   `json:"tol,omitempty"`
	Confidence  float64   `json:"confidence,omitempty"`
	Criticality bool      `json:"criticality,omitempty"`
	// Workers bounds the engine's Monte-Carlo worker pool, at most
	// MaxMCWorkers. Results are bit-identical for a fixed (seed,
	// workers) pair; clients needing reproducibility across machines
	// should pin it.
	Workers int `json:"workers,omitempty"`
	// Jitter applies a uniform ±Jitter fractional delay model when the
	// graph carries no distribution annotations.
	Jitter float64 `json:"jitter,omitempty"`
}

// QuantileEstimate is one λ quantile estimate on the wire. CIHalf is
// -1 when the run was too short to estimate a confidence interval
// (the in-process estimators report +Inf there, which JSON cannot
// carry); MCResponse.MeanCIHalf uses the same sentinel.
type QuantileEstimate struct {
	P      float64 `json:"p"`
	Value  float64 `json:"value"`
	CIHalf float64 `json:"ci_half"`
}

// MCResponse is the outcome of POST /v1/mc.
type MCResponse struct {
	Fingerprint string             `json:"fingerprint"`
	Samples     int                `json:"samples"`
	Converged   bool               `json:"converged"`
	Mean        float64            `json:"mean"`
	Variance    float64            `json:"variance"`
	Std         float64            `json:"std"`
	Min         float64            `json:"min"`
	Max         float64            `json:"max"`
	MeanCIHalf  float64            `json:"mean_ci_half"`
	Quantiles   []QuantileEstimate `json:"quantiles,omitempty"`
	Criticality []float64          `json:"criticality,omitempty"`
}

// UploadResponse is the outcome of POST /v1/graphs: the fingerprint to
// reference the graph by, plus a structural summary.
type UploadResponse struct {
	Fingerprint string `json:"fingerprint"`
	Events      int    `json:"events"`
	Arcs        int    `json:"arcs"`
	Border      int    `json:"border"`
	// EngineCached reports whether the upload found the engine already
	// resident (a prior client uploaded the same graph).
	EngineCached bool `json:"engine_cached"`
}

// FingerprintResponse is the outcome of POST /v1/fingerprint: the
// canonical content fingerprint of the posted .tsg text, computed by
// parse + hash alone — no engine is compiled and nothing becomes
// resident. The cluster router uses it (or the equivalent in-process
// FingerprintText) to place a graph on its replica set without ever
// holding engine state itself.
type FingerprintResponse struct {
	Fingerprint string `json:"fingerprint"`
	Events      int    `json:"events"`
	Arcs        int    `json:"arcs"`
	Border      int    `json:"border"`
}

// HealthResponse is the outcome of GET /healthz.
type HealthResponse struct {
	OK        bool    `json:"ok"`
	Graphs    int     `json:"graphs"`
	UptimeSec float64 `json:"uptime_sec"`
}

// ErrorResponse carries a request failure; non-2xx responses encode it.
type ErrorResponse struct {
	Error string `json:"error"`
}
