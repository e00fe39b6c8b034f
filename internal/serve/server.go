package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tsg/internal/cycletime"
	"tsg/internal/dist"
	"tsg/internal/netlist"
	"tsg/internal/obs"
	"tsg/internal/sg"
	"tsg/internal/stat"
	"tsg/internal/store"
)

// Config tunes a Server.
type Config struct {
	// CacheBytes bounds the engine cache (estimated engine memory).
	// 0 selects DefaultCacheBytes; negative disables caching, making
	// every request pay a full parse + compile (the cold baseline of
	// the load experiments).
	CacheBytes int64
	// MaxBodyBytes bounds request bodies (default 32 MiB).
	MaxBodyBytes int64
	// Store, when set, makes the server durable: every upload body and
	// every committed edit is appended to the write-ahead log BEFORE it
	// is acknowledged, and Recover replays the log on boot so a killed
	// node comes back with its whole working set at bit-identical λ.
	// With no Store the server is a volatile cache, exactly as before.
	Store *store.Store
	// MaxConcurrent bounds concurrently executing requests per POST
	// endpoint; excess requests wait in a bounded queue or are shed with
	// 503 + Retry-After. 0 means unlimited (no admission control).
	MaxConcurrent int
	// MaxQueue bounds requests waiting per endpoint when MaxConcurrent
	// is saturated (default 4× MaxConcurrent). Waiters past the bound —
	// or whose deadline expires while waiting — are shed.
	MaxQueue int
	// RequestTimeout is the per-request deadline. It bounds admission
	// waiting and propagates as the request context into the engine's
	// cancellable analyses (Monte-Carlo, sensitivity sweeps), so an
	// admitted request never holds workers past its deadline. 0 means
	// no server-imposed deadline.
	RequestTimeout time.Duration
	// DisableObs turns the observability layer off entirely: no span
	// tracing, no metrics registry, /metrics and /debug/trace answer
	// 404. The OBS experiment uses this as the instrumentation-off
	// baseline when measuring overhead.
	DisableObs bool
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by
	// default: profiling endpoints on a production daemon are opt-in.
	EnablePprof bool
	// Version is stamped into the tsgserve_build_info gauge (and the
	// daemon's -version output); empty means "dev".
	Version string
}

// DefaultCacheBytes is the default engine-cache budget: enough for a
// few hundred interactive-scale graphs.
const DefaultCacheBytes = 1 << 30

// Server is the analysis service: an http.Handler serving the /v1
// query protocol on top of a shared engine cache.
type Server struct {
	cache    *Cache
	maxBody  int64
	start    time.Time
	mux      *http.ServeMux
	queries  [endpoints]atomic.Int64
	failures atomic.Int64

	// Durability (nil store = volatile server).
	store *store.Store
	// editMu serialises the edit commit path: dedupe check, WAL append
	// and engine apply happen under one hold, so WAL order is apply
	// order and a retried (client, seq) can never apply twice.
	editMu sync.Mutex
	// seqs is the exactly-once table: fingerprint → client → highest
	// applied sequence number. Guarded by editMu; rebuilt by Recover.
	seqs map[string]map[string]uint64

	// Overload protection.
	limits  [endpoints]*limiter
	timeout time.Duration
	sheds   [endpoints][shedReasons]atomic.Int64
	panics  atomic.Int64

	// Warm-restart accounting: engines recompiled and edits re-applied
	// by Recover, counted separately from request-driven compiles.
	warmGraphs atomic.Int64
	warmEdits  atomic.Int64

	// Observability (nil edge = Config.DisableObs; every span call is a
	// cheap nil no-op then). admWait is each endpoint's admission-wait
	// histogram, nil with observability off.
	edge    *obs.Edge
	admWait [endpoints]*obs.Histogram
}

// endpoint indices for the per-endpoint query counters.
const (
	epAnalyze = iota
	epSlacks
	epWhatIf
	epMC
	epUpload
	epEdit
	epFingerprint
	endpoints
)

var endpointNames = [endpoints]string{"analyze", "slacks", "whatif", "mc", "upload", "edit", "fingerprint"}

// New returns a Server ready to serve the protocol.
func New(cfg Config) *Server {
	cacheBytes := cfg.CacheBytes
	if cacheBytes == 0 {
		cacheBytes = DefaultCacheBytes
	}
	maxBody := cfg.MaxBodyBytes
	if maxBody <= 0 {
		maxBody = 32 << 20
	}
	s := &Server{
		cache:   NewCache(cacheBytes),
		maxBody: maxBody,
		start:   time.Now(),
		mux:     http.NewServeMux(),
		store:   cfg.Store,
		seqs:    map[string]map[string]uint64{},
		timeout: cfg.RequestTimeout,
	}
	if cfg.MaxConcurrent > 0 {
		maxQueue := cfg.MaxQueue
		if maxQueue <= 0 {
			maxQueue = 4 * cfg.MaxConcurrent
		}
		for ep := 0; ep < endpoints; ep++ {
			s.limits[ep] = newLimiter(cfg.MaxConcurrent, maxQueue)
		}
	}
	s.mux.HandleFunc("POST /v1/graphs", s.admit(epUpload, s.handleUpload))
	s.mux.HandleFunc("POST /v1/analyze", s.admit(epAnalyze, s.handleAnalyze))
	s.mux.HandleFunc("POST /v1/slacks", s.admit(epSlacks, s.handleSlacks))
	s.mux.HandleFunc("POST /v1/whatif", s.admit(epWhatIf, s.handleWhatIf))
	s.mux.HandleFunc("POST /v1/mc", s.admit(epMC, s.handleMC))
	s.mux.HandleFunc("POST /v1/edit", s.admit(epEdit, s.handleEdit))
	s.mux.HandleFunc("POST /v1/fingerprint", s.admit(epFingerprint, s.handleFingerprint))
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	if !cfg.DisableObs {
		s.installTelemetry(cfg.Version)
	}
	s.mux.HandleFunc("GET /metrics", s.edge.ServeMetrics)
	s.mux.HandleFunc("GET /debug/trace", s.edge.ServeTrace)
	s.installDebug(cfg.EnablePprof)
	return s
}

// ServeHTTP implements http.Handler: panic recovery outermost (a
// panicking handler costs one 500, never the daemon), then the body
// bound, then the request deadline (which admission waits and engine
// analyses both observe), then the routed handler behind its
// admission gate.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	if s.timeout > 0 {
		ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
		defer cancel()
		r = r.WithContext(ctx)
	}
	s.withRecovery(w, r, s.mux)
}

// Cache exposes the engine cache (the daemon's shutdown log and the
// load experiments read its statistics).
func (s *Server) Cache() *Cache { return s.cache }

// httpError is an error with a client-facing status code.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...interface{}) error {
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// writeJSON encodes a 200 response. An encode failure cannot rescind
// the implied 200, but it is at least counted — responses must be
// constructed JSON-encodable (finite floats; see sanitizeCI).
func (s *Server) writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.failures.Add(1)
	}
}

// sanitizeCI maps an undefined confidence half-width (±Inf/NaN — the
// stream estimators return +Inf below their minimum sample counts) to
// the wire sentinel -1, since JSON cannot carry non-finite numbers.
func sanitizeCI(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return -1
	}
	return v
}

// writeError encodes a failure response. Requests that ran out of
// deadline mid-analysis (the engine's cancellable loops return the
// context error) answer 503 + Retry-After like a shed request: the
// failure is the server's load, not the request, and the client's
// backoff retry is the right reaction to both. EVERY 503 this path
// writes carries Retry-After — including the pass-through-mode
// refusals of /v1/graphs and /v1/edit — so the backoff signal a
// failing-over router (or end client) keys on is uniform regardless
// of which layer shed the request.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	s.failures.Add(1)
	status := http.StatusInternalServerError
	var he *httpError
	if errors.As(err, &he) {
		status = he.status
	}
	var maxErr *http.MaxBytesError
	if errors.As(err, &maxErr) {
		status = http.StatusRequestEntityTooLarge
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		status = http.StatusServiceUnavailable
		err = fmt.Errorf("request deadline exceeded during analysis: %w", err)
	}
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", retryAfterSeconds)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(ErrorResponse{Error: err.Error()})
}

// writeErrorStatus encodes a failure with an explicit status, without
// the failure-counter side effect (callers count their own).
func (s *Server) writeErrorStatus(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(ErrorResponse{Error: msg})
}

// Decode reads a JSON request body into v under the protocol's decode
// contract, which tsgserved and tsgrouter share: unknown fields and
// data after the JSON value are refused. A body over its size cap
// fails with the *http.MaxBytesError (413); every other failure is the
// request's fault (400).
func Decode(body io.Reader, v any) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		// Only whitespace may follow the value.
		if _, err = dec.Token(); err == io.EOF {
			return nil
		}
		if err == nil {
			err = errors.New("data after the JSON value")
		}
	}
	var maxErr *http.MaxBytesError
	if errors.As(err, &maxErr) {
		return err
	}
	return badRequest("decoding request: %v", err)
}

// resolve turns a GraphRef into the cached entry serving it, compiling
// on first sight of inline graph text. On success the request's span
// tree is attributed to the graph's fingerprint and the entry's
// request counter ticks.
func (s *Server) resolve(ctx context.Context, ref GraphRef) (*Entry, bool, error) {
	ent, hit, err := s.resolveInner(ctx, ref)
	if err == nil {
		if s.edge != nil {
			id := ent.obsGraph.Load()
			if id == 0 {
				id = s.edge.Tracer.InternGraph(ent.Key)
				ent.obsGraph.Store(id)
			}
			obs.FromContext(ctx).SetGraphID(id)
		}
		ent.noteRequest()
	}
	return ent, hit, err
}

func (s *Server) resolveInner(ctx context.Context, ref GraphRef) (*Entry, bool, error) {
	if ref.Graph != "" {
		// Inline text pays a parse and possibly a compile — span it.
		sp := obs.LeafN(ctx, nameCacheLookup)
		defer sp.End()
		g, m, err := netlist.ReadTSGDist(strings.NewReader(ref.Graph))
		if err != nil {
			return nil, false, badRequest("parsing graph: %v", err)
		}
		key := ContentKey(g, m)
		ent, hit, err := s.cache.GetOrCompile(ctx, key, func() (*sg.Graph, *dist.Model, error) {
			return g, m, nil
		})
		if err != nil {
			// Compile failures of an inline graph (e.g. no border
			// events, so nothing repetitive to time) are defects of the
			// uploaded data, not of the server.
			return nil, false, badRequest("compiling graph: %v", err)
		}
		sp.SetTierN(lookupTier(hit))
		return ent, hit, nil
	}
	if ref.Fingerprint == "" {
		return nil, false, badRequest("request references no graph: set \"graph\" (.tsg text) or \"fingerprint\"")
	}
	// Fingerprint references resolve with one map read under the cache
	// mutex; a resident hit — the hottest operation the server has — is
	// deliberately not spanned. The cache hit/miss counters on /metrics
	// and the request tree's serve→engine spine carry the signal at a
	// fraction of the ring-record cost.
	ent := s.cache.Get(ref.Fingerprint)
	if ent == nil {
		return nil, false, &httpError{status: http.StatusNotFound,
			msg: fmt.Sprintf("no graph with fingerprint %s is resident: upload it (POST /v1/graphs) or inline it", ref.Fingerprint)}
	}
	return ent, true, nil
}

func lookupTier(hit bool) obs.Name {
	if hit {
		return tierHit
	}
	return tierMiss
}

// wireLambda converts an exact cycle time to its wire form.
func wireLambda(r stat.Ratio) Lambda {
	n := r.Normalize()
	return Lambda{Num: n.Num, Den: n.Den, Float: n.Float(), Text: n.String()}
}

func (s *Server) handleUpload(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	s.queries[epUpload].Add(1)
	if s.cache.Disabled() {
		// Honouring the upload would hand back a fingerprint that 404s
		// on its first use (nothing stays resident in pass-through
		// mode); fail the contract loudly instead.
		s.writeError(w, &httpError{status: http.StatusServiceUnavailable,
			msg: "the engine cache is disabled on this server; inline the graph (\"graph\" field) in each request instead of uploading"})
		return
	}
	text, err := readGraphBody(r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	ent, hit, err := s.resolve(ctx, GraphRef{Graph: text})
	if err != nil {
		s.writeError(w, err)
		return
	}
	// Durability before acknowledgement: the fingerprint this response
	// hands out must survive a crash, so the body is logged (once per
	// fingerprint) before the client learns it. A WAL failure fails the
	// upload — acknowledging an unlogged fingerprint would be a silent
	// durability lie.
	if s.store != nil && !s.store.HasGraph(ent.Key) {
		sp := obs.LeafN(ctx, nameWALAppend)
		sp.AnnotateN(keyBytes, uint64(len(text)))
		err := s.store.AppendGraph(ent.Key, []byte(text))
		sp.End()
		if err != nil {
			s.writeError(w, fmt.Errorf("persisting graph: %w", err))
			return
		}
	}
	s.writeJSON(w, UploadResponse{
		Fingerprint:  ent.Key,
		Events:       ent.Graph.NumEvents(),
		Arcs:         ent.Graph.NumArcs(),
		Border:       len(ent.Graph.BorderEvents()),
		EngineCached: hit,
	})
}

// readGraphBody extracts .tsg text from an upload-style request body:
// either a JSON {"graph": "..."} envelope or the raw .tsg bytes
// (curl --data-binary @graph.tsg), selected by Content-Type.
func readGraphBody(r *http.Request) (string, error) {
	var text string
	if strings.HasPrefix(r.Header.Get("Content-Type"), "application/json") {
		var req struct {
			Graph string `json:"graph"`
		}
		if err := Decode(r.Body, &req); err != nil {
			return "", err
		}
		text = req.Graph
	} else {
		b, err := io.ReadAll(r.Body)
		if err != nil {
			return "", err
		}
		text = string(b)
	}
	if strings.TrimSpace(text) == "" {
		return "", badRequest("empty graph upload")
	}
	return text, nil
}

// FingerprintText parses .tsg text (with optional ~dist/@group
// annotations) and returns its canonical content fingerprint — the
// cache/shard key — plus the parsed structural summary, without
// compiling anything. This is the in-process form of POST
// /v1/fingerprint; the cluster router calls it to place graphs on
// replica sets without ever building an engine.
func FingerprintText(text string) (fp string, events, arcs, border int, err error) {
	g, m, err := netlist.ReadTSGDist(strings.NewReader(text))
	if err != nil {
		return "", 0, 0, 0, fmt.Errorf("parsing graph: %w", err)
	}
	return ContentKey(g, m), g.NumEvents(), g.NumArcs(), len(g.BorderEvents()), nil
}

// handleFingerprint answers the graph's canonical fingerprint from a
// parse alone: no compile, no cache insertion, no WAL append. It works
// in every server mode (including pass-through, where uploads refuse),
// because it holds no state — it is a pure function of the body.
func (s *Server) handleFingerprint(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	s.queries[epFingerprint].Add(1)
	text, err := readGraphBody(r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	fp, events, arcs, border, err := FingerprintText(text)
	if err != nil {
		s.writeError(w, badRequest("%v", err))
		return
	}
	s.writeJSON(w, FingerprintResponse{Fingerprint: fp, Events: events, Arcs: arcs, Border: border})
}

func (s *Server) handleAnalyze(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	s.queries[epAnalyze].Add(1)
	var req AnalyzeRequest
	if err := Decode(r.Body, &req); err != nil {
		s.writeError(w, err)
		return
	}
	ent, hit, err := s.resolve(ctx, req.GraphRef)
	if err != nil {
		s.writeError(w, err)
		return
	}
	lam, critical, err := ent.Engine.SummaryCtx(ctx)
	if err != nil {
		s.writeError(w, err)
		return
	}
	resp := AnalyzeResponse{
		Fingerprint:  ent.Key,
		Lambda:       wireLambda(lam),
		EngineCached: hit,
	}
	for _, c := range critical {
		arcs := make([]int, len(c.Arcs))
		for i, a := range c.Arcs {
			arcs[i] = ent.Rank[a]
		}
		resp.Critical = append(resp.Critical, CriticalCycle{
			Events: ent.Graph.EventNames(c.Events),
			Arcs:   arcs,
			Length: c.Length,
			Period: c.Period,
		})
	}
	s.writeJSON(w, resp)
}

func (s *Server) handleSlacks(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	s.queries[epSlacks].Add(1)
	var req SlacksRequest
	if err := Decode(r.Body, &req); err != nil {
		s.writeError(w, err)
		return
	}
	ent, _, err := s.resolve(ctx, req.GraphRef)
	if err != nil {
		s.writeError(w, err)
		return
	}
	lam, err := ent.Engine.CycleTimeCtx(ctx)
	if err != nil {
		s.writeError(w, err)
		return
	}
	slacks, err := ent.Engine.SlacksCtx(ctx)
	if err != nil {
		s.writeError(w, err)
		return
	}
	resp := SlacksResponse{Fingerprint: ent.Key, Lambda: wireLambda(lam)}
	for _, sl := range slacks {
		a := ent.Graph.Arc(sl.Arc)
		resp.Slacks = append(resp.Slacks, ArcSlack{
			Arc:   ent.Rank[sl.Arc],
			From:  ent.Graph.Event(a.From).Name,
			To:    ent.Graph.Event(a.To).Name,
			Delay: a.Delay,
			Slack: sl.Slack,
			Tight: sl.Tight,
		})
	}
	s.writeJSON(w, resp)
}

func (s *Server) handleWhatIf(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	s.queries[epWhatIf].Add(1)
	var req WhatIfRequest
	if err := Decode(r.Body, &req); err != nil {
		s.writeError(w, err)
		return
	}
	if len(req.Queries) == 0 {
		s.writeError(w, badRequest("whatif request batches no queries"))
		return
	}
	ent, _, err := s.resolve(ctx, req.GraphRef)
	if err != nil {
		s.writeError(w, err)
		return
	}
	cands := make([]cycletime.WhatIf, len(req.Queries))
	for i, q := range req.Queries {
		if q.Arc < 0 || q.Arc >= len(ent.Canon) {
			s.writeError(w, badRequest("query %d: arc index %d out of range [0,%d)", i, q.Arc, len(ent.Canon)))
			return
		}
		if q.Delay < 0 || math.IsNaN(q.Delay) {
			s.writeError(w, badRequest("query %d: invalid delay %g", i, q.Delay))
			return
		}
		cands[i] = cycletime.WhatIf{Arc: ent.Canon[q.Arc], Delay: q.Delay}
		ent.touchArc(q.Arc)
	}
	// Queries are fully validated above; a sweep failure past this
	// point is the server's problem, not the client's (500) — except a
	// deadline expiry, which writeError maps to a retryable 503.
	lams, err := ent.Engine.SensitivitySweepCtx(ctx, cands)
	if err != nil {
		s.writeError(w, err)
		return
	}
	resp := WhatIfResponse{Fingerprint: ent.Key, Lambdas: make([]Lambda, len(lams))}
	for i, lam := range lams {
		resp.Lambdas[i] = wireLambda(lam)
	}
	resp.Stats = wireStats(ent.Engine.Stats())
	s.writeJSON(w, resp)
}

// wireStats converts engine counters to their wire form.
func wireStats(st cycletime.EngineStats) EngineStats {
	return EngineStats{
		Analyses:            st.Analyses,
		IncrementalAnalyses: st.IncrementalAnalyses,
		FastPathHits:        st.FastPathHits,
		TableAnswers:        st.TableAnswers,
		WindowedPass1:       st.WindowedPass1,
		SlabPass1:           st.SlabPass1,
		PatchFloods:         st.PatchFloods,
		LazyPass2Skips:      st.LazyPass2Skips,
		Pass2Runs:           st.Pass2Runs,
	}
}

// handleEdit commits delay edits to the graph's resident engine and
// returns λ at the new baseline — the server half of the edit→analyze
// loop. Edits are durable session state; in pass-through mode (cache
// disabled) there is no session to edit, so the request fails loudly,
// like uploads do.
func (s *Server) handleEdit(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	s.queries[epEdit].Add(1)
	if s.cache.Disabled() {
		s.writeError(w, &httpError{status: http.StatusServiceUnavailable,
			msg: "the engine cache is disabled on this server; edits need a resident engine session"})
		return
	}
	var req EditRequest
	if err := Decode(r.Body, &req); err != nil {
		s.writeError(w, err)
		return
	}
	if len(req.Edits) == 0 && !req.Reset {
		s.writeError(w, badRequest("edit request commits no edits and no reset"))
		return
	}
	ent, _, err := s.resolve(ctx, req.GraphRef)
	if err != nil {
		s.writeError(w, err)
		return
	}
	for i, ed := range req.Edits {
		if ed.Arc < 0 || ed.Arc >= len(ent.Canon) {
			s.writeError(w, badRequest("edit %d: arc index %d out of range [0,%d)", i, ed.Arc, len(ent.Canon)))
			return
		}
		if ed.Delay < 0 || math.IsNaN(ed.Delay) {
			s.writeError(w, badRequest("edit %d: invalid delay %g", i, ed.Delay))
			return
		}
	}
	if req.Client == "" && req.Seq != 0 {
		s.writeError(w, badRequest("edit sequence number %d without a client id", req.Seq))
		return
	}
	if req.Client != "" && req.Seq == 0 {
		s.writeError(w, badRequest("client %q stamped no sequence number (seq must be >= 1)", req.Client))
		return
	}
	for _, ed := range req.Edits {
		ent.touchArc(ed.Arc)
	}
	// Edits are fully validated; failures past this point are 500s.
	deduped, err := s.commitEdit(ctx, ent, &req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	// λ-only by default: CycleTime stops after pass 1, so a localized
	// edit is answered without any simulation; Criticals opts into the
	// winner re-simulation of the lazy pass 2.
	resp := EditResponse{Fingerprint: ent.Key, Deduped: deduped}
	if !deduped {
		resp.Applied = len(req.Edits)
	}
	if req.Criticals {
		lam, critical, err := ent.Engine.SummaryCtx(ctx)
		if err != nil {
			s.writeError(w, err)
			return
		}
		resp.Lambda = wireLambda(lam)
		for _, c := range critical {
			arcs := make([]int, len(c.Arcs))
			for i, a := range c.Arcs {
				arcs[i] = ent.Rank[a]
			}
			resp.Critical = append(resp.Critical, CriticalCycle{
				Events: ent.Graph.EventNames(c.Events),
				Arcs:   arcs,
				Length: c.Length,
				Period: c.Period,
			})
		}
	} else {
		lam, err := ent.Engine.CycleTimeCtx(ctx)
		if err != nil {
			s.writeError(w, err)
			return
		}
		resp.Lambda = wireLambda(lam)
	}
	resp.Stats = wireStats(ent.Engine.Stats())
	s.writeJSON(w, resp)
}

// commitEdit is the serialised commit path of a validated edit:
// duplicate detection, write-ahead logging and engine application
// under one editMu hold, so the WAL's record order is the engines'
// apply order (replay is then trivially equivalent) and a retried
// (client, seq) pair applies exactly once.
//
// The dedupe contract: a request stamped with a (client, seq) the
// server has already applied is acknowledged without re-applying —
// deduped=true, and the caller answers λ at the CURRENT baseline.
// Since the client package only retries an edit it never saw
// acknowledged, and stamps the retry with the same seq, the duplicate
// can only be the immediately preceding edit — whose post-state is the
// current baseline — so the retried response equals the lost one.
func (s *Server) commitEdit(ctx context.Context, ent *Entry, req *EditRequest) (deduped bool, err error) {
	s.editMu.Lock()
	defer s.editMu.Unlock()
	if req.Client != "" {
		if req.Seq <= s.seqs[ent.Key][req.Client] {
			return true, nil
		}
	}
	if s.store != nil {
		sp := obs.LeafN(ctx, nameWALAppend)
		sp.AnnotateN(keyEdits, uint64(len(req.Edits)))
		defer sp.End()
		// An edit is session state against a fingerprint: for replay to
		// re-apply it, the body must be in the log too. Inline-text
		// sessions (never uploaded) get a canonical re-serialisation of
		// the entry's graph + model logged on their first durable edit.
		if !s.store.HasGraph(ent.Key) {
			var b strings.Builder
			if err := netlist.WriteTSGDist(&b, ent.Graph, ent.Model); err != nil {
				return false, fmt.Errorf("serialising graph for the log: %w", err)
			}
			if err := s.store.AppendGraph(ent.Key, []byte(b.String())); err != nil {
				return false, fmt.Errorf("persisting graph: %w", err)
			}
		}
		rec := store.Edit{
			Fingerprint: ent.Key,
			Reset:       req.Reset,
			Client:      req.Client,
			Seq:         req.Seq,
		}
		for _, ed := range req.Edits {
			rec.Edits = append(rec.Edits, store.EditDelta{Arc: ed.Arc, Delay: ed.Delay})
		}
		// Write-ahead: the edit is logged before it is applied, so an
		// acknowledged edit is never lost — and an edit lost to a crash
		// here was never acknowledged (the request fails with 500 and the
		// client's retry re-commits it under the same seq).
		if err := s.store.AppendEdit(rec); err != nil {
			return false, fmt.Errorf("persisting edit: %w", err)
		}
	}
	if req.Reset {
		ent.Engine.ResetDelays()
	}
	for _, ed := range req.Edits {
		if err := ent.Engine.SetDelay(ent.Canon[ed.Arc], ed.Delay); err != nil {
			return false, err
		}
	}
	if req.Client != "" {
		m := s.seqs[ent.Key]
		if m == nil {
			m = map[string]uint64{}
			s.seqs[ent.Key] = m
		}
		m[req.Client] = req.Seq
	}
	return false, nil
}

func (s *Server) handleMC(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	s.queries[epMC].Add(1)
	var req MCRequest
	if err := Decode(r.Body, &req); err != nil {
		s.writeError(w, err)
		return
	}
	// Option validation up front, so an engine failure below is a
	// genuine 500 rather than a misclassified client error.
	if req.Samples < 0 || req.MinSamples < 0 || req.Workers < 0 {
		s.writeError(w, badRequest("negative sample/worker counts"))
		return
	}
	if req.Workers > MaxMCWorkers {
		s.writeError(w, badRequest("workers %d above the limit of %d", req.Workers, MaxMCWorkers))
		return
	}
	if req.Tol < 0 || math.IsNaN(req.Tol) || req.Jitter < 0 || math.IsNaN(req.Jitter) {
		s.writeError(w, badRequest("invalid tol %g or jitter %g", req.Tol, req.Jitter))
		return
	}
	if req.Confidence != 0 && (req.Confidence <= 0 || req.Confidence >= 1) {
		s.writeError(w, badRequest("confidence %g outside (0, 1)", req.Confidence))
		return
	}
	for _, q := range req.Quantiles {
		if q <= 0 || q >= 1 {
			s.writeError(w, badRequest("quantile %g outside (0, 1)", q))
			return
		}
	}
	ent, _, err := s.resolve(ctx, req.GraphRef)
	if err != nil {
		s.writeError(w, err)
		return
	}
	model := ent.Model
	if model.Deterministic() && req.Jitter > 0 {
		nominal := make([]float64, ent.Graph.NumArcs())
		for i := range nominal {
			nominal[i] = ent.Graph.Arc(i).Delay
		}
		model, err = dist.JitterUniform(nominal, req.Jitter)
		if err != nil {
			s.writeError(w, badRequest("jitter model: %v", err))
			return
		}
	}
	res, err := ent.Engine.AnalyzeMCCtx(ctx, model, cycletime.MCOptions{
		Samples:     req.Samples,
		MinSamples:  req.MinSamples,
		Seed:        req.Seed,
		Quantiles:   req.Quantiles,
		Tol:         req.Tol,
		Confidence:  req.Confidence,
		Criticality: req.Criticality,
		Workers:     req.Workers,
	})
	if err != nil {
		s.writeError(w, err)
		return
	}
	var criticality []float64
	if res.Criticality != nil {
		criticality = make([]float64, len(res.Criticality))
		for k, i := range ent.Canon {
			criticality[k] = res.Criticality[i]
		}
	}
	resp := MCResponse{
		Fingerprint: ent.Key,
		Samples:     res.Samples,
		Converged:   res.Converged,
		Mean:        res.Mean,
		Variance:    res.Variance,
		Std:         res.Std,
		Min:         res.Min,
		Max:         res.Max,
		MeanCIHalf:  sanitizeCI(res.MeanCIHalf),
		Criticality: criticality,
	}
	for _, q := range res.Quantiles {
		resp.Quantiles = append(resp.Quantiles, QuantileEstimate{P: q.P, Value: q.Value, CIHalf: sanitizeCI(q.CIHalf)})
	}
	s.writeJSON(w, resp)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	st := s.cache.Stats()
	s.writeJSON(w, HealthResponse{
		OK:        true,
		Graphs:    st.Entries,
		UptimeSec: time.Since(s.start).Seconds(),
	})
}
