package serve

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"sort"

	"tsg/internal/obs"
)

// enginePhases is the closed set of engine span names feeding the
// tsgserve_engine_phase_seconds histogram (through the edge's OnEnd
// routes). A new engine.* span name must be added here to be observed —
// the routes match pre-interned ids, not string prefixes, to stay off
// the allocation path.
var enginePhases = []string{
	"compile", "answer", "sweep", "pass1", "pass2", "patch", "slackcert", "rows", "mc",
}

// installTelemetry builds the server's observability edge and registers
// the families that are the server's own: the pre-existing atomic
// counters on Server/Cache stay the single source of truth — the
// registry reads them through obs.Func collectors at scrape time — so
// instrumentation adds histograms and spans without duplicating any
// bookkeeping.
func (s *Server) installTelemetry(version string) {
	e := obs.NewEdge("tsgserve", "serve", endpointNames[:], version)
	admWait := obs.NewHistogramVec("tsgserve_admission_wait_seconds", "Time requests spent queued at the admission gate, by endpoint (admitted requests only).", obs.LatencyBuckets, "endpoint")
	phaseDur := obs.NewHistogramVec("tsgserve_engine_phase_seconds", "Engine phase durations observed through the span tracer, by phase (pass1, pass2, patch, slackcert, rows, compile, mc, answer, sweep).", obs.PhaseBuckets, "phase")
	for ep, name := range endpointNames {
		s.admWait[ep] = admWait.With(name)
	}
	for _, ph := range enginePhases {
		e.Route(obs.N("engine."+ph), phaseDur.With(ph))
	}
	s.edge = e
	e.Registry.MustRegister(
		obs.CounterFunc("tsgserve_http_requests_total", "Requests received, by endpoint.", []string{"endpoint"}, func(emit func([]string, float64)) {
			for i, name := range endpointNames {
				emit([]string{name}, float64(s.queries[i].Load()))
			}
		}),
		obs.CounterFunc("tsgserve_http_request_failures_total", "Requests answered with a non-2xx status.", nil, func(emit func([]string, float64)) {
			emit(nil, float64(s.failures.Load()))
		}),
		obs.GaugeFunc("tsgserve_http_in_flight_requests", "Requests currently executing (admitted, handler not yet returned), by endpoint.", []string{"endpoint"}, func(emit func([]string, float64)) {
			// Derived, not maintained: started (queries, bumped at handler
			// entry) minus finished (request-duration observations, made
			// when the root span ends) — no per-request gauge updates on
			// the hot path. Clamped against the benign race of a scrape
			// landing between the two counter reads.
			for i, name := range endpointNames {
				v := float64(s.queries[i].Load()) - float64(e.RequestDuration(i).Count())
				if v < 0 {
					v = 0
				}
				emit([]string{name}, v)
			}
		}),
		obs.CounterFunc("tsgserve_admission_sheds_total", "Requests shed by admission control with 503 + Retry-After, by endpoint and reason.", []string{"endpoint", "reason"}, func(emit func([]string, float64)) {
			for ep, name := range endpointNames {
				for rs, reason := range shedReasonNames {
					emit([]string{name, reason}, float64(s.sheds[ep][rs].Load()))
				}
			}
		}),
		obs.GaugeFunc("tsgserve_admission_queue_depth", "Requests currently waiting at the admission gate, by endpoint.", []string{"endpoint"}, func(emit func([]string, float64)) {
			for ep, name := range endpointNames {
				if lim := s.limits[ep]; lim != nil {
					emit([]string{name}, float64(lim.waiters.Load()))
				}
			}
		}),
		admWait,
		obs.CounterFunc("tsgserve_engine_cache_hits_total", "Requests served by a resident engine.", nil, func(emit func([]string, float64)) {
			emit(nil, float64(s.cache.Stats().Hits))
		}),
		obs.CounterFunc("tsgserve_engine_cache_misses_total", "Requests that had to compile (or join an in-flight compile).", nil, func(emit func([]string, float64)) {
			emit(nil, float64(s.cache.Stats().Misses))
		}),
		obs.CounterFunc("tsgserve_engine_compiles_total", "Engines compiled (singleflight dedups concurrent misses).", nil, func(emit func([]string, float64)) {
			emit(nil, float64(s.cache.Stats().Compiles))
		}),
		obs.CounterFunc("tsgserve_engine_flight_shared_total", "Misses that joined another request's in-flight compile.", nil, func(emit func([]string, float64)) {
			emit(nil, float64(s.cache.Stats().FlightShared))
		}),
		obs.CounterFunc("tsgserve_engine_cache_evictions_total", "Entries dropped to respect the cache byte budget.", nil, func(emit func([]string, float64)) {
			emit(nil, float64(s.cache.Stats().Evictions))
		}),
		obs.GaugeFunc("tsgserve_engine_cache_entries", "Graphs currently resident in the engine cache.", nil, func(emit func([]string, float64)) {
			emit(nil, float64(s.cache.Stats().Entries))
		}),
		obs.GaugeFunc("tsgserve_engine_cache_bytes", "Estimated bytes of resident engines.", nil, func(emit func([]string, float64)) {
			emit(nil, float64(s.cache.Stats().Bytes))
		}),
		obs.GaugeFunc("tsgserve_engine_analyses", "Analyses run by resident engines, split by mode: full re-simulation vs incremental dirty-cone patching after a committed edit. Gauge: evicted engines leave the aggregate.", []string{"mode"}, func(emit func([]string, float64)) {
			es := s.cache.AggregateEngineStats()
			emit([]string{"full"}, float64(es.Analyses))
			emit([]string{"incremental"}, float64(es.IncrementalAnalyses))
		}),
		obs.GaugeFunc("tsgserve_engine_fast_path_answers", "What-if queries answered without re-analysis, by kind. Gauge: evicted engines leave the aggregate.", []string{"kind"}, func(emit func([]string, float64)) {
			es := s.cache.AggregateEngineStats()
			emit([]string{"certificate"}, float64(es.FastPathHits))
			emit([]string{"whatif_row"}, float64(es.TableAnswers))
		}),
		obs.GaugeFunc("tsgserve_engine_pass1_kernel", "Pass-1 runs by resident engines, split by kernel: rolling window (origin lanes, every pass 1 of a fresh session) vs full trace slabs (sessions that have committed an edit retain them for incremental patching). Gauge: evicted engines leave the aggregate.", []string{"kernel"}, func(emit func([]string, float64)) {
			es := s.cache.AggregateEngineStats()
			emit([]string{"window"}, float64(es.WindowedPass1))
			emit([]string{"slab"}, float64(es.SlabPass1))
		}),
		obs.GaugeFunc("tsgserve_engine_patch_floods", "Incremental patches whose dirty cone hit the flood bail-out, across resident engines. Gauge: evicted engines leave the aggregate.", nil, func(emit func([]string, float64)) {
			emit(nil, float64(s.cache.AggregateEngineStats().PatchFloods))
		}),
		obs.GaugeFunc("tsgserve_engine_lazy_pass2", "Pass-2 outcomes across resident engines: runs that extracted critical cycles vs certificates dropped by an edit before pass 2 ever ran. Gauge: evicted engines leave the aggregate.", []string{"outcome"}, func(emit func([]string, float64)) {
			es := s.cache.AggregateEngineStats()
			emit([]string{"ran"}, float64(es.Pass2Runs))
			emit([]string{"skipped"}, float64(es.LazyPass2Skips))
		}),
		phaseDur,
		obs.GaugeFunc("tsgserve_graph_requests", "Requests served per resident graph, by fingerprint. Gauge: evicted graphs leave.", []string{"graph"}, func(emit func([]string, float64)) {
			for _, ent := range s.cache.Resident() {
				emit([]string{ent.Key}, float64(ent.Requests()))
			}
		}),
		obs.GaugeFunc("tsgserve_hot_arc_touches", "What-if and edit arc touches per resident graph (summed over arcs; per-arc detail at /debug/hotarcs). Gauge: evicted graphs leave.", []string{"graph"}, func(emit func([]string, float64)) {
			for _, ent := range s.cache.Resident() {
				_, total := ent.hotSummary()
				emit([]string{ent.Key}, float64(total))
			}
		}),
		obs.CounterFunc("tsgserve_panics_total", "Handler panics recovered to a 500 instead of killing the daemon.", nil, func(emit func([]string, float64)) {
			emit(nil, float64(s.panics.Load()))
		}),
		obs.CounterFunc("tsgserve_warm_restart_graphs_total", "Engines recompiled from the write-ahead log on boot (counted separately from request-driven compiles).", nil, func(emit func([]string, float64)) {
			emit(nil, float64(s.warmGraphs.Load()))
		}),
		obs.CounterFunc("tsgserve_warm_restart_edits_total", "Edit records re-applied from the write-ahead log on boot.", nil, func(emit func([]string, float64)) {
			emit(nil, float64(s.warmEdits.Load()))
		}),
	)
	if s.store != nil {
		walDur := obs.NewHistogram("tsgserve_wal_append_seconds", "Write-ahead-log append latency including the fsync, per durable record.", obs.LatencyBuckets)
		walBytes := obs.NewCounter("tsgserve_wal_appended_bytes_total", "Bytes appended to the write-ahead log (framed records).")
		e.Registry.MustRegister(
			obs.GaugeFunc("tsgserve_wal_bytes", "Current write-ahead log size on disk.", nil, func(emit func([]string, float64)) {
				emit(nil, float64(s.store.Size()))
			}),
			obs.CounterFunc("tsgserve_wal_compaction_runs_total", "Write-ahead log compactions.", nil, func(emit func([]string, float64)) {
				emit(nil, float64(s.store.Compactions()))
			}),
			walDur, walBytes,
		)
		s.store.SetSyncObserver(func(bytes int, seconds float64) {
			walDur.Observe(seconds)
			walBytes.Add(uint64(bytes))
		})
	}
}

// installDebug mounts the live-introspection endpoints. pprof is opt-in
// (Config.EnablePprof): heap and CPU profiles of a production daemon
// are a deliberate decision, not a default.
func (s *Server) installDebug(enablePprof bool) {
	s.mux.HandleFunc("GET /debug/cache", s.handleDebugCache)
	s.mux.HandleFunc("GET /debug/hotarcs", s.handleDebugHotArcs)
	if enablePprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
}

// debugCacheEntry is one resident graph in the /debug/cache reply.
type debugCacheEntry struct {
	Fingerprint string `json:"fingerprint"`
	Events      int    `json:"events"`
	Arcs        int    `json:"arcs"`
	CostBytes   int64  `json:"cost_bytes"`
	Requests    int64  `json:"requests"`
}

// handleDebugCache serves the engine cache's live state: the counter
// snapshot plus every resident entry in LRU order (most recent first).
func (s *Server) handleDebugCache(w http.ResponseWriter, r *http.Request) {
	st := s.cache.Stats()
	entries := []debugCacheEntry{}
	for _, ent := range s.cache.Resident() {
		entries = append(entries, debugCacheEntry{
			Fingerprint: ent.Key,
			Events:      ent.Graph.NumEvents(),
			Arcs:        ent.Graph.NumArcs(),
			CostBytes:   ent.CostBytes(),
			Requests:    ent.Requests(),
		})
	}
	s.writeJSON(w, struct {
		Stats   CacheStats        `json:"stats"`
		Entries []debugCacheEntry `json:"entries"`
	}{Stats: st, Entries: entries})
}

// hotArcReport is one graph's touch counts in the /debug/hotarcs reply.
type hotArcReport struct {
	Fingerprint string     `json:"fingerprint"`
	Requests    int64      `json:"requests"`
	Touches     int64      `json:"touches_total"`
	Arcs        []arcTouch `json:"arcs"`
}

// arcTouch is one canonical arc's touch count.
type arcTouch struct {
	Arc     int   `json:"arc"` // canonical rank, the wire index space
	Touches int64 `json:"touches"`
}

// handleDebugHotArcs reports which arcs the what-if and edit traffic
// actually exercises, per resident graph — the serving-layer view of
// where the interactive optimisation loop is spending its attention.
// ?top=N bounds the per-graph arc list (default 20, 0 = all).
func (s *Server) handleDebugHotArcs(w http.ResponseWriter, r *http.Request) {
	top := 20
	if v := r.URL.Query().Get("top"); v != "" {
		if err := json.Unmarshal([]byte(v), &top); err != nil || top < 0 {
			s.writeErrorStatus(w, http.StatusBadRequest, "top must be a non-negative integer")
			return
		}
	}
	reports := []hotArcReport{}
	for _, ent := range s.cache.Resident() {
		touches, total := ent.hotSummary()
		rep := hotArcReport{
			Fingerprint: ent.Key,
			Requests:    ent.Requests(),
			Touches:     total,
			Arcs:        []arcTouch{},
		}
		for arc, n := range touches {
			rep.Arcs = append(rep.Arcs, arcTouch{Arc: arc, Touches: n})
		}
		sort.Slice(rep.Arcs, func(i, j int) bool {
			if rep.Arcs[i].Touches != rep.Arcs[j].Touches {
				return rep.Arcs[i].Touches > rep.Arcs[j].Touches
			}
			return rep.Arcs[i].Arc < rep.Arcs[j].Arc
		})
		if top > 0 && len(rep.Arcs) > top {
			rep.Arcs = rep.Arcs[:top]
		}
		reports = append(reports, rep)
	}
	s.writeJSON(w, struct {
		Graphs []hotArcReport `json:"graphs"`
	}{Graphs: reports})
}
