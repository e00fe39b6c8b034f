package obs

import (
	"context"
	"encoding/json"
	"net/http"
	"runtime"
	"time"
)

// Edge is one daemon's HTTP observability edge: its span tracer and
// metrics registry, the <daemon>.<endpoint> request roots, the
// <prefix>_http_request_duration_seconds histogram those roots feed,
// the build-info and uptime gauges, and the /metrics and /debug/trace
// handlers. A daemon registers its own families on Registry and its
// own span-duration histograms with Route.
//
// A nil *Edge is observability turned off: StartRoot returns a nil
// span, so every span call under it is a no-op, and both handlers
// answer 404.
type Edge struct {
	Tracer   *Tracer
	Registry *Registry

	roots  []Name
	reqDur []*Histogram
	// routes maps a span name id to the histogram its ends observe. It
	// is written only while the daemon is being built and read by every
	// span End after that, so it needs no lock.
	routes map[uint32]*Histogram
}

// NewEdge builds the edge of a daemon whose metric families are named
// prefix_* and whose request roots are daemon.<endpoint>, one per entry
// of endpoints; an endpoint's index there is its index in StartRoot and
// RequestDuration. version labels the build-info gauge ("dev" when
// empty).
func NewEdge(prefix, daemon string, endpoints []string, version string) *Edge {
	if version == "" {
		version = "dev"
	}
	start := time.Now()
	e := &Edge{
		Tracer:   NewTracer(DefaultRingSize),
		Registry: NewRegistry(),
		routes:   make(map[uint32]*Histogram),
	}
	reqDur := NewHistogramVec(prefix+"_http_request_duration_seconds", "Request latency at the daemon's HTTP edge, from the root span's start to its end, by endpoint.", LatencyBuckets, "endpoint")
	for _, ep := range endpoints {
		name, h := N(daemon+"."+ep), reqDur.With(ep)
		e.roots = append(e.roots, name)
		e.reqDur = append(e.reqDur, h)
		e.Route(name, h)
	}
	// Span ends feed the duration histograms, so every duration metric
	// rides the clock reads the tracer already pays: one map hit per
	// span End, no clock read of the daemon's own.
	e.Tracer.OnEnd(func(name uint32, seconds float64) {
		if h := e.routes[name]; h != nil {
			h.Observe(seconds)
		}
	})
	e.Registry.MustRegister(
		reqDur,
		GaugeFunc(prefix+"_build_info", "Build metadata; the value is always 1.", []string{"version", "goversion"}, func(emit func([]string, float64)) {
			emit([]string{version, runtime.Version()}, 1)
		}),
		GaugeFunc(prefix+"_uptime_seconds", "Seconds since the daemon started.", nil, func(emit func([]string, float64)) {
			emit(nil, time.Since(start).Seconds())
		}),
	)
	return e
}

// Route makes every End of a span named name observe its duration into
// h. It must be called before the daemon serves traffic.
func (e *Edge) Route(name Name, h *Histogram) { e.routes[uint32(name)] = h }

// StartRoot begins the root span of a request to endpoint ep. On a nil
// Edge it returns ctx and a nil span.
func (e *Edge) StartRoot(ctx context.Context, ep int) (context.Context, *Span) {
	if e == nil {
		return ctx, nil
	}
	return e.Tracer.StartRoot(ctx, e.roots[ep])
}

// RequestDuration is endpoint ep's request-duration histogram.
func (e *Edge) RequestDuration(ep int) *Histogram { return e.reqDur[ep] }

// ServeMetrics renders the registry in Prometheus text exposition
// format: HELP and TYPE on every family, counters suffixed _total,
// histograms with cumulative le buckets (Lint parses it back).
func (e *Edge) ServeMetrics(w http.ResponseWriter, r *http.Request) {
	if e == nil {
		disabled(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = e.Registry.WritePrometheus(w)
}

// ServeTrace serves the span ring: every record it still holds, as
// JSON span records whose parent ids link the trees (BuildTrees
// reassembles them). ?graph=<fingerprint> keeps only the traces that
// touched that graph; ?format=tree renders the indented text form of
// WriteTree instead.
func (e *Edge) ServeTrace(w http.ResponseWriter, r *http.Request) {
	if e == nil {
		disabled(w)
		return
	}
	spans := e.Tracer.SnapshotGraph(r.URL.Query().Get("graph"))
	if r.URL.Query().Get("format") == "tree" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		WriteTree(w, spans)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(struct {
		Recorded uint64       `json:"recorded_total"`
		Spans    []SpanRecord `json:"spans"`
	}{Recorded: e.Tracer.Recorded(), Spans: spans})
}

// disabled answers a request to an observability endpoint of a daemon
// running without one, in the protocol's error shape.
func disabled(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusNotFound)
	_, _ = w.Write([]byte(`{"error":"observability disabled on this daemon (Config.DisableObs)"}` + "\n"))
}
