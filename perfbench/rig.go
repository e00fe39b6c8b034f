package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"tsg/client"
	"tsg/internal/cluster"
	"tsg/internal/cycletime"
	"tsg/internal/obs"
	"tsg/internal/serve"
	"tsg/internal/store"
)

// listener is one in-process HTTP server on a loopback port.
type listener struct {
	url  string
	hs   *http.Server
	done chan struct{}
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	l := &listener{url: "http://" + ln.Addr().String(), hs: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(l.done)
		_ = l.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return l, nil
}

// close stops the server and waits for its accept loop to exit.
func (l *listener) close() {
	_ = l.hs.Close()
	<-l.done
}

// backend is one serve.Server (a tsgserved with daemon defaults).
type backend struct {
	srv *serve.Server
	h   http.Handler // srv, wrapped when traced
	st  *store.Store
	l   *listener
}

// rig is the serving topology: backends behind one cluster router, all
// in this process on loopback ports.
type rig struct {
	backends []*backend
	urls     []string
	router   *cluster.Router
	front    *listener
	tr       *tracer // nil in untraced runs: no wrapper is installed
	dataDir  string
}

// placementTries bounds how often bootRig re-draws the backends' ports
// looking for a placement the workload accepts.
const placementTries = 500

// bootRig starts nodes backends (durable ones keep a WAL under
// dataRoot) and a router with default settings in front of them. With
// tr set, every layer boundary is wrapped for the ledger. Placement
// hashes the backends' URLs, and their ports are the kernel's choice;
// when accept is set, the backends move to fresh ports until the
// placement it sees is one it accepts, so every run serves the same
// shape of topology.
func bootRig(nodes int, durable bool, dataRoot string, tr *tracer, accept func(urls []string) bool) (r *rig, err error) {
	r = &rig{tr: tr}
	defer func() {
		if err != nil {
			r.close()
			r = nil
		}
	}()
	if durable {
		if err := os.MkdirAll(dataRoot, 0o755); err != nil {
			return r, fmt.Errorf("creating data root: %w", err)
		}
		if r.dataDir, err = os.MkdirTemp(dataRoot, "rig-*"); err != nil {
			return r, fmt.Errorf("creating data dir: %w", err)
		}
	}
	for i := 0; i < nodes; i++ {
		b := &backend{}
		cfg := serve.Config{}
		if durable {
			st, _, err := store.Open(filepath.Join(r.dataDir, fmt.Sprintf("node%d", i)), store.Options{})
			if err != nil {
				return r, fmt.Errorf("opening node store: %w", err)
			}
			b.st, cfg.Store = st, st
		}
		b.srv = serve.New(cfg)
		b.h = b.srv
		if tr != nil {
			b.h = &backendHandler{t: tr, next: b.srv}
		}
		r.backends = append(r.backends, b)
		if b.l, err = listen(b.h); err != nil {
			return r, err
		}
		r.urls = append(r.urls, b.l.url)
	}
	for try := 0; accept != nil && !accept(r.urls); try++ {
		if try == placementTries {
			return r, fmt.Errorf("no accepted placement in %d port draws", placementTries)
		}
		for i, b := range r.backends {
			b.l.close()
			if b.l, err = listen(b.h); err != nil {
				return r, err
			}
			r.urls[i] = b.l.url
		}
	}
	// The router's span tracer stays off: under hedged reads a losing
	// attempt can start a span after its request's root span went back
	// to the pool, a nil dereference in obs.begin that kills the process.
	// Everything else is the router's default.
	cfg := cluster.Config{Nodes: r.urls, DisableObs: true}
	if tr != nil {
		cfg.HTTPClient = &http.Client{Transport: &hopTransport{t: tr, base: http.DefaultTransport}}
	}
	if r.router, err = cluster.New(cfg); err != nil {
		return r, fmt.Errorf("building router: %w", err)
	}
	r.router.Start()
	var h http.Handler = r.router
	if tr != nil {
		h = &routerHandler{t: tr, next: r.router}
	}
	r.front, err = listen(h)
	return r, err
}

func (r *rig) close() {
	if r.front != nil {
		r.front.close()
	}
	if r.router != nil {
		r.router.Stop()
	}
	for _, b := range r.backends {
		if b.l != nil {
			b.l.close()
		}
		if b.st != nil {
			_ = b.st.Close()
		}
	}
	if r.dataDir != "" {
		_ = os.RemoveAll(r.dataDir)
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

// senderClient is one load-generator connection to the router: at most
// one connection, no client-side retries (a failure is counted, not
// hidden).
func (r *rig) senderClient() *client.Client {
	var rt http.RoundTripper = &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	if r.tr != nil {
		rt = &senderTransport{t: r.tr, base: rt}
	}
	return client.New(r.front.url,
		client.WithHTTPClient(&http.Client{Transport: rt, Timeout: 30 * time.Second}),
		client.WithRetryPolicy(client.RetryPolicy{}))
}

// direct is a client of one backend, bypassing the router.
func direct(url string) *client.Client {
	return client.New(url, client.WithRetryPolicy(client.RetryPolicy{}))
}

// counters is a snapshot of what the program already exports.
type counters struct {
	hits, misses  int64
	eng           cycletime.EngineStats
	phaseSec      map[string]float64
	walBuckets    map[float64]float64 // le -> cumulative count
	walBytes      float64
	hedgeAttempts uint64
	hedgeWins     uint64
}

func (r *rig) snapshot(ctx context.Context) (*counters, error) {
	c := &counters{phaseSec: map[string]float64{}, walBuckets: map[float64]float64{}}
	for _, b := range r.backends {
		cs := b.srv.Cache().Stats()
		c.hits += cs.Hits
		c.misses += cs.Misses
		es := b.srv.Cache().AggregateEngineStats()
		c.eng.Analyses += es.Analyses
		c.eng.IncrementalAnalyses += es.IncrementalAnalyses
		c.eng.FastPathHits += es.FastPathHits
		c.eng.TableAnswers += es.TableAnswers
		c.eng.WindowedPass1 += es.WindowedPass1
		c.eng.SlabPass1 += es.SlabPass1
		c.eng.PatchFloods += es.PatchFloods
		c.eng.Pass2Runs += es.Pass2Runs

		text, err := direct(b.l.url).Metrics(ctx)
		if err != nil {
			return nil, fmt.Errorf("scraping backend metrics: %w", err)
		}
		fams, _, err := obs.Parse(strings.NewReader(text))
		if err != nil {
			return nil, fmt.Errorf("parsing backend metrics: %w", err)
		}
		for _, f := range fams {
			for _, s := range f.Samples {
				switch s.Name {
				case "tsgserve_engine_phase_seconds_sum":
					c.phaseSec[s.Labels["phase"]] += s.Value
				case "tsgserve_wal_append_seconds_bucket":
					le, err := strconv.ParseFloat(s.Labels["le"], 64)
					if err == nil {
						c.walBuckets[le] += s.Value
					}
				case "tsgserve_wal_appended_bytes_total":
					c.walBytes += s.Value
				}
			}
		}
	}
	rec := httptest.NewRecorder()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, "/debug/cluster", nil)
	r.router.ServeHTTP(rec, req)
	var st cluster.ClusterStatus
	if err := json.NewDecoder(rec.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("reading router status: %w", err)
	}
	c.hedgeAttempts, c.hedgeWins = st.HedgeAttempts, st.HedgeWins
	return c, nil
}

// histP50 estimates the median of the observations a cumulative
// histogram gained between two snapshots, interpolating inside the
// bucket that holds it. It returns seconds, or 0 with no observations.
func histP50(before, after map[float64]float64) float64 {
	les := make([]float64, 0, len(after))
	for le := range after {
		les = append(les, le)
	}
	sort.Float64s(les)
	if len(les) == 0 {
		return 0
	}
	total := after[les[len(les)-1]] - before[les[len(les)-1]]
	if total <= 0 {
		return 0
	}
	target := total / 2
	prevLE, prevCum := 0.0, 0.0
	for _, le := range les {
		cum := after[le] - before[le]
		if cum >= target {
			if le > 1e300 { // the +Inf bucket: report its lower edge
				return prevLE
			}
			return prevLE + (le-prevLE)*(target-prevCum)/(cum-prevCum)
		}
		prevLE, prevCum = le, cum
	}
	return prevLE
}
