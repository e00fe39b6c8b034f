package cluster

import (
	"context"
	crand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	mrand "math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tsg/client"
	"tsg/internal/obs"
	"tsg/internal/serve"
)

// Router endpoint indices, for counters and histogram labels.
const (
	rAnalyze = iota
	rSlacks
	rWhatIf
	rMC
	rUpload
	rEdit
	rFingerprint
	rEndpoints
)

var rEndpointNames = [rEndpoints]string{"analyze", "slacks", "whatif", "mc", "upload", "edit", "fingerprint"}

// Config tunes a Router. Nodes is the only required field.
type Config struct {
	// Nodes is the static backend pool: base URLs of tsgserved instances
	// (e.g. "http://127.0.0.1:7436"). Order is the stable node identity;
	// at least one is required, duplicates are rejected.
	Nodes []string

	// Replicas is each graph's replica-set size (default 2, clamped to
	// the pool size): writes pin to the first live member, reads balance
	// across all of them.
	Replicas int

	// ProbeInterval is the health-probe period per node (default 250ms).
	ProbeInterval time.Duration

	// FailThreshold ejects a node after this many consecutive failures,
	// probe or forwarded (default 3).
	FailThreshold int

	// ReadmitThreshold re-admits an ejected node after this many
	// consecutive successful probes (default 2). Re-admission lands the
	// breaker in half-open, not closed: BreakerCloseAfter further
	// successes finish recovery, one failure re-opens it.
	ReadmitThreshold int

	// BreakerThreshold trips a node's circuit breaker after this many
	// consecutive FORWARDED-REQUEST failures (default FailThreshold-1,
	// min 1 — deliberately tighter than the mixed probe threshold).
	// Probe successes never clear this streak: under an asymmetric
	// partition the probe path can stay perfect while every request
	// dies, and probes must not absolve request failures.
	BreakerThreshold int

	// BreakerCooldown is the minimum time a tripped breaker stays open
	// before clean probes can move it to half-open (default
	// 2×ProbeInterval): a flapping node pays a dwell between trips
	// instead of oscillating every probe round.
	BreakerCooldown time.Duration

	// BreakerCloseAfter closes a half-open breaker after this many
	// consecutive successes, probe or trial request (default 2).
	BreakerCloseAfter int

	// DisableHedge turns off hedged reads (reads fall back to pure
	// sequential failover; useful as an ablation and in experiments).
	DisableHedge bool

	// HedgeFrac is the hedge budget's per-read credit (default 0.05:
	// hedged attempts are bounded at ~5% of read traffic).
	HedgeFrac float64

	// RetryBudgetFrac is the retry budget's per-request credit (default
	// 0.1: failover/retry attempts beyond the first are bounded at ~10%
	// of traffic, so a partial outage cannot snowball into a retry
	// storm).
	RetryBudgetFrac float64

	// HopTimeout bounds one forwarded backend attempt (default 15s —
	// generous because MC and cold compiles are real work; the caller's
	// request context still cuts hops short when it expires).
	HopTimeout time.Duration

	// MaxBodyBytes caps request bodies at the router edge (default 8 MiB,
	// matching the serve layer).
	MaxBodyBytes int64

	// JournalCompactAt bounds the per-graph edit journal: past this many
	// entries it compacts to the last writer per arc (default 65536).
	JournalCompactAt int

	// DisableObs turns off tracing and metrics (the counters behind
	// /debug/cluster stay on — they are plain atomics).
	DisableObs bool

	// Version is reported in tsgrouter_build_info.
	Version string

	// Logf, when set, receives one line per topology event (ejections,
	// re-admissions, failovers). Nil silences them.
	Logf func(format string, args ...any)

	// HTTPClient, when set, is the shared transport for all backend
	// clients (tests inject httptest transports here).
	HTTPClient *http.Client
}

func (c *Config) fillDefaults() {
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 250 * time.Millisecond
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.ReadmitThreshold <= 0 {
		c.ReadmitThreshold = 2
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = c.FailThreshold - 1
		if c.BreakerThreshold < 1 {
			c.BreakerThreshold = 1
		}
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 2 * c.ProbeInterval
	}
	if c.BreakerCloseAfter <= 0 {
		c.BreakerCloseAfter = 2
	}
	if c.HedgeFrac <= 0 || c.HedgeFrac > 1 {
		c.HedgeFrac = 0.05
	}
	if c.RetryBudgetFrac <= 0 || c.RetryBudgetFrac > 1 {
		c.RetryBudgetFrac = 0.1
	}
	if c.HopTimeout <= 0 {
		c.HopTimeout = 15 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.JournalCompactAt <= 0 {
		c.JournalCompactAt = defaultJournalCompactAt
	}
}

// Router is the stateless distributed front end: it speaks the same
// /v1 protocol as one tsgserved, shards graphs across the backend pool
// by rendezvous-hashed fingerprint, fans reads out across each graph's
// replica set, pins writes to the primary, and keeps replicas
// convergent through its write journal. "Stateless" means: everything
// the router holds (journals, marks, health) is reconstructible from
// traffic plus the backends' own WALs — losing the router loses no
// committed state.
type Router struct {
	cfg   Config
	pool  atomic.Pointer[nodePool] // copy-on-write membership snapshot
	mux   *http.ServeMux
	tel   *telemetry
	start time.Time

	// lat is the router-wide successful-hop latency digest the adaptive
	// hedge delay derives from.
	lat latencyDigest

	// retryBudget bounds attempts beyond the first (failover, resync
	// retries); hedgeBudget bounds hedge launches. See budget.go.
	retryBudget *tokenBucket
	hedgeBudget *tokenBucket

	// Router-stamped writes: unstamped client edits get an idempotency
	// stamp here so replication and dedupe work end to end for them too.
	clientID string
	seq      atomic.Uint64

	mu     sync.Mutex
	graphs map[string]*graphState

	queries           [rEndpoints]atomic.Uint64
	failures          atomic.Uint64
	failovers         atomic.Uint64
	syncReplays       atomic.Uint64
	replOK            atomic.Uint64
	replFail          atomic.Uint64
	dedupes           atomic.Uint64
	warmSyncs         atomic.Uint64
	hedgeAttempts     atomic.Uint64
	hedgeWins         atomic.Uint64
	hedgeDenied       atomic.Uint64
	retryDenied       atomic.Uint64
	membershipReloads atomic.Uint64

	// lifecycleMu guards probeCancel/probeCtx/nextNodeID across
	// Start/Stop/ReloadNodes (any may be called from any goroutine; Stop
	// holds it through the drain so a concurrent Start cannot Add to
	// probeWG mid-Wait).
	lifecycleMu sync.Mutex
	probeCancel context.CancelFunc
	probeCtx    context.Context
	probeWG     sync.WaitGroup
	nextNodeID  int
}

// New builds a Router over the configured pool. Probing starts with
// Start; until then health state is the optimistic boot value (all
// nodes routable).
func New(cfg Config) (*Router, error) {
	cfg.fillDefaults()
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("cluster: Config.Nodes must list at least one backend")
	}
	r := &Router{
		cfg:         cfg,
		graphs:      make(map[string]*graphState),
		mux:         http.NewServeMux(),
		start:       time.Now(),
		retryBudget: newTokenBucket(20, cfg.RetryBudgetFrac),
		hedgeBudget: newTokenBucket(8, cfg.HedgeFrac),
	}
	var id [6]byte
	if _, err := crand.Read(id[:]); err == nil {
		r.clientID = "router-" + hex.EncodeToString(id[:])
	} else {
		r.clientID = fmt.Sprintf("router-%d", time.Now().UnixNano())
	}
	var edge *obs.Edge // nil: /metrics and /debug/trace answer 404
	if !cfg.DisableObs {
		// Telemetry first: newNode attaches each node's hop histogram.
		// The registry closures read r.pool lazily at scrape time.
		r.tel = newTelemetry(r, cfg.Version)
		edge = r.tel.edge
	}
	p := &nodePool{byURL: make(map[string]*node, len(cfg.Nodes))}
	for i, raw := range cfg.Nodes {
		url := strings.TrimRight(raw, "/")
		if url == "" {
			return nil, fmt.Errorf("cluster: node %d: empty URL", i)
		}
		if _, dup := p.byURL[url]; dup {
			return nil, fmt.Errorf("cluster: node %q listed twice", url)
		}
		n := r.newNode(r.nextNodeID, url)
		r.nextNodeID++
		p.nodes = append(p.nodes, n)
		p.byURL[url] = n
	}
	r.pool.Store(p)

	r.mux.HandleFunc("POST /v1/graphs", r.instrument(rUpload, r.handleUpload))
	r.mux.HandleFunc("POST /v1/fingerprint", r.instrument(rFingerprint, r.handleFingerprint))
	r.mux.HandleFunc("POST /v1/analyze", r.instrument(rAnalyze, r.handleRead))
	r.mux.HandleFunc("POST /v1/slacks", r.instrument(rSlacks, r.handleRead))
	r.mux.HandleFunc("POST /v1/whatif", r.instrument(rWhatIf, r.handleRead))
	r.mux.HandleFunc("POST /v1/mc", r.instrument(rMC, r.handleRead))
	r.mux.HandleFunc("POST /v1/edit", r.instrument(rEdit, r.handleEdit))
	r.mux.HandleFunc("GET /healthz", r.handleHealthz)
	r.mux.HandleFunc("GET /metrics", edge.ServeMetrics)
	r.mux.HandleFunc("GET /debug/cluster", r.handleDebugCluster)
	r.mux.HandleFunc("GET /debug/trace", edge.ServeTrace)
	return r, nil
}

// newNode builds one pool member (boot state: closed breaker, healthy —
// a router must be routable before its first probe round completes).
// Callers hand out monotonically increasing ids so a node removed and
// later re-added never aliases stale sync marks.
func (r *Router) newNode(id int, url string) *node {
	// No in-hop retries: failover across replicas is the router's retry
	// policy, and a retry against a dead node only delays it.
	opts := []client.Option{client.WithRetryPolicy(client.RetryPolicy{})}
	probeOpts := []client.Option{client.WithRetryPolicy(client.RetryPolicy{})}
	if r.cfg.HTTPClient != nil {
		opts = append(opts, client.WithHTTPClient(r.cfg.HTTPClient))
		probeOpts = append(probeOpts, client.WithHTTPClient(r.cfg.HTTPClient))
	}
	opts = append(opts, client.WithTimeout(r.cfg.HopTimeout))
	probeOpts = append(probeOpts, client.WithTimeout(r.cfg.ProbeInterval*4))
	n := &node{
		id:          id,
		url:         url,
		cl:          client.New(url, opts...),
		probeClient: client.New(url, probeOpts...),
	}
	n.healthy.Store(true)
	n.lastTransition.Store(time.Now().UnixNano())
	if r.tel != nil {
		n.hopDur = r.tel.hopDur.With(strconv.Itoa(id))
	}
	return n
}

// Start launches the per-node health probe loops. Stop reverses it.
func (r *Router) Start() {
	r.lifecycleMu.Lock()
	defer r.lifecycleMu.Unlock()
	if r.probeCancel != nil {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	r.probeCancel = cancel
	r.probeCtx = ctx
	for _, n := range r.pool.Load().nodes {
		n := n
		r.probeWG.Add(1)
		go func() {
			defer r.probeWG.Done()
			r.probeLoop(ctx, n)
		}()
	}
}

// Stop halts probing and waits for the loops to exit. In-flight
// requests are not interrupted.
func (r *Router) Stop() {
	r.lifecycleMu.Lock()
	defer r.lifecycleMu.Unlock()
	if r.probeCancel == nil {
		return
	}
	r.probeCancel()
	r.probeCancel = nil
	r.probeCtx = nil
	r.probeWG.Wait()
}

func (r *Router) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}

// onEject runs when a node's breaker trips open: it leaves every
// placement (fingerprints re-hash to the survivors on the next
// request); nothing else to do here but say so.
func (r *Router) onEject(n *node) {
	r.logf("cluster: node %d (%s) breaker OPEN, epoch %d — its shard re-hashes to survivors", n.id, n.url, n.epoch.Load())
}

// onReadmit runs when the prober moves an open breaker to half-open:
// the node rejoins placements immediately (per-read syncs keep
// correctness regardless), and a background warm pass replays the
// journal of every graph now placed on it so the first real request
// doesn't pay the replay.
func (r *Router) onReadmit(n *node) {
	r.logf("cluster: node %d (%s) breaker HALF-OPEN — warming its shard from the journal", n.id, n.url)
	go r.warmNode(n)
}

// onClose runs when a half-open breaker accumulates enough successes.
func (r *Router) onClose(n *node) {
	r.logf("cluster: node %d (%s) breaker CLOSED — fully recovered", n.id, n.url)
}

// warmNode eagerly re-syncs every journaled graph whose current
// placement includes the node.
func (r *Router) warmNode(n *node) {
	r.mu.Lock()
	fps := make([]string, 0, len(r.graphs))
	states := make([]*graphState, 0, len(r.graphs))
	for fp, gs := range r.graphs {
		fps = append(fps, fp)
		states = append(states, gs)
	}
	r.mu.Unlock()
	live := r.liveNodes()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for i, fp := range fps {
		placed := false
		for _, url := range Placement(fp, live, r.cfg.Replicas) {
			if url == n.url {
				placed = true
				break
			}
		}
		if !placed {
			continue
		}
		gs := states[i]
		if err := r.sync(ctx, n, gs); err != nil {
			r.logf("cluster: warming %s on node %d: %v", fp[:minInt(12, len(fp))], n.id, err)
			return // the node is misbehaving again; the prober will notice
		}
		r.warmSyncs.Add(1)
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// ServeHTTP dispatches the router protocol.
func (r *Router) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	r.mux.ServeHTTP(w, req)
}

// instrument wraps a /v1 handler with the edge bookkeeping every
// endpoint shares: body cap, request counter, root span.
func (r *Router) instrument(ep int, fn func(ctx context.Context, w http.ResponseWriter, req *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		r.queries[ep].Add(1)
		r.retryBudget.credit() // every request earns back a slice of retry budget
		req.Body = http.MaxBytesReader(w, req.Body, r.cfg.MaxBodyBytes)
		ctx := req.Context()
		if r.tel != nil {
			var sp *obs.Span
			ctx, sp = r.tel.edge.StartRoot(ctx, ep)
			defer sp.End()
		}
		fn(ctx, w, req)
	}
}

// --- response plumbing ---------------------------------------------------

const retryAfterSeconds = "1"

func (r *Router) writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func (r *Router) writeErrorStatus(w http.ResponseWriter, status int, msg string) {
	if status/100 != 2 {
		r.failures.Add(1)
	}
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", retryAfterSeconds)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(serve.ErrorResponse{Error: msg})
}

// writeBackendError maps a forwarding failure to the edge status: a
// backend's own HTTP answer passes through verbatim (with its
// Retry-After hint), an exhausted-overload becomes 503, a transport
// failure becomes 502.
func (r *Router) writeBackendError(w http.ResponseWriter, err error) {
	var api *client.APIError
	if errors.As(err, &api) {
		if api.RetryAfter > 0 {
			w.Header().Set("Retry-After", fmt.Sprintf("%d", int(api.RetryAfter/time.Second)))
		}
		r.writeErrorStatus(w, api.Status, api.Msg)
		return
	}
	var un *client.UnreachableError
	if errors.As(err, &un) {
		r.writeErrorStatus(w, http.StatusBadGateway, "backend unreachable: "+un.Error())
		return
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		r.writeErrorStatus(w, http.StatusGatewayTimeout, err.Error())
		return
	}
	r.writeErrorStatus(w, http.StatusBadGateway, err.Error())
}

// readBody reads the whole request body under the edge's size cap.
func (r *Router) readBody(w http.ResponseWriter, req *http.Request) ([]byte, bool) {
	raw, err := io.ReadAll(req.Body)
	if err != nil {
		r.writeBodyError(w, fmt.Errorf("reading request body: %w", err))
		return nil, false
	}
	return raw, true
}

// decodeJSON decodes the whole request body into v under the decode
// contract the backends apply (serve.Decode), so a body the router
// decodes in full answers the same status here as on a backend.
func (r *Router) decodeJSON(w http.ResponseWriter, req *http.Request, v any) bool {
	if err := serve.Decode(req.Body, v); err != nil {
		r.writeBodyError(w, err)
		return false
	}
	return true
}

// writeBodyError answers a request whose body could not be read or
// decoded: 413 past the size cap, 400 otherwise.
func (r *Router) writeBodyError(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		r.writeErrorStatus(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
		return
	}
	r.writeErrorStatus(w, http.StatusBadRequest, err.Error())
}

// readGraphText extracts .tsg text from an upload/fingerprint body:
// raw text by default, {"graph": "..."} when the Content-Type says
// JSON (the serve layer accepts both; the router must too).
func (r *Router) readGraphText(w http.ResponseWriter, req *http.Request) (string, bool) {
	if ct := req.Header.Get("Content-Type"); strings.HasPrefix(ct, "application/json") {
		var body struct {
			Graph string `json:"graph"`
		}
		if !r.decodeJSON(w, req, &body) {
			return "", false
		}
		if body.Graph == "" {
			r.writeErrorStatus(w, http.StatusBadRequest, `JSON upload body must carry a non-empty "graph" field`)
			return "", false
		}
		return body.Graph, true
	}
	raw, ok := r.readBody(w, req)
	if !ok {
		return "", false
	}
	if len(raw) == 0 {
		r.writeErrorStatus(w, http.StatusBadRequest, "empty graph body")
		return "", false
	}
	return string(raw), true
}

// --- placement and forwarding --------------------------------------------

// errNoReplicas is the all-backends-down answer.
var errNoReplicas = errors.New("no live replica for this graph")

// errBreakerBusy reports a half-open replica already running its one
// allowed trial request.
var errBreakerBusy = errors.New("replica breaker half-open with a trial in flight")

// replicaSet resolves the fingerprint's current replica nodes: the
// rendezvous placement over the LIVE pool, so a dead node's
// fingerprints are already re-hashed to survivors by construction.
func (r *Router) replicaSet(ctx context.Context, fp string) []*node {
	live := r.liveNodes()
	if len(live) == 0 {
		return nil
	}
	sp := obs.LeafN(ctx, nameRoute)
	placed := Placement(fp, live, r.cfg.Replicas)
	out := make([]*node, 0, len(placed))
	for _, url := range placed {
		if n := r.nodeByURL(url); n != nil {
			out = append(out, n)
		}
	}
	sp.AnnotateN(keyReplicas, uint64(len(out)))
	sp.End()
	return out
}

// orderForRead returns the replica set in read-preference order:
// closed-breaker nodes first (half-open nodes take trial traffic, not
// primary traffic), power-of-two-choices on in-flight counts picks the
// first target within that class, the rest queue as failover candidates
// in placement order.
func orderForRead(replicas []*node) []*node {
	if len(replicas) <= 1 {
		return replicas
	}
	pick := replicas
	if closed := closedOnly(replicas); len(closed) > 0 {
		pick = closed
	}
	i := 0
	if len(pick) > 1 {
		i = mrand.Intn(len(pick))
		j := mrand.Intn(len(pick) - 1)
		if j >= i {
			j++
		}
		if pick[j].inflight.Load() < pick[i].inflight.Load() {
			i = j
		}
	}
	out := make([]*node, 0, len(replicas))
	out = append(out, pick[i])
	for _, n := range replicas {
		if n != pick[i] {
			out = append(out, n)
		}
	}
	return out
}

// closedOnly filters replicas to those with a closed breaker; nil when
// every replica is half-open (the caller then balances over all).
func closedOnly(replicas []*node) []*node {
	out := make([]*node, 0, len(replicas))
	for _, n := range replicas {
		if n.state.Load() == breakerClosed {
			out = append(out, n)
		}
	}
	if len(out) == len(replicas) {
		return replicas
	}
	return out
}

// takeRetry spends one retry-budget token; a denial is counted and the
// caller must answer with what it already has instead of launching the
// extra attempt (bounded retries are what keep a partial outage from
// amplifying into a storm).
func (r *Router) takeRetry() bool {
	if r.retryBudget.take() {
		return true
	}
	r.retryDenied.Add(1)
	return false
}

// Hedge delay clamps: floor (a hedge below this races itself for
// nothing), and the static default used until the latency digest has
// enough samples. The ceiling is HopTimeout/2 — a hedge that fires
// later than that cannot beat the timeout it exists to avoid.
const (
	minHedgeDelay     = time.Millisecond
	defaultHedgeDelay = 25 * time.Millisecond
)

// hedgeDelay derives the adaptive hedge delay from the router's own
// successful-hop latency digest: p95, so ~5% of requests outlive it —
// matching the hedge budget by construction.
func (r *Router) hedgeDelay() time.Duration {
	d := r.lat.p95()
	if d == 0 {
		d = defaultHedgeDelay
	}
	if d < minHedgeDelay {
		d = minHedgeDelay
	}
	if ceil := r.cfg.HopTimeout / 2; d > ceil {
		d = ceil
	}
	return d
}

// readReq is one routed read: the backend path and the request body
// that every attempt (hedge, failover, lost-state retry) replays
// verbatim.
type readReq struct {
	path string
	body []byte
}

// forward runs the read's hop against one node and returns the
// backend's 2xx reply body undecoded.
func (r *Router) forward(ctx context.Context, n *node, failover bool, rd readReq) ([]byte, error) {
	var out []byte
	err := r.hop(ctx, n, failover, func(ctx context.Context) (err error) {
		out, err = n.cl.PostRaw(ctx, rd.path, rd.body)
		return err
	})
	return out, err
}

// attemptRead runs one full read attempt against one node: journal sync
// if the node is behind, the hop, and the 404-lost-state resync-retry.
// passThrough reports a genuine 4xx answer that must return to the
// client verbatim instead of failing over. Failures are charged to the
// node's breaker — unless the attempt's context is already dead (the
// caller gave up, or this was a hedge loser cancelled after the winner
// answered), which is not the node's fault.
func (r *Router) attemptRead(ctx context.Context, gs *graphState, n *node, failover bool, rd readReq) (res []byte, err error, passThrough bool) {
	if gs != nil {
		// The sync runs detached from the attempt's cancellation (bounded
		// by the hop timeout instead): a journal replay is shared
		// convergence work, and aborting it midway because THIS attempt
		// lost the hedge race — or the caller hung up — would park the
		// replica on a stale version until some future read resumes the
		// replay. Completing it keeps replicas converging promptly; the
		// hop below still honors the attempt's context.
		syncCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), r.cfg.HopTimeout)
		syncErr := r.sync(syncCtx, n, gs)
		cancel()
		if syncErr != nil {
			if clientError(syncErr) {
				return nil, syncErr, true // the backend refuses the graph itself
			}
			if ctx.Err() == nil {
				r.noteFailure(n)
			}
			return nil, syncErr, false
		}
		if ctx.Err() != nil {
			return nil, ctx.Err(), false
		}
	}
	res, err = r.forward(ctx, n, failover, rd)
	if err == nil {
		return res, nil, false
	}
	if ctx.Err() != nil {
		return nil, err, false
	}
	var api *client.APIError
	if errors.As(err, &api) && api.Status/100 == 4 {
		if api.Status == http.StatusNotFound && gs != nil && gs.hasText() {
			// The node answered "unknown graph" for a graph the router
			// gave it: it lost state without a trip (e.g. restarted
			// non-durable). Re-push and retry it once, on the retry budget.
			gs.mu.Lock()
			gs.invalidateMarkLocked(n)
			gs.mu.Unlock()
			if !r.takeRetry() {
				r.noteFailure(n)
				return nil, err, false
			}
			if syncErr := r.sync(ctx, n, gs); syncErr == nil {
				res, err2 := r.forward(ctx, n, true, rd)
				if err2 == nil {
					return res, nil, false
				}
				err = err2
			}
			r.noteFailure(n)
			return nil, err, false
		}
		return nil, err, true // a genuine 4xx answer: pass through
	}
	r.noteFailure(n)
	return nil, err, false
}

// forwardRead runs one read against the replica set: a hedged attempt
// over the two preferred replicas first (unless disabled), then
// sequential budgeted failover over the rest. A 4xx from a backend is a
// genuine answer and passes through; everything else demotes the node
// and moves on.
func (r *Router) forwardRead(ctx context.Context, gs *graphState, replicas []*node, rd readReq) ([]byte, error) {
	r.hedgeBudget.credit()
	ordered := orderForRead(replicas)
	var lastErr error
	next := 0
	if !r.cfg.DisableHedge && len(ordered) > 1 {
		res, err, passThrough, tried := r.hedgedRead(ctx, gs, ordered, rd)
		if err == nil {
			return res, nil
		}
		if passThrough {
			return nil, err
		}
		lastErr = err
		next = tried
	}
	for i := next; i < len(ordered); i++ {
		n := ordered[i]
		if i > 0 {
			if !r.takeRetry() {
				break
			}
			r.failovers.Add(1)
		}
		release, ok := n.admitTrial()
		if !ok {
			continue // half-open with a trial in flight: not a failure, just skip
		}
		res, err, passThrough := r.attemptRead(ctx, gs, n, i > 0, rd)
		release()
		if err == nil {
			return res, nil
		}
		if passThrough {
			return nil, err
		}
		lastErr = err
	}
	if lastErr == nil {
		lastErr = errNoReplicas
	}
	return nil, lastErr
}

// hedgedRead races the preferred replica against a delayed backup: the
// primary attempt starts immediately; if it hasn't answered within the
// adaptive hedge delay and the hedge budget grants a token, the same
// call fires at the second replica. The first success wins and the
// loser is cancelled through its context; both failing hands the last
// error back to forwardRead's sequential pass. tried reports how many
// of ordered's prefix this consumed (1 or 2), so the caller resumes
// failover at the right replica.
//
// The attempts run on a detached copy of the request's span: a loser
// may still start hop or sync spans after the winner answered and the
// request's root span has Ended and gone back to the tracer's pool.
func (r *Router) hedgedRead(ctx context.Context, gs *graphState, ordered []*node, rd readReq) (res []byte, err error, passThrough bool, tried int) {
	type outcome struct {
		res   []byte
		err   error
		pt    bool
		hedge bool
	}
	hctx, hcancel := context.WithCancel(obs.Detach(ctx))
	defer hcancel()
	ch := make(chan outcome, 2) // buffered: the loser's late result must not leak its goroutine
	launch := func(n *node, hedge bool) bool {
		release, ok := n.admitTrial()
		if !ok {
			return false
		}
		go func() {
			defer release()
			res, err, pt := r.attemptRead(hctx, gs, n, hedge, rd)
			ch <- outcome{res, err, pt, hedge}
		}()
		return true
	}
	if !launch(ordered[0], false) {
		// Primary is half-open with a trial in flight: skip it entirely.
		return nil, errBreakerBusy, false, 1
	}
	pending, launched := 1, 1
	timer := time.NewTimer(r.hedgeDelay())
	defer timer.Stop()
	timerC := timer.C
	for {
		select {
		case out := <-ch:
			if out.err == nil {
				if out.hedge {
					r.hedgeWins.Add(1)
				}
				hcancel() // the loser stops burning backend time
				return out.res, nil, false, launched
			}
			if out.pt {
				hcancel()
				return nil, out.err, true, launched
			}
			pending--
			err = out.err
			if pending == 0 {
				return nil, err, false, launched
			}
		case <-timerC:
			timerC = nil
			if launched > 1 {
				continue
			}
			if !r.hedgeBudget.take() {
				r.hedgeDenied.Add(1)
				continue
			}
			if launch(ordered[1], true) {
				r.hedgeAttempts.Add(1)
				pending++
				launched = 2
			}
		}
	}
}

// hop runs one call to one node, with the inflight/latency bookkeeping
// the balancer, telemetry, and hedge delay feed on.
func (r *Router) hop(ctx context.Context, n *node, failover bool, call func(context.Context) error) error {
	sp := obs.LeafN(ctx, nameHop)
	sp.AnnotateN(keyNode, uint64(n.id))
	if failover {
		sp.SetTierN(tierFailover)
	}
	n.inflight.Add(1)
	t0 := time.Now()
	err := call(ctx)
	dt := time.Since(t0)
	n.inflight.Add(-1)
	sp.End()
	if n.hopDur != nil {
		n.hopDur.Observe(dt.Seconds())
	}
	if err == nil {
		r.noteSuccess(n)
		r.lat.observe(dt) // successes only: the hedge delay must not chase failures
	}
	return err
}

func (gs *graphState) hasText() bool {
	gs.mu.Lock()
	defer gs.mu.Unlock()
	return gs.text != ""
}

// resolveRef turns a request's GraphRef into (fingerprint, graphState):
// inline text is fingerprinted locally and journaled (first sight
// becomes the replication baseline); the caller then forwards the
// request by fingerprint, so every backend hop is cheap and the replica
// set is well defined.
//
// Fingerprint-only references allocate state only when create is set
// (the write path needs the journal lock); the read path passes false
// and gets nil for a fingerprint the router never journaled, so bogus
// or unknown fingerprints cannot grow r.graphs.
func (r *Router) resolveRef(w http.ResponseWriter, ref serve.GraphRef, create bool) (string, *graphState, bool) {
	if ref.Graph != "" {
		fp, events, arcs, border, err := serve.FingerprintText(ref.Graph)
		if err != nil {
			r.writeErrorStatus(w, http.StatusBadRequest, err.Error())
			return "", nil, false
		}
		gs := r.lockGraph(fp)
		if gs.text == "" {
			gs.text = ref.Graph
			gs.events, gs.arcs, gs.border = events, arcs, border
		}
		gs.mu.Unlock()
		gs.requests.Add(1)
		return fp, gs, true
	}
	if ref.Fingerprint == "" {
		r.writeErrorStatus(w, http.StatusBadRequest, "request must reference a graph by inline text or fingerprint")
		return "", nil, false
	}
	var gs *graphState
	if create {
		gs = r.graph(ref.Fingerprint)
	} else {
		gs = r.lookupGraph(ref.Fingerprint)
	}
	if gs != nil {
		gs.requests.Add(1)
	}
	return ref.Fingerprint, gs, true
}

// attribute ties the request's span tree to the graph, so
// /debug/trace?graph=<fp> returns the router's trees as it returns a
// backend's. Handlers call it once a backend has accepted the request:
// a fingerprint no backend confirmed is never interned, so rejected
// texts and unknown fingerprints cannot grow the tracer's intern table
// (the reason lookupGraph exists). Spans that ended earlier in the
// request still match: the ?graph= filter keeps whole traces.
func (r *Router) attribute(ctx context.Context, gs *graphState) {
	if r.tel == nil || gs == nil {
		return
	}
	id := gs.obsGraph.Load()
	if id == 0 {
		id = r.tel.tracer.InternGraph(gs.fp)
		gs.obsGraph.Store(id)
	}
	obs.FromContext(ctx).SetGraphID(id)
}

// --- handlers -------------------------------------------------------------

// handleUpload fans a graph upload out to every replica: each backend
// compiles (or finds cached) the engine and appends the graph to its
// own WAL, so each replica warm-restarts from local state alone. The
// upload succeeds if the primary-side quorum is at least one node; the
// journal re-pushes it to any replica that missed it.
func (r *Router) handleUpload(ctx context.Context, w http.ResponseWriter, req *http.Request) {
	text, ok := r.readGraphText(w, req)
	if !ok {
		return
	}
	fp, events, arcs, border, err := serve.FingerprintText(text)
	if err != nil {
		r.writeErrorStatus(w, http.StatusBadRequest, err.Error())
		return
	}
	gs := r.lockGraph(fp)
	if gs.text == "" {
		gs.text = text
		gs.events, gs.arcs, gs.border = events, arcs, border
	}
	gs.mu.Unlock()
	gs.requests.Add(1)
	// Fan the body out to every replica OUTSIDE the journal lock: a
	// slow compile on one replica must not stall this graph's readers.
	replicas := r.replicaSet(ctx, fp)
	fctx, sp := obs.StartN(ctx, nameFanout)
	sp.AnnotateN(keyReplicas, uint64(len(replicas)))
	// The replicas sync concurrently: sync is gated per (graph, node)
	// and holds no journal lock across the network.
	errs := make([]error, len(replicas))
	var wg sync.WaitGroup
	for i, n := range replicas {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = r.sync(fctx, n, gs)
		}()
	}
	wg.Wait()
	sp.End()
	okCount := 0
	var lastErr error
	for i, err := range errs {
		switch {
		case err == nil:
			r.noteSuccess(replicas[i])
			okCount++
		case clientError(err):
			// A genuine answer: every replica would refuse the same
			// text, so it outranks any other replica's fault.
			lastErr = err
		default:
			r.noteFailure(replicas[i])
			if !clientError(lastErr) {
				lastErr = err
			}
		}
	}
	if okCount == 0 {
		if lastErr == nil {
			lastErr = errNoReplicas
		}
		if clientError(lastErr) {
			r.dropUnconfirmed(fp, gs)
		}
		r.writeBackendErrorUnavailable(w, lastErr)
		return
	}
	r.attribute(ctx, gs)
	r.writeJSON(w, serve.UploadResponse{Fingerprint: fp, Events: events, Arcs: arcs, Border: border})
}

// writeBackendErrorUnavailable is writeBackendError, except that
// transport-level failures surface as 503 + Retry-After (the
// cluster-level "all replicas down, try again shortly" answer) rather
// than 502.
func (r *Router) writeBackendErrorUnavailable(w http.ResponseWriter, err error) {
	if clientError(err) {
		r.writeBackendError(w, err)
		return
	}
	r.writeErrorStatus(w, http.StatusServiceUnavailable, "no replica could serve the request: "+err.Error())
}

// clientError reports a backend's 4xx verdict on the request itself
// (including a graph the backend refuses to compile): a genuine answer
// for the client, never a fault of the node that gave it.
func clientError(err error) bool {
	var api *client.APIError
	return errors.As(err, &api) && api.Status/100 == 4
}

// handleFingerprint answers the placement primitive locally: the
// router can fingerprint without any backend (same parse-only path as
// the serve layer's /v1/fingerprint).
func (r *Router) handleFingerprint(ctx context.Context, w http.ResponseWriter, req *http.Request) {
	text, ok := r.readGraphText(w, req)
	if !ok {
		return
	}
	fp, events, arcs, border, err := serve.FingerprintText(text)
	if err != nil {
		r.writeErrorStatus(w, http.StatusBadRequest, err.Error())
		return
	}
	r.writeJSON(w, serve.FingerprintResponse{Fingerprint: fp, Events: events, Arcs: arcs, Border: border})
}

// handleRead serves analyze/slacks/whatif/mc as a byte-level forward:
// only the graph reference is decoded (for placement), the request body
// goes to the replica unchanged, and the backend's reply comes back
// unchanged. Inline .tsg text is the one rewrite: it is journaled as
// the graph's baseline and forwarded by fingerprint.
func (r *Router) handleRead(ctx context.Context, w http.ResponseWriter, req *http.Request) {
	body, ok := r.readBody(w, req)
	if !ok {
		return
	}
	var ref serve.GraphRef
	if err := json.Unmarshal(body, &ref); err != nil {
		r.writeErrorStatus(w, http.StatusBadRequest, "decoding request: "+err.Error())
		return
	}
	fp, gs, ok := r.resolveRef(w, ref, false)
	if !ok {
		return
	}
	if ref.Graph != "" {
		var err error
		if body, err = byFingerprint(body, fp); err != nil {
			r.writeErrorStatus(w, http.StatusBadRequest, "decoding request: "+err.Error())
			return
		}
	}
	replicas := r.replicaSet(ctx, fp)
	if len(replicas) == 0 {
		r.writeErrorStatus(w, http.StatusServiceUnavailable, "no live backend nodes")
		return
	}
	res, err := r.forwardRead(ctx, gs, replicas, readReq{path: req.URL.Path, body: body})
	if err != nil {
		if gs != nil && clientError(err) {
			r.dropUnconfirmed(fp, gs)
		}
		r.writeBackendErrorUnavailable(w, err)
		return
	}
	r.attribute(ctx, gs)
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(res)
}

// byFingerprint rewrites a read body that inlines .tsg text to
// reference the graph by fingerprint instead, leaving every other field
// as the caller sent it (the backend still validates them). Keys match
// case-insensitively, as they do when the backend decodes them.
func byFingerprint(body []byte, fp string) ([]byte, error) {
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(body, &fields); err != nil {
		return nil, err
	}
	for k := range fields {
		if strings.EqualFold(k, "graph") || strings.EqualFold(k, "fingerprint") {
			delete(fields, k)
		}
	}
	fields["fingerprint"], _ = json.Marshal(fp) // a string always marshals
	return json.Marshal(fields)
}

// handleEdit is the write path: stamp if the client didn't, dedupe
// against the router's exactly-once table, commit on the graph's
// primary (first live replica — falling over to the secondary after a
// journal replay brings it current), journal the accepted write, then
// replicate it to the rest of the replica set. Writes to one graph are
// serialized under its journal lock; that order IS the replication
// order, so replicas converge to bit-identical state.
func (r *Router) handleEdit(ctx context.Context, w http.ResponseWriter, req *http.Request) {
	var body serve.EditRequest
	if !r.decodeJSON(w, req, &body) {
		return
	}
	fp, _, ok := r.resolveRef(w, body.GraphRef, true)
	if !ok {
		return
	}
	body.GraphRef = serve.GraphRef{Fingerprint: fp}

	replicas := r.replicaSet(ctx, fp)
	if len(replicas) == 0 {
		r.writeErrorStatus(w, http.StatusServiceUnavailable, "no live backend nodes")
		return
	}

	// The journal lock serializes this graph's writes end to end:
	// stamp, dedupe, primary commit, and journal append all happen
	// under one hold, so journal order IS primary commit order.
	gs := r.lockGraph(fp)
	if body.Client == "" {
		// Unstamped edit: stamp it so journal replay stays idempotent on
		// the backends for this write too. The stamp MUST be taken under
		// the journal lock — two concurrent unstamped edits otherwise
		// race their seq assignment against commit order, and the
		// lower-seq edit committing second would be falsely deduped by
		// the high-water check below (silently never applied).
		body.Client = r.clientID
		body.Seq = r.seq.Add(1)
	} else if body.Seq <= gs.maxSeq[body.Client] {
		gs.mu.Unlock()
		r.dedupeAnswer(ctx, w, gs, replicas, fp)
		return
	}

	// Commit on the primary; a dead primary fails over down the replica
	// set. syncLocked first, so the node the edit lands on holds the
	// full session state the edit composes with (WAL-backed replay).
	var (
		resp           *client.EditResponse
		commitErr      error
		committed      *node
		committedEpoch uint64
	)
	for attempt, n := range replicas {
		if attempt > 0 {
			// Failover attempts spend retry budget like any other retry; an
			// exhausted budget answers 503 with what we know rather than
			// piling more attempts onto a struggling pool.
			if !r.takeRetry() {
				break
			}
			r.failovers.Add(1)
		}
		// Capture the epoch before the hop: if the node's breaker trips
		// while the edit is in flight, a mark recorded under the pre-hop
		// epoch is void by construction, rather than wrongly certifying a
		// possibly state-lost node under its post-trip epoch.
		ep := n.epoch.Load()
		var err error
		if gs.text != "" {
			err = r.syncLocked(ctx, n, gs)
		}
		if err == nil {
			err = r.hop(ctx, n, attempt > 0, func(ctx context.Context) (err error) {
				resp, err = n.cl.EditStamped(ctx, body)
				return err
			})
		}
		if err == nil {
			committed = n
			committedEpoch = ep
			break
		}
		commitErr = err
		if clientError(err) {
			gs.mu.Unlock()
			r.dropUnconfirmed(fp, gs)
			r.writeBackendError(w, err) // genuine answer: the edit or its graph is invalid
			return
		}
		if ctx.Err() == nil {
			r.noteFailure(n)
		}
	}
	if resp == nil {
		gs.mu.Unlock()
		r.dropUnconfirmed(fp, gs)
		r.writeBackendErrorUnavailable(w, commitErr)
		return
	}

	// The write is committed: journal it and advance the committing
	// node's mark under the same hold that ordered the commit.
	version := gs.appendWriteLocked(&body, r.cfg.JournalCompactAt)
	gs.marks[committed.id] = syncMark{epoch: committedEpoch, version: version}
	gs.mu.Unlock()
	r.attribute(ctx, gs)

	// Push it to the remaining replicas OUTSIDE the lock: sync replays
	// the journal from each node's watermark in journal order, so a
	// slow replica stalls neither this graph's readers nor its next
	// writer.
	fctx, sp := obs.StartN(ctx, nameFanout)
	sp.AnnotateN(keyReplicas, uint64(len(replicas)))
	for _, n := range replicas {
		if n == committed {
			continue
		}
		if err := r.sync(fctx, n, gs); err != nil {
			r.replFail.Add(1)
			r.noteFailure(n)
			continue
		}
		r.replOK.Add(1)
	}
	sp.End()
	r.writeJSON(w, resp)
}

// dedupeAnswer acknowledges a write the router already committed (the
// stamp is at or below the client's high-water mark): the backends may
// have compacted the original journal record away, so the answer is
// synthesized — current λ from a replica, Deduped set, nothing
// re-applied. This is exactly the answer a backend's own dedupe table
// gives for an in-journal duplicate.
func (r *Router) dedupeAnswer(ctx context.Context, w http.ResponseWriter, gs *graphState, replicas []*node, fp string) {
	r.dedupes.Add(1)
	if sp := obs.FromContext(ctx); sp != nil {
		sp.SetTierN(tierDeduped)
	}
	body, _ := json.Marshal(serve.AnalyzeRequest{GraphRef: serve.GraphRef{Fingerprint: fp}}) // strings always marshal
	res, err := r.forwardRead(ctx, gs, replicas, readReq{path: "/v1/analyze", body: body})
	if err != nil {
		r.writeBackendErrorUnavailable(w, err)
		return
	}
	var an serve.AnalyzeResponse
	if err := json.Unmarshal(res, &an); err != nil {
		r.writeErrorStatus(w, http.StatusBadGateway, "decoding backend answer: "+err.Error())
		return
	}
	r.attribute(ctx, gs)
	r.writeJSON(w, serve.EditResponse{Fingerprint: fp, Applied: 0, Deduped: true, Lambda: an.Lambda})
}

// handleHealthz reports router liveness: OK while at least one backend
// is routable (a router with zero live nodes answers 503 so load
// balancers above it can fail over too).
func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	live := len(r.liveNodes())
	r.mu.Lock()
	graphs := len(r.graphs)
	r.mu.Unlock()
	resp := serve.HealthResponse{OK: live > 0, Graphs: graphs, UptimeSec: time.Since(r.start).Seconds()}
	if !resp.OK {
		w.Header().Set("Retry-After", retryAfterSeconds)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(resp)
		return
	}
	r.writeJSON(w, resp)
}

// ClusterNodeStatus is one backend's row in /debug/cluster. The breaker
// columns answer the operator question "why isn't this node taking
// traffic": its state, the failure streaks feeding it (request-only and
// mixed), how often it has tripped, and when it last changed state.
type ClusterNodeStatus struct {
	ID             int       `json:"id"`
	URL            string    `json:"url"`
	Healthy        bool      `json:"healthy"`
	Breaker        string    `json:"breaker"` // closed | open | half-open
	Epoch          uint64    `json:"epoch"`
	ConsecFails    int       `json:"consec_fails"`
	ConsecReqFails int       `json:"consec_req_fails"`
	Trips          uint64    `json:"breaker_trips"`
	LastTransition time.Time `json:"last_transition"`
	Inflight       int64     `json:"inflight"`
	Requests       uint64    `json:"requests"`
	Failures       uint64    `json:"failures"`
	Ejections      uint64    `json:"ejections"`
}

// ClusterGraphStatus is one journaled graph's row in /debug/cluster.
type ClusterGraphStatus struct {
	Fingerprint string   `json:"fingerprint"`
	Version     uint64   `json:"version"`
	JournalLen  int      `json:"journal_len"`
	Compactions int      `json:"compactions"`
	Requests    uint64   `json:"requests"`
	Replicas    []string `json:"replicas"`
	Synced      []string `json:"synced"`
}

// ClusterStatus is the /debug/cluster body.
type ClusterStatus struct {
	Nodes             []ClusterNodeStatus  `json:"nodes"`
	Graphs            []ClusterGraphStatus `json:"graphs"`
	Failovers         uint64               `json:"failovers"`
	Dedupes           uint64               `json:"dedupe_hits"`
	WarmSyncs         uint64               `json:"warm_syncs"`
	Replicas          int                  `json:"replicas"`
	HedgeAttempts     uint64               `json:"hedge_attempts"`
	HedgeWins         uint64               `json:"hedge_wins"`
	HedgeDenied       uint64               `json:"hedge_denied"`
	RetryDenied       uint64               `json:"retry_denied"`
	RetryBudgetTokens float64              `json:"retry_budget_tokens"`
	HedgeDelayMs      float64              `json:"hedge_delay_ms"`
	MembershipReloads uint64               `json:"membership_reloads"`
}

// handleDebugCluster snapshots the router's live topology view:
// node health, per-graph placement and sync watermarks.
func (r *Router) handleDebugCluster(w http.ResponseWriter, req *http.Request) {
	st := ClusterStatus{
		Failovers:         r.failovers.Load(),
		Dedupes:           r.dedupes.Load(),
		WarmSyncs:         r.warmSyncs.Load(),
		Replicas:          r.cfg.Replicas,
		HedgeAttempts:     r.hedgeAttempts.Load(),
		HedgeWins:         r.hedgeWins.Load(),
		HedgeDenied:       r.hedgeDenied.Load(),
		RetryDenied:       r.retryDenied.Load(),
		RetryBudgetTokens: r.retryBudget.tokens(),
		HedgeDelayMs:      float64(r.hedgeDelay()) / float64(time.Millisecond),
		MembershipReloads: r.membershipReloads.Load(),
	}
	p := r.pool.Load()
	for _, n := range p.nodes {
		n.mu.Lock()
		consecFails, consecReqFails := n.consecFails, n.consecReqFails
		n.mu.Unlock()
		st.Nodes = append(st.Nodes, ClusterNodeStatus{
			ID: n.id, URL: n.url, Healthy: n.healthy.Load(),
			Breaker:        breakerName(n.state.Load()),
			Epoch:          n.epoch.Load(),
			ConsecFails:    consecFails,
			ConsecReqFails: consecReqFails,
			Trips:          n.trips.Load(),
			LastTransition: time.Unix(0, n.lastTransition.Load()),
			Inflight:       n.inflight.Load(), Requests: n.requests.Load(),
			Failures: n.failures.Load(), Ejections: n.ejections.Load(),
		})
	}
	live := r.liveNodes()
	r.mu.Lock()
	fps := make([]string, 0, len(r.graphs))
	states := make([]*graphState, 0, len(r.graphs))
	for fp, gs := range r.graphs {
		fps = append(fps, fp)
		states = append(states, gs)
	}
	r.mu.Unlock()
	for i, fp := range fps {
		gs := states[i]
		gs.mu.Lock()
		row := ClusterGraphStatus{
			Fingerprint: fp,
			Version:     gs.version,
			JournalLen:  len(gs.edits),
			Compactions: gs.compactions,
			Requests:    gs.requests.Load(),
			Replicas:    Placement(fp, live, r.cfg.Replicas),
		}
		for _, n := range p.nodes {
			if gs.syncedLocked(n) {
				row.Synced = append(row.Synced, n.url)
			}
		}
		gs.mu.Unlock()
		st.Graphs = append(st.Graphs, row)
	}
	r.writeJSON(w, st)
}
