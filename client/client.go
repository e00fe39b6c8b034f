// Package client is the Go client of the tsg analysis service
// (internal/serve, cmd/tsgserved): upload a Timed Signal Graph once,
// then issue analyze / slacks / batched what-if / Monte-Carlo queries
// by fingerprint, sharing the server's compiled engine with every
// other client of the same graph.
//
//	cl := client.New("http://127.0.0.1:7436")
//	up, err := cl.Upload(ctx, g)
//	res, err := cl.Analyze(ctx, client.ByFingerprint(up.Fingerprint))
//	fmt.Println(res.Lambda.Text)
//	wi, err := cl.WhatIf(ctx, client.ByFingerprint(up.Fingerprint),
//		[]client.WhatIfQuery{{Arc: 3, Delay: 5}, {Arc: 7, Delay: 2}})
//
// Upload is an optimisation, not a requirement: every query accepts
// client.ByGraph(g), which inlines the .tsg text — the server
// fingerprints it and still shares the engine. tsgtime -serve routes
// the CLI through this package.
package client

import (
	"bytes"
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
	"sync/atomic"
	"time"

	"tsg"
	"tsg/internal/serve"
)

// Wire types, shared with the server so the protocol cannot drift.
type (
	// GraphRef references a graph by inline .tsg text or fingerprint.
	GraphRef = serve.GraphRef
	// Lambda is a served cycle time (exact rational + float + text).
	Lambda = serve.Lambda
	// CriticalCycle is one served critical cycle, events by name.
	CriticalCycle = serve.CriticalCycle
	// AnalyzeResponse is the outcome of Analyze.
	AnalyzeResponse = serve.AnalyzeResponse
	// SlacksResponse is the outcome of Slacks.
	SlacksResponse = serve.SlacksResponse
	// ArcSlack is one served arc slack.
	ArcSlack = serve.ArcSlack
	// WhatIfQuery is one delay assignment of a batched what-if.
	WhatIfQuery = serve.WhatIfQuery
	// WhatIfResponse is the outcome of WhatIf.
	WhatIfResponse = serve.WhatIfResponse
	// EngineStats mirrors the serving engine's cumulative counters.
	EngineStats = serve.EngineStats
	// MCRequest tunes a served Monte-Carlo run.
	MCRequest = serve.MCRequest
	// MCResponse is the outcome of MC.
	MCResponse = serve.MCResponse
	// DelayEdit is one committed delay assignment of an Edit.
	DelayEdit = serve.DelayEdit
	// EditRequest is the full edit protocol request, for callers that
	// manage their own idempotency stamps (see EditStamped).
	EditRequest = serve.EditRequest
	// EditResponse is the outcome of Edit.
	EditResponse = serve.EditResponse
	// FingerprintResponse is the outcome of Fingerprint.
	FingerprintResponse = serve.FingerprintResponse
	// UploadResponse is the outcome of Upload.
	UploadResponse = serve.UploadResponse
	// HealthResponse is the outcome of Health.
	HealthResponse = serve.HealthResponse
)

// ByGraph references a query's graph by inline .tsg text.
func ByGraph(g *tsg.Graph) (GraphRef, error) {
	var b bytes.Buffer
	if err := tsg.WriteGraph(&b, g); err != nil {
		return GraphRef{}, err
	}
	return GraphRef{Graph: b.String()}, nil
}

// ByGraphDist references a graph with its delay model inlined, so
// served Monte-Carlo runs sample the model's distributions.
func ByGraphDist(g *tsg.Graph, m *tsg.DelayModel) (GraphRef, error) {
	var b bytes.Buffer
	if err := tsg.WriteGraphDist(&b, g, m); err != nil {
		return GraphRef{}, err
	}
	return GraphRef{Graph: b.String()}, nil
}

// ByFingerprint references a previously uploaded graph. For graphs
// without distribution annotations the fingerprint equals
// tsg.Fingerprint(g), so it can be computed without any upload.
func ByFingerprint(fp string) GraphRef { return GraphRef{Fingerprint: fp} }

// ArcMap translates between a local graph's declaration-order arc
// indices and the canonical wire indices of the protocol. The
// fingerprint is invariant under arc declaration order, so clients
// holding the same graph in different orders share one server engine;
// the canonical rank (tsg.CanonicalArcOrder) is the index space they
// also share. Build one ArcMap per graph and translate query arcs
// with ToWire and response arcs (slacks, critical cycles, criticality)
// with FromWire. A graph serialized and parsed in the same order maps
// identically on both sides, so the translation is exact.
type ArcMap struct {
	toWire   []int // local arc index -> canonical rank
	fromWire []int // canonical rank -> local arc index
}

// NewArcMap builds the wire translation for a local graph.
func NewArcMap(g *tsg.Graph) *ArcMap {
	fromWire := tsg.CanonicalArcOrder(g)
	toWire := make([]int, len(fromWire))
	for k, i := range fromWire {
		toWire[i] = k
	}
	return &ArcMap{toWire: toWire, fromWire: fromWire}
}

// ToWire converts a local arc index to its canonical wire index.
func (m *ArcMap) ToWire(local int) int { return m.toWire[local] }

// FromWire converts a canonical wire index to the local arc index.
func (m *ArcMap) FromWire(wire int) int { return m.fromWire[wire] }

// NumArcs returns the number of arcs the map covers.
func (m *ArcMap) NumArcs() int { return len(m.toWire) }

// APIError is a non-2xx service reply.
type APIError struct {
	Status int    // HTTP status code
	Msg    string // the server's error message
	// RetryAfter is the server's Retry-After hint on a 503 (0 when the
	// reply carried none). The client's retry loop honours it.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("tsg service: %s (HTTP %d)", e.Msg, e.Status)
}

// OverloadError reports that the server shed the request with 503 on
// the final attempt — the retry budget ran out while the service was
// overloaded. It wraps the last *APIError, so errors.As against either
// type matches; RetryAfter carries the server's final backoff hint for
// callers that want to schedule their own retry.
type OverloadError struct {
	Attempts   int           // attempts made (1 + retries)
	Sheds      int           // how many of them were 503 sheds
	RetryAfter time.Duration // the last Retry-After hint (0 if none)
	Err        *APIError     // the final 503 reply
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("server overloaded after %d attempts (%d sheds): %s", e.Attempts, e.Sheds, e.Err.Msg)
}

func (e *OverloadError) Unwrap() error { return e.Err }

// UnreachableError reports that every attempt at a request failed at
// the transport level — no HTTP reply at all. It is what a caller sees
// when the server is down, unresolvable, or unroutable; tsgtime -serve
// turns it into its "server unreachable" exit.
type UnreachableError struct {
	URL      string // the service base URL
	Attempts int    // connection attempts made (1 + retries)
	Err      error  // the last transport error
}

func (e *UnreachableError) Error() string {
	return fmt.Sprintf("server unreachable after %d attempts: %s (%v)", e.Attempts, e.URL, e.Err)
}

func (e *UnreachableError) Unwrap() error { return e.Err }

// Client speaks the analysis-service protocol.
//
// Resilience defaults: requests time out (30s unless overridden) and
// failed attempts are retried with jittered exponential backoff —
// transport errors and 503 overload sheds only, honouring the server's
// Retry-After hint. Every protocol call is safe to retry: queries are
// read-only, uploads are idempotent by content, and edits are stamped
// with a per-client sequence number the server deduplicates, so a
// retried edit whose original was applied-but-unacknowledged applies
// exactly once. Once attempts are exhausted, pure connection failures
// surface as *UnreachableError.
type Client struct {
	base    string
	hc      *http.Client
	retries int // attempts after the first
	backoff time.Duration
	maxWait time.Duration

	// Edit idempotency: a process-unique client id plus a monotonic
	// sequence stamp on every Edit/Reset.
	clientID string
	seq      atomic.Uint64
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (custom
// transports, test doubles). Its Timeout is respected as given.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// WithTimeout bounds each individual request attempt (default 30s;
// 0 disables the per-attempt timeout).
func WithTimeout(d time.Duration) Option {
	return func(c *Client) {
		hc := *c.hc
		hc.Timeout = d
		c.hc = &hc
	}
}

// WithRetries sets how many times a failed attempt is retried
// (default 3; 0 disables retries).
func WithRetries(n int) Option {
	return func(c *Client) { c.retries = n }
}

// WithBackoff tunes the retry backoff: full-jitter exponential from
// base, capped at max (defaults 100ms / 2s).
func WithBackoff(base, max time.Duration) Option {
	return func(c *Client) { c.backoff, c.maxWait = base, max }
}

// RetryPolicy bundles the retry knobs for callers that budget per-hop
// behavior explicitly — the cluster router runs its backends with a
// much tighter policy than an end client, because it does its own
// replica failover above the transport and a slow retry against a dead
// node just delays that failover.
//
// The zero value is the tightest budget: no retries at all
// (MaxRetries 0 means every attempt is also the last), with the
// default backoff windows (zero BackoffBase/BackoffCap keep the
// client's 100ms base and 2s cap — they only matter once MaxRetries
// is raised).
type RetryPolicy struct {
	// MaxRetries is how many times a failed attempt is retried
	// (0 = never retry; the Client default is 3).
	MaxRetries int
	// BackoffBase seeds the full-jitter exponential backoff
	// (0 keeps the default 100ms).
	BackoffBase time.Duration
	// BackoffCap bounds a single backoff wait (0 keeps the default 2s).
	BackoffCap time.Duration
}

// WithRetryPolicy applies a RetryPolicy wholesale. Unlike WithRetries
// it treats MaxRetries 0 as "no retries", so a zero-value policy is a
// usable tight-budget configuration, not a no-op.
func WithRetryPolicy(p RetryPolicy) Option {
	return func(c *Client) {
		c.retries = p.MaxRetries
		if p.BackoffBase > 0 {
			c.backoff = p.BackoffBase
		}
		if p.BackoffCap > 0 {
			c.maxWait = p.BackoffCap
		}
	}
}

// New returns a client of the service at baseURL (e.g.
// "http://127.0.0.1:7436").
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base:    strings.TrimRight(baseURL, "/"),
		hc:      &http.Client{Timeout: 30 * time.Second},
		retries: 3,
		backoff: 100 * time.Millisecond,
		maxWait: 2 * time.Second,
	}
	var id [6]byte
	if _, err := crand.Read(id[:]); err == nil {
		c.clientID = "cli-" + hex.EncodeToString(id[:])
	} else {
		c.clientID = fmt.Sprintf("cli-pid-%d", time.Now().UnixNano())
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// ClientID returns the idempotency id this client stamps edits with.
func (c *Client) ClientID() string { return c.clientID }

// BaseURL returns the service base URL the client was built with
// (normalized: no trailing slash). The cluster router uses it to key
// per-node state by the same string it dials.
func (c *Client) BaseURL() string { return c.base }

// post sends a JSON request and decodes the JSON reply into out,
// retrying per the client's policy.
func (c *Client) post(ctx context.Context, path string, in, out interface{}) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	return c.roundTrip(ctx, http.MethodPost, path, "application/json", body, out)
}

// roundTrip runs one logical request through the retry loop. Each
// attempt rebuilds the http.Request (bodies must be fresh readers).
func (c *Client) roundTrip(ctx context.Context, method, path, contentType string, body []byte, out interface{}) error {
	var last error
	transportOnly := true
	attempts, sheds := 0, 0
	for attempt := 0; ; attempt++ {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
		if err != nil {
			return err
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		err = c.doOnce(req, out)
		attempts++
		if err == nil {
			return nil
		}
		last = err
		retryable, isTransport, hint := classifyFailure(err)
		transportOnly = transportOnly && isTransport
		if retryable && !isTransport {
			sheds++
		}
		if !retryable || attempt >= c.retries {
			break
		}
		if err := c.sleepBackoff(ctx, attempt, hint); err != nil {
			break // context ended while waiting; report the request error
		}
	}
	if transportOnly {
		return &UnreachableError{URL: c.base, Attempts: attempts, Err: last}
	}
	// A terminal 503 means the overload outlived the retry budget:
	// surface it as a typed OverloadError (still unwrapping to the
	// *APIError underneath).
	var api *APIError
	if errors.As(last, &api) && api.Status == http.StatusServiceUnavailable {
		return &OverloadError{Attempts: attempts, Sheds: sheds, RetryAfter: api.RetryAfter, Err: api}
	}
	return last
}

// classifyFailure decides whether an attempt's failure is worth
// retrying: transport errors (no reply — the server may be mid-restart
// and the WAL guarantees committed state survives) and 503 sheds (the
// server explicitly asked for a backoff retry). Context expiry is the
// caller's deadline, never retried; other HTTP statuses are genuine
// answers (4xx: the request is wrong; 5xx: retrying the same bytes
// won't fix the server).
func classifyFailure(err error) (retryable, isTransport bool, retryAfter time.Duration) {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false, false, 0
	}
	var api *APIError
	if errors.As(err, &api) {
		if api.Status == http.StatusServiceUnavailable {
			return true, false, api.RetryAfter
		}
		return false, false, 0
	}
	return true, true, 0
}

// backoffDelay computes the wait before retrying `attempt`: the
// server's Retry-After hint when given (it knows its own recovery
// horizon better than any client-side guess), else full-jitter
// exponential — a uniformly random slice of base·2^attempt, capped —
// so a thundering herd of shed clients decorrelates instead of
// re-colliding.
func (c *Client) backoffDelay(attempt int, hint time.Duration) time.Duration {
	if hint > 0 {
		return hint
	}
	d := c.backoff << uint(attempt)
	if d > c.maxWait || d <= 0 {
		d = c.maxWait
	}
	return time.Duration(mrand.Int63n(int64(d) + 1))
}

// sleepBackoff waits out backoffDelay, or returns early with the
// context's error if it expires first. A wait the context's deadline
// cannot outlive is refused up front: sleeping into a deadline burns
// the caller's remaining budget to produce a DeadlineExceeded that
// masks the real failure, when returning the last attempt's error
// immediately costs nothing.
func (c *Client) sleepBackoff(ctx context.Context, attempt int, hint time.Duration) error {
	d := c.backoffDelay(attempt, hint)
	if dl, ok := ctx.Deadline(); ok && time.Until(dl) <= d {
		return context.DeadlineExceeded
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// doOnce runs a single attempt.
func (c *Client) doOnce(req *http.Request, out interface{}) error {
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var e serve.ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
			e.Error = resp.Status
		}
		apiErr := &APIError{Status: resp.StatusCode, Msg: e.Error}
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			if secs, err := strconv.Atoi(ra); err == nil && secs >= 0 {
				apiErr.RetryAfter = time.Duration(secs) * time.Second
			}
		}
		return apiErr
	}
	switch out := out.(type) {
	case nil:
		return nil
	case *[]byte:
		*out, err = io.ReadAll(resp.Body)
		return err
	default:
		return json.NewDecoder(resp.Body).Decode(out)
	}
}

// PostRaw sends body verbatim as a JSON request to path and returns the
// 2xx reply body undecoded. Retries and failure classification are the
// typed calls' own: a non-2xx reply is an *APIError, a transport
// failure an *UnreachableError. It is the forwarding primitive of the
// cluster router, which relays read bodies without re-coding them.
func (c *Client) PostRaw(ctx context.Context, path string, body []byte) ([]byte, error) {
	var out []byte
	if err := c.roundTrip(ctx, http.MethodPost, path, "application/json", body, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Upload sends a graph (raw .tsg body) and returns its fingerprint;
// subsequent queries can reference it with ByFingerprint.
func (c *Client) Upload(ctx context.Context, g *tsg.Graph) (*UploadResponse, error) {
	ref, err := ByGraph(g)
	if err != nil {
		return nil, err
	}
	return c.UploadText(ctx, ref.Graph)
}

// UploadDist uploads a graph together with its delay model (as
// ~dist/@group annotations), for served Monte-Carlo by fingerprint.
func (c *Client) UploadDist(ctx context.Context, g *tsg.Graph, m *tsg.DelayModel) (*UploadResponse, error) {
	ref, err := ByGraphDist(g, m)
	if err != nil {
		return nil, err
	}
	return c.UploadText(ctx, ref.Graph)
}

// UploadText uploads raw .tsg text. Retried attempts are idempotent:
// the fingerprint is a pure function of the content.
func (c *Client) UploadText(ctx context.Context, text string) (*UploadResponse, error) {
	var out UploadResponse
	if err := c.roundTrip(ctx, http.MethodPost, "/v1/graphs", "text/plain", []byte(text), &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Analyze returns the cycle time and critical cycles of the graph.
func (c *Client) Analyze(ctx context.Context, ref GraphRef) (*AnalyzeResponse, error) {
	var out AnalyzeResponse
	if err := c.post(ctx, "/v1/analyze", serve.AnalyzeRequest{GraphRef: ref}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Slacks returns the per-arc timing slacks at the graph's cycle time.
func (c *Client) Slacks(ctx context.Context, ref GraphRef) (*SlacksResponse, error) {
	var out SlacksResponse
	if err := c.post(ctx, "/v1/slacks", serve.SlacksRequest{GraphRef: ref}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// WhatIf answers a batch of what-if queries — λ as if each arc's delay
// were replaced, all against the graph's baseline — in one round trip.
func (c *Client) WhatIf(ctx context.Context, ref GraphRef, queries []WhatIfQuery) (*WhatIfResponse, error) {
	var out WhatIfResponse
	if err := c.post(ctx, "/v1/whatif", serve.WhatIfRequest{GraphRef: ref, Queries: queries}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Edit commits delay edits to the graph's server-side engine session
// and returns λ at the new baseline — the edit→analyze loop in one
// round trip. Edits are durable and shared: every later query of
// every client of this fingerprint sees them, until further edits or
// a Reset. The server answers the post-edit analysis incrementally,
// re-propagating only the forward cone of the edited arcs through its
// retained simulation traces; critical cycles are deliberately not
// extracted (set serve.EditRequest.Criticals over the raw protocol,
// or follow up with Analyze, to get them).
// Every edit is stamped with the client's idempotency id and a fresh
// sequence number, so a retry of a response lost in transit (the edit
// may or may not have applied) re-commits under the same stamp and the
// server applies it exactly once.
func (c *Client) Edit(ctx context.Context, ref GraphRef, edits []DelayEdit) (*EditResponse, error) {
	var out EditResponse
	if err := c.post(ctx, "/v1/edit", serve.EditRequest{
		GraphRef: ref, Edits: edits, Client: c.clientID, Seq: c.seq.Add(1),
	}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// EditStamped commits a fully specified edit request verbatim,
// preserving the request's own (client, seq) idempotency stamps
// instead of stamping with this client's. It is the pass-through
// primitive of the cluster router: an end client's stamp must reach
// every backend replica unchanged, so the server-side exactly-once
// dedupe works end to end across routing hops and replica replays.
// Callers own the stamp discipline (seq strictly increasing per
// client per fingerprint); Edit/Reset remain the safe default.
func (c *Client) EditStamped(ctx context.Context, req EditRequest) (*EditResponse, error) {
	var out EditResponse
	if err := c.post(ctx, "/v1/edit", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Reset restores the graph's server-side engine session to its
// compile-time delays, then applies the given edits (if any).
func (c *Client) Reset(ctx context.Context, ref GraphRef, edits []DelayEdit) (*EditResponse, error) {
	var out EditResponse
	if err := c.post(ctx, "/v1/edit", serve.EditRequest{
		GraphRef: ref, Edits: edits, Reset: true, Client: c.clientID, Seq: c.seq.Add(1),
	}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// MC runs a served Monte-Carlo cycle-time analysis. req.GraphRef is
// overwritten with ref.
func (c *Client) MC(ctx context.Context, ref GraphRef, req MCRequest) (*MCResponse, error) {
	req.GraphRef = ref
	var out MCResponse
	if err := c.post(ctx, "/v1/mc", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Fingerprint asks the server for the canonical content fingerprint
// of raw .tsg text without compiling an engine for it — the shard-
// placement primitive of the cluster router (POST /v1/fingerprint).
func (c *Client) Fingerprint(ctx context.Context, text string) (*FingerprintResponse, error) {
	var out FingerprintResponse
	if err := c.roundTrip(ctx, http.MethodPost, "/v1/fingerprint", "text/plain", []byte(text), &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Health checks service liveness.
func (c *Client) Health(ctx context.Context) (*HealthResponse, error) {
	var out HealthResponse
	if err := c.roundTrip(ctx, http.MethodGet, "/healthz", "", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Metrics fetches the Prometheus text exposition.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", &APIError{Status: resp.StatusCode, Msg: resp.Status}
	}
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}
