package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tsg"
	"tsg/client"
	"tsg/internal/gen"
	"tsg/internal/obs"
	"tsg/internal/serve"
)

// gate wraps a backend handler with a kill switch: while down, every
// request (probes included) answers 500, which the router classifies
// as a node failure. Swapping the inner handler models a non-durable
// restart — the process is back but its state is gone.
type gate struct {
	down atomic.Bool
	h    atomic.Pointer[http.Handler]
}

func newGate(h http.Handler) *gate {
	g := &gate{}
	g.h.Store(&h)
	return g
}

func (g *gate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if g.down.Load() {
		w.WriteHeader(http.StatusInternalServerError)
		_, _ = w.Write([]byte(`{"error":"node down"}`))
		return
	}
	(*g.h.Load()).ServeHTTP(w, r)
}

func pipelineText(t testing.TB, stages int) string {
	t.Helper()
	g, err := gen.MullerPipeline(stages, 1, 2.0, 1.0)
	if err != nil {
		t.Fatalf("MullerPipeline: %v", err)
	}
	var b bytes.Buffer
	if err := tsg.WriteGraph(&b, g); err != nil {
		t.Fatalf("WriteGraph: %v", err)
	}
	return b.String()
}

// testCluster is 3 gated backends plus a started router, all torn down
// with the test.
type testCluster struct {
	gates    [3]*gate
	backends [3]*httptest.Server
	urls     []string
	router   *Router
	front    *httptest.Server
	cl       *client.Client
}

func newTestCluster(t *testing.T) *testCluster {
	t.Helper()
	tc := &testCluster{}
	for i := range tc.gates {
		tc.gates[i] = newGate(serve.New(serve.Config{}))
		tc.backends[i] = httptest.NewServer(tc.gates[i])
		t.Cleanup(tc.backends[i].Close)
		tc.urls = append(tc.urls, tc.backends[i].URL)
	}
	r, err := New(Config{
		Nodes:            tc.urls,
		Replicas:         2,
		ProbeInterval:    10 * time.Millisecond,
		FailThreshold:    2,
		ReadmitThreshold: 2,
		HopTimeout:       5 * time.Second,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	r.Start()
	t.Cleanup(r.Stop)
	tc.router = r
	tc.front = httptest.NewServer(r)
	t.Cleanup(tc.front.Close)
	tc.cl = client.New(tc.front.URL, client.WithRetryPolicy(client.RetryPolicy{}))
	return tc
}

func (tc *testCluster) gateOf(url string) *gate {
	for i, u := range tc.urls {
		if u == url {
			return tc.gates[i]
		}
	}
	return nil
}

func (tc *testCluster) waitHealthy(t *testing.T, url string, want bool) {
	t.Helper()
	n := tc.router.nodeByURL(url)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if n.healthy.Load() == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("node %s never reached healthy=%v", url, want)
}

// TestRouterServesProtocolAndPlacement pins the basic contract: the
// router answers the whole read protocol with the same results as a
// direct backend, and the upload fan-out leaves every replica able to
// answer by fingerprint on its own.
func TestRouterServesProtocolAndPlacement(t *testing.T) {
	tc := newTestCluster(t)
	ctx := context.Background()
	text := pipelineText(t, 4)

	up, err := tc.cl.UploadText(ctx, text)
	if err != nil {
		t.Fatalf("upload through router: %v", err)
	}
	res, err := tc.cl.Analyze(ctx, client.ByFingerprint(up.Fingerprint))
	if err != nil {
		t.Fatalf("analyze through router: %v", err)
	}

	// Oracle: a direct single backend.
	direct := httptest.NewServer(serve.New(serve.Config{}))
	defer direct.Close()
	dcl := client.New(direct.URL)
	dup, err := dcl.UploadText(ctx, text)
	if err != nil {
		t.Fatalf("direct upload: %v", err)
	}
	if dup.Fingerprint != up.Fingerprint {
		t.Fatalf("router fingerprint %s != direct %s", up.Fingerprint, dup.Fingerprint)
	}
	dres, err := dcl.Analyze(ctx, client.ByFingerprint(dup.Fingerprint))
	if err != nil {
		t.Fatalf("direct analyze: %v", err)
	}
	if res.Lambda.Text != dres.Lambda.Text {
		t.Fatalf("router λ %s != direct λ %s", res.Lambda.Text, dres.Lambda.Text)
	}

	// Slacks and what-if answer through the router too.
	if _, err := tc.cl.Slacks(ctx, client.ByFingerprint(up.Fingerprint)); err != nil {
		t.Fatalf("slacks through router: %v", err)
	}
	if _, err := tc.cl.WhatIf(ctx, client.ByFingerprint(up.Fingerprint), []client.WhatIfQuery{{Arc: 0, Delay: 3}}); err != nil {
		t.Fatalf("whatif through router: %v", err)
	}

	// Fingerprint endpoint answers locally at the router.
	fpr, err := tc.cl.Fingerprint(ctx, text)
	if err != nil {
		t.Fatalf("fingerprint through router: %v", err)
	}
	if fpr.Fingerprint != up.Fingerprint {
		t.Fatalf("fingerprint endpoint %s != upload %s", fpr.Fingerprint, up.Fingerprint)
	}

	// The upload fanned out: each REPLICA answers directly, and no
	// non-replica was touched (placement actually shards).
	placed := Placement(up.Fingerprint, tc.urls, 2)
	for _, url := range placed {
		ncl := client.New(url, client.WithRetryPolicy(client.RetryPolicy{}))
		nres, err := ncl.Analyze(ctx, client.ByFingerprint(up.Fingerprint))
		if err != nil {
			t.Fatalf("replica %s cannot answer by fingerprint after fan-out: %v", url, err)
		}
		if nres.Lambda.Text != dres.Lambda.Text {
			t.Fatalf("replica %s λ %s != direct %s", url, nres.Lambda.Text, dres.Lambda.Text)
		}
	}
	for _, url := range tc.urls {
		inSet := false
		for _, p := range placed {
			inSet = inSet || p == url
		}
		if inSet {
			continue
		}
		ncl := client.New(url, client.WithRetryPolicy(client.RetryPolicy{}))
		if _, err := ncl.Analyze(ctx, client.ByFingerprint(up.Fingerprint)); err == nil {
			t.Fatalf("non-replica %s holds the graph — placement did not shard", url)
		}
	}
}

// TestRouterWriteReplicationAndDedupe pins the write path: edits
// through the router land on every replica bit-identically, client
// idempotency stamps survive the hop (a retry answers Deduped without
// re-applying), and a router-level duplicate of a compacted-away stamp
// is synthesized rather than re-applied.
func TestRouterWriteReplicationAndDedupe(t *testing.T) {
	tc := newTestCluster(t)
	ctx := context.Background()
	text := pipelineText(t, 4)

	up, err := tc.cl.UploadText(ctx, text)
	if err != nil {
		t.Fatalf("upload: %v", err)
	}
	ref := client.ByFingerprint(up.Fingerprint)

	// A run of edits through the router (the client stamps them).
	var last *client.EditResponse
	for i := 0; i < 8; i++ {
		last, err = tc.cl.Edit(ctx, ref, []client.DelayEdit{{Arc: i % 4, Delay: 2.0 + float64(i)}})
		if err != nil {
			t.Fatalf("edit %d: %v", i, err)
		}
	}

	// Every replica answers the edited baseline identically, directly.
	placed := Placement(up.Fingerprint, tc.urls, 2)
	for _, url := range placed {
		ncl := client.New(url, client.WithRetryPolicy(client.RetryPolicy{}))
		nres, err := ncl.Analyze(ctx, ref)
		if err != nil {
			t.Fatalf("replica %s: %v", url, err)
		}
		if nres.Lambda.Text != last.Lambda.Text {
			t.Fatalf("replica %s diverged: λ %s, want %s", url, nres.Lambda.Text, last.Lambda.Text)
		}
	}

	// A duplicate stamp through the router dedupes end to end.
	dup, err := tc.cl.EditStamped(ctx, client.EditRequest{
		GraphRef: ref,
		Edits:    []client.DelayEdit{{Arc: 0, Delay: 99}},
		Client:   tc.cl.ClientID(),
		Seq:      1, // already applied above
	})
	if err != nil {
		t.Fatalf("duplicate edit: %v", err)
	}
	if !dup.Deduped {
		t.Fatalf("duplicate stamped edit not deduped: %+v", dup)
	}
	if dup.Lambda.Text != last.Lambda.Text {
		t.Fatalf("deduped answer λ %s, want current baseline %s", dup.Lambda.Text, last.Lambda.Text)
	}
}

// TestRouterConcurrentUnstampedEdits pins the router-stamp commit
// order: unstamped edits get their (client, seq) stamp from the
// router, and the stamp must be taken under the journal lock — stamped
// outside it, two concurrent edits can commit in the opposite order of
// their seq assignment, and the lower-seq edit is falsely answered
// Deduped without ever being applied.
func TestRouterConcurrentUnstampedEdits(t *testing.T) {
	tc := newTestCluster(t)
	ctx := context.Background()
	text := pipelineText(t, 4)
	up, err := tc.cl.UploadText(ctx, text)
	if err != nil {
		t.Fatalf("upload: %v", err)
	}

	// Many rounds of barrier-released writers: the original defect
	// needed two goroutines to interleave between seq assignment and
	// journal-lock acquisition, which one round rarely provokes.
	const rounds, writers = 25, 8
	for round := 0; round < rounds; round++ {
		var wg, start sync.WaitGroup
		start.Add(1)
		errs := make([]string, writers)
		for i := 0; i < writers; i++ {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				start.Wait()
				body, _ := json.Marshal(serve.EditRequest{
					GraphRef: serve.GraphRef{Fingerprint: up.Fingerprint},
					Edits:    []serve.DelayEdit{{Arc: i % 4, Delay: 1.0 + float64(round*writers+i)/8}},
				})
				resp, err := http.Post(tc.front.URL+"/v1/edit", "application/json", bytes.NewReader(body))
				if err != nil {
					errs[i] = err.Error()
					return
				}
				defer resp.Body.Close()
				var er serve.EditResponse
				if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
					errs[i] = "decode: " + err.Error()
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs[i] = resp.Status
					return
				}
				if er.Deduped || er.Applied != 1 {
					errs[i] = "falsely deduped: applied=0"
				}
			}()
		}
		start.Done()
		wg.Wait()
		for i, e := range errs {
			if e != "" {
				t.Fatalf("round %d, unstamped edit %d: %s", round, i, e)
			}
		}
	}

	// And the replicas converged on one baseline despite the contention.
	placed := Placement(up.Fingerprint, tc.urls, 2)
	var want string
	for _, url := range placed {
		ncl := client.New(url, client.WithRetryPolicy(client.RetryPolicy{}))
		nres, err := ncl.Analyze(ctx, client.ByFingerprint(up.Fingerprint))
		if err != nil {
			t.Fatalf("replica %s: %v", url, err)
		}
		if want == "" {
			want = nres.Lambda.Text
		} else if nres.Lambda.Text != want {
			t.Fatalf("replicas diverged after concurrent edits: λ %s vs %s", nres.Lambda.Text, want)
		}
	}
}

// TestRouterUnknownFingerprintsDontGrowState pins the memory bound on
// r.graphs: reads referencing fingerprints the router never journaled
// must not allocate state, and a write to a bogus fingerprint must not
// leave a pristine record behind after the backends reject it.
func TestRouterUnknownFingerprintsDontGrowState(t *testing.T) {
	tc := newTestCluster(t)
	for i := 0; i < 8; i++ {
		body, _ := json.Marshal(serve.AnalyzeRequest{
			GraphRef: serve.GraphRef{Fingerprint: strings.Repeat("ab", 20) + string(rune('a'+i))},
		})
		resp, err := http.Post(tc.front.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST analyze: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("bogus-fingerprint analyze: status %d, want 404", resp.StatusCode)
		}
	}
	body, _ := json.Marshal(serve.EditRequest{
		GraphRef: serve.GraphRef{Fingerprint: strings.Repeat("cd", 20)},
		Edits:    []serve.DelayEdit{{Arc: 0, Delay: 1}},
	})
	resp, err := http.Post(tc.front.URL+"/v1/edit", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST edit: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("bogus-fingerprint edit: status %d, want 404", resp.StatusCode)
	}
	tc.router.mu.Lock()
	n := len(tc.router.graphs)
	tc.router.mu.Unlock()
	if n != 0 {
		t.Fatalf("router retains %d graph states after bogus-fingerprint traffic, want 0", n)
	}
}

// TestRouterRejectedGraphKeepsNodesHealthy: a graph that parses but
// that the backends refuse to compile (no border events) is the
// client's error. Through every entry point that uploads text — inline
// analyze, /v1/graphs and inline edit — the backend's 400 must reach
// the client, no node's breaker may trip, and the router must keep no
// state for the rejected texts.
func TestRouterRejectedGraphKeepsNodesHealthy(t *testing.T) {
	tc := newTestCluster(t)
	post := func(path, ctype string, body []byte) int {
		t.Helper()
		resp, err := http.Post(tc.front.URL+path, ctype, bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	rejected := func(k int) string {
		// Distinct delays give distinct fingerprints.
		return fmt.Sprintf("tsg x\nevent a nonrepetitive\nevent b nonrepetitive\narc a b %d\n", k)
	}
	for i := 0; i < 3; i++ {
		analyze, _ := json.Marshal(serve.AnalyzeRequest{GraphRef: serve.GraphRef{Graph: rejected(3*i + 1)}})
		if code := post("/v1/analyze", "application/json", analyze); code != http.StatusBadRequest {
			t.Fatalf("rejected inline analyze: status %d, want 400", code)
		}
		if code := post("/v1/graphs", "text/plain", []byte(rejected(3*i+2))); code != http.StatusBadRequest {
			t.Fatalf("rejected upload: status %d, want 400", code)
		}
		edit, _ := json.Marshal(serve.EditRequest{
			GraphRef: serve.GraphRef{Graph: rejected(3*i + 3)},
			Edits:    []serve.DelayEdit{{Arc: 0, Delay: 1}},
		})
		if code := post("/v1/edit", "application/json", edit); code != http.StatusBadRequest {
			t.Fatalf("rejected inline edit: status %d, want 400", code)
		}
	}
	for _, url := range tc.urls {
		if n := tc.router.nodeByURL(url); n.trips.Load() != 0 || n.state.Load() != breakerClosed {
			t.Errorf("node %s: %d breaker trips, state %s after client errors only",
				url, n.trips.Load(), breakerName(n.state.Load()))
		}
	}
	tc.router.mu.Lock()
	n := len(tc.router.graphs)
	tc.router.mu.Unlock()
	if n != 0 {
		t.Errorf("router retains %d graph states for rejected texts, want 0", n)
	}
	valid, _ := json.Marshal(serve.AnalyzeRequest{GraphRef: serve.GraphRef{Graph: pipelineText(t, 3)}})
	if code := post("/v1/analyze", "application/json", valid); code != http.StatusOK {
		t.Fatalf("valid analyze after rejected graphs: status %d, want 200", code)
	}
}

// TestRouterStartStopConcurrent pins the lifecycle against races:
// Start/Stop from many goroutines must neither tear the probeCancel
// field nor leak probe loops (the race detector is the assertion).
func TestRouterStartStopConcurrent(t *testing.T) {
	r, err := New(Config{Nodes: []string{"http://127.0.0.1:1"}, ProbeInterval: time.Millisecond})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.Start()
			r.Stop()
		}()
	}
	wg.Wait()
	r.Stop()
}

// TestRouterEjectionFailoverReadmission is the full lifecycle: kill a
// graph's primary → requests fail over to the secondary and the node
// is ejected; restart it with empty state → probes re-admit it, the
// journal re-warms it, and it serves the edited baseline again.
func TestRouterEjectionFailoverReadmission(t *testing.T) {
	tc := newTestCluster(t)
	ctx := context.Background()
	text := pipelineText(t, 4)

	up, err := tc.cl.UploadText(ctx, text)
	if err != nil {
		t.Fatalf("upload: %v", err)
	}
	ref := client.ByFingerprint(up.Fingerprint)
	if _, err := tc.cl.Edit(ctx, ref, []client.DelayEdit{{Arc: 1, Delay: 7}}); err != nil {
		t.Fatalf("edit: %v", err)
	}

	placed := Placement(up.Fingerprint, tc.urls, 2)
	primary := placed[0]

	// Kill the primary. Reads and writes must keep succeeding (failover
	// to the secondary), and the probes must eject the node.
	tc.gateOf(primary).down.Store(true)
	tc.waitHealthy(t, primary, false)

	res, err := tc.cl.Analyze(ctx, ref)
	if err != nil {
		t.Fatalf("analyze after primary death: %v", err)
	}
	edited, err := tc.cl.Edit(ctx, ref, []client.DelayEdit{{Arc: 2, Delay: 9}})
	if err != nil {
		t.Fatalf("edit after primary death (failover): %v", err)
	}
	_ = res

	// The dead node's fingerprints re-hash to survivors: placement over
	// the live set no longer contains it.
	live := tc.router.liveNodes()
	for _, u := range Placement(up.Fingerprint, live, 2) {
		if u == primary {
			t.Fatalf("dead primary still in live placement")
		}
	}

	// "Restart" the node with a FRESH backend — all state lost, like a
	// non-durable process replaced. Re-admission must re-warm it from
	// the router's journal before it serves.
	var fresh http.Handler = serve.New(serve.Config{})
	tc.gateOf(primary).h.Store(&fresh)
	tc.gateOf(primary).down.Store(false)
	tc.waitHealthy(t, primary, true)

	// Give the background warm pass a moment, then the restarted node
	// must answer the CURRENT edited baseline directly.
	ncl := client.New(primary, client.WithRetryPolicy(client.RetryPolicy{}))
	deadline := time.Now().Add(5 * time.Second)
	for {
		nres, err := ncl.Analyze(ctx, ref)
		if err == nil && nres.Lambda.Text == edited.Lambda.Text {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("restarted node never re-warmed: err=%v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// And a read routed through the router may land on it again without
	// a stale answer.
	for i := 0; i < 10; i++ {
		rres, err := tc.cl.Analyze(ctx, ref)
		if err != nil {
			t.Fatalf("analyze after re-admission: %v", err)
		}
		if rres.Lambda.Text != edited.Lambda.Text {
			t.Fatalf("stale λ %s after re-admission, want %s", rres.Lambda.Text, edited.Lambda.Text)
		}
	}
}

// TestRouterAllReplicasDown pins the degraded edge: when every node of
// a graph's replica set is dead, the router answers 503 with a
// Retry-After hint — the cluster-level shed contract — rather than
// hanging or answering 500.
func TestRouterAllReplicasDown(t *testing.T) {
	tc := newTestCluster(t)
	ctx := context.Background()
	text := pipelineText(t, 3)
	up, err := tc.cl.UploadText(ctx, text)
	if err != nil {
		t.Fatalf("upload: %v", err)
	}
	for _, g := range tc.gates {
		g.down.Store(true)
	}
	for _, u := range tc.urls {
		tc.waitHealthy(t, u, false)
	}
	body, _ := json.Marshal(serve.AnalyzeRequest{GraphRef: serve.GraphRef{Fingerprint: up.Fingerprint}})
	resp, err := http.Post(tc.front.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST analyze: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("all-replicas-down analyze: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("all-replicas-down 503 missing Retry-After")
	}
}

// TestRouterJournalCompaction pins that sustained edit load keeps the
// journal bounded (last-writer-per-arc) while replay still rebuilds
// the exact baseline on a fresh replica.
func TestRouterJournalCompaction(t *testing.T) {
	tc := newTestCluster(t)
	tc.router.cfg.JournalCompactAt = 8
	ctx := context.Background()
	text := pipelineText(t, 4)
	up, err := tc.cl.UploadText(ctx, text)
	if err != nil {
		t.Fatalf("upload: %v", err)
	}
	ref := client.ByFingerprint(up.Fingerprint)
	var last *client.EditResponse
	for i := 0; i < 40; i++ {
		last, err = tc.cl.Edit(ctx, ref, []client.DelayEdit{{Arc: i % 3, Delay: 1.0 + float64(i)/7}})
		if err != nil {
			t.Fatalf("edit %d: %v", i, err)
		}
	}
	gs := tc.router.graph(up.Fingerprint)
	gs.mu.Lock()
	jlen, compactions := len(gs.edits), gs.compactions
	gs.mu.Unlock()
	if compactions == 0 {
		t.Fatalf("40 edits with compact-at-8 never compacted")
	}
	if jlen > 8+1 {
		t.Fatalf("journal holds %d edits after compaction, want ≤ 9", jlen)
	}

	// A node that lost everything (fresh backend) still converges to
	// the exact edited baseline from the compacted journal.
	placed := Placement(up.Fingerprint, tc.urls, 2)
	victim := placed[len(placed)-1]
	var fresh http.Handler = serve.New(serve.Config{})
	tc.gateOf(victim).h.Store(&fresh)
	gs.mu.Lock()
	gs.invalidateMarkLocked(tc.router.nodeByURL(victim))
	gs.mu.Unlock()

	// Route reads until the victim answers with the edited baseline:
	// the 404-resync path must rebuild it. Direct backend reads may
	// transiently observe a mid-replay prefix (a hedged routed read can
	// return on the fast replica while the repair replay to the victim
	// is still in flight), so a λ mismatch means "not converged yet",
	// not divergence — only failing to converge by the deadline does.
	ncl := client.New(victim, client.WithRetryPolicy(client.RetryPolicy{}))
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := tc.cl.Analyze(ctx, ref); err != nil {
			t.Fatalf("routed analyze during victim rebuild: %v", err)
		}
		nres, err := ncl.Analyze(ctx, ref)
		if err == nil && nres.Lambda.Text == last.Lambda.Text {
			break
		}
		if time.Now().After(deadline) {
			if err != nil {
				t.Fatalf("victim never rebuilt from compacted journal: %v", err)
			}
			t.Fatalf("rebuilt replica λ %s, want %s", nres.Lambda.Text, last.Lambda.Text)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRouterErrorPasses pins 4xx pass-through: a genuinely bad request
// is answered by the backend's (or router's) 4xx, not retried or
// converted to a 5xx.
func TestRouterErrorPasses(t *testing.T) {
	tc := newTestCluster(t)
	resp, err := http.Post(tc.front.URL+"/v1/analyze", "application/json", strings.NewReader(`{"graph": "not a tsg file"}`))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad graph through router: status %d, want 400", resp.StatusCode)
	}
	resp, err = http.Post(tc.front.URL+"/v1/analyze", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("no-ref analyze through router: status %d, want 400", resp.StatusCode)
	}
}

// TestRouterTracesAttributedToGraph checks that the router's request
// trees carry the fingerprint of the graph they served, so
// /debug/trace?graph= on the router returns router.* trees.
func TestRouterTracesAttributedToGraph(t *testing.T) {
	tc := newTestCluster(t)
	ctx := context.Background()
	up, err := tc.cl.UploadText(ctx, pipelineText(t, 4))
	if err != nil {
		t.Fatalf("upload: %v", err)
	}
	ref := client.GraphRef{Fingerprint: up.Fingerprint}
	if _, err := tc.cl.Analyze(ctx, ref); err != nil {
		t.Fatalf("analyze: %v", err)
	}
	if _, err := tc.cl.Edit(ctx, ref, []client.DelayEdit{{Arc: 0, Delay: 3}}); err != nil {
		t.Fatalf("edit: %v", err)
	}

	trace := func(query string) []obs.SpanRecord {
		resp, err := http.Get(tc.front.URL + "/debug/trace" + query)
		if err != nil {
			t.Fatalf("GET /debug/trace%s: %v", query, err)
		}
		defer resp.Body.Close()
		var reply struct {
			Spans []obs.SpanRecord `json:"spans"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
			t.Fatalf("decoding /debug/trace%s: %v", query, err)
		}
		return reply.Spans
	}
	roots := map[string]bool{}
	for _, s := range trace("?graph=" + up.Fingerprint) {
		if s.Parent == 0 {
			if s.Graph != up.Fingerprint {
				t.Errorf("root %s attributed to %q, want %s", s.Name, s.Graph, up.Fingerprint)
			}
			roots[s.Name] = true
		}
	}
	for _, want := range []string{"router.upload", "router.analyze", "router.edit"} {
		if !roots[want] {
			t.Errorf("?graph= returned no %s tree (roots %v)", want, roots)
		}
	}
	if spans := trace("?graph=deadbeef"); len(spans) != 0 {
		t.Fatalf("unknown-graph filter returned %d spans", len(spans))
	}
}

// TestRouterUploadSyncsUnderFanout checks the shape of an upload's
// tree in /debug/trace?format=tree: every router.sync the fan-out runs
// is a child of router.fanout, one per replica.
func TestRouterUploadSyncsUnderFanout(t *testing.T) {
	tc := newTestCluster(t)
	up, err := tc.cl.UploadText(context.Background(), pipelineText(t, 4))
	if err != nil {
		t.Fatalf("upload: %v", err)
	}
	resp, err := http.Get(tc.front.URL + "/debug/trace?format=tree&graph=" + up.Fingerprint)
	if err != nil {
		t.Fatalf("GET /debug/trace: %v", err)
	}
	defer resp.Body.Close()
	var text strings.Builder
	if _, err := io.Copy(&text, resp.Body); err != nil {
		t.Fatalf("reading /debug/trace: %v", err)
	}
	// path[d] is the span name of the current line's ancestor at depth
	// d; WriteTree indents each depth by two spaces.
	var path []string
	syncs := 0
	for _, line := range strings.Split(strings.TrimSpace(text.String()), "\n") {
		name := strings.TrimLeft(line, " ")
		depth := (len(line) - len(name)) / 2
		name, _, _ = strings.Cut(name, " ")
		path = append(path[:depth], name)
		if name != "router.sync" {
			continue
		}
		syncs++
		if depth == 0 || path[depth-1] != "router.fanout" {
			t.Errorf("router.sync at depth %d under %v, want a child of router.fanout\n%s", depth, path[:depth], text.String())
		}
	}
	if syncs != 2 {
		t.Fatalf("upload tree has %d router.sync spans, want one per replica (2)\n%s", syncs, text.String())
	}
}
