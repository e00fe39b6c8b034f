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

	"tsg/client"
	"tsg/internal/fault"
	"tsg/internal/obs"
	"tsg/internal/serve"
)

// tee serves a backend and remembers, per /v1 path, the last request
// body it received and the last response body it wrote, so a test can
// compare what the router relayed against what the backend actually
// said. It also counts 5xx answers.
type tee struct {
	h     http.Handler
	mu    sync.Mutex
	reqs  map[string][]byte
	resps map[string][]byte
	fails atomic.Int64
}

func newTee(h http.Handler) *tee {
	return &tee{h: h, reqs: map[string][]byte{}, resps: map[string][]byte{}}
}

func (b *tee) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, _ := io.ReadAll(r.Body)
	r.Body = io.NopCloser(bytes.NewReader(body))
	rec := httptest.NewRecorder()
	b.h.ServeHTTP(rec, r)
	if rec.Code/100 == 5 {
		b.fails.Add(1)
	}
	if strings.HasPrefix(r.URL.Path, "/v1/") {
		b.mu.Lock()
		b.reqs[r.URL.Path] = body
		b.resps[r.URL.Path] = rec.Body.Bytes()
		b.mu.Unlock()
	}
	for k, v := range rec.Header() {
		w.Header()[k] = v
	}
	w.WriteHeader(rec.Code)
	_, _ = w.Write(rec.Body.Bytes())
}

func (b *tee) last(path string) (req, resp []byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.reqs[path], b.resps[path]
}

// oneNode is a router over a single teed backend, so every routed read
// has exactly one place it can have been answered.
func oneNode(t *testing.T) (*tee, string, *Router, string) {
	t.Helper()
	b := newTee(serve.New(serve.Config{}))
	back := httptest.NewServer(b)
	t.Cleanup(back.Close)
	r, err := New(Config{Nodes: []string{back.URL}, Replicas: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	front := httptest.NewServer(r)
	t.Cleanup(front.Close)
	return b, back.URL, r, front.URL
}

func post(t *testing.T, url, body string) (int, string, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s: %v", url, err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), out
}

// TestRoutedReadsAreByteIdentical pins the byte-level forward: for every
// read endpoint the client gets exactly the bytes the backend wrote,
// and for the stateless answers those equal what the same backend
// gives when asked directly.
func TestRoutedReadsAreByteIdentical(t *testing.T) {
	b, backURL, _, frontURL := oneNode(t)
	up, err := client.New(frontURL).UploadText(context.Background(), pipelineText(t, 4))
	if err != nil {
		t.Fatalf("upload: %v", err)
	}
	ref := fmt.Sprintf(`"fingerprint":%q`, up.Fingerprint)
	for _, c := range []struct {
		path, body string
		stateless  bool // false: the answer carries cumulative engine stats
	}{
		{"/v1/analyze", "{" + ref + "}", true},
		{"/v1/slacks", "{" + ref + "}", true},
		{"/v1/whatif", "{" + ref + `,"queries":[{"arc":0,"delay":3.5},{"arc":2,"delay":0.25}]}`, false},
		{"/v1/mc", "{" + ref + `,"samples":64,"seed":3,"workers":1,"jitter":0.1,"quantiles":[0.5,0.9]}`, true},
	} {
		code, _, direct := post(t, backURL+c.path, c.body)
		if code != http.StatusOK {
			t.Fatalf("%s direct: HTTP %d %s", c.path, code, direct)
		}
		code, ct, routed := post(t, frontURL+c.path, c.body)
		if code != http.StatusOK || ct != "application/json" {
			t.Fatalf("%s routed: HTTP %d, Content-Type %q: %s", c.path, code, ct, routed)
		}
		fwdReq, backResp := b.last(c.path)
		if !bytes.Equal(fwdReq, []byte(c.body)) {
			t.Errorf("%s: backend got %s, want the client's body %s", c.path, fwdReq, c.body)
		}
		if !bytes.Equal(routed, backResp) {
			t.Errorf("%s: routed body differs from the backend's reply:\nrouted  %s\nbackend %s", c.path, routed, backResp)
		}
		if c.stateless && !bytes.Equal(routed, direct) {
			t.Errorf("%s: routed body differs from the direct answer:\nrouted %s\ndirect %s", c.path, routed, direct)
		}
	}
}

// TestRoutedReadBackendErrors pins that a backend's own 4xx reaches
// the caller with the backend's status and message, for errors only
// the backend can see: a what-if arc out of range, and an unknown JSON
// field (the router decodes only the graph reference).
func TestRoutedReadBackendErrors(t *testing.T) {
	_, backURL, _, frontURL := oneNode(t)
	up, err := client.New(frontURL).UploadText(context.Background(), pipelineText(t, 4))
	if err != nil {
		t.Fatalf("upload: %v", err)
	}
	ref := fmt.Sprintf(`"fingerprint":%q`, up.Fingerprint)
	for _, c := range []struct{ path, body string }{
		{"/v1/whatif", "{" + ref + `,"queries":[{"arc":100000,"delay":1}]}`},
		{"/v1/analyze", "{" + ref + `,"bogus":1}`},
		{"/v1/mc", "{" + ref + `,"quantiles":[1.5]}`},
	} {
		dCode, _, dBody := post(t, backURL+c.path, c.body)
		rCode, _, rBody := post(t, frontURL+c.path, c.body)
		if dCode/100 != 4 || rCode != dCode {
			t.Fatalf("%s %s: routed HTTP %d, direct HTTP %d", c.path, c.body, rCode, dCode)
		}
		var d, r serve.ErrorResponse
		if json.Unmarshal(dBody, &d) != nil || json.Unmarshal(rBody, &r) != nil || d.Error == "" || r.Error != d.Error {
			t.Fatalf("%s: routed error %s, direct error %s", c.path, rBody, dBody)
		}
	}
}

// TestInlineReadJournaledByFingerprint pins the one body rewrite: a read
// that inlines .tsg text becomes the graph's journal baseline, and the
// backend receives it by fingerprint with every other field intact.
func TestInlineReadJournaledByFingerprint(t *testing.T) {
	b, _, r, frontURL := oneNode(t)
	text := pipelineText(t, 4)
	fp, _, _, _, err := serve.FingerprintText(text)
	if err != nil {
		t.Fatalf("FingerprintText: %v", err)
	}
	inline, _ := json.Marshal(map[string]any{
		"Graph":   text, // keys match case-insensitively, as in the backend
		"queries": []client.WhatIfQuery{{Arc: 1, Delay: 4}},
	})
	code, _, routed := post(t, frontURL+"/v1/whatif", string(inline))
	if code != http.StatusOK {
		t.Fatalf("inline what-if: HTTP %d %s", code, routed)
	}
	gs := r.lookupGraph(fp)
	if gs == nil || !gs.hasText() {
		t.Fatalf("inline read left no journal baseline for %s", fp)
	}
	fwd, _ := b.last("/v1/whatif")
	var got map[string]json.RawMessage
	if err := json.Unmarshal(fwd, &got); err != nil {
		t.Fatalf("forwarded body %s: %v", fwd, err)
	}
	want := fmt.Sprintf(`{"fingerprint":%q,"queries":[{"arc":1,"delay":4}]}`, fp)
	if len(got) != 2 || string(got["fingerprint"]) != fmt.Sprintf("%q", fp) || string(got["queries"]) != `[{"arc":1,"delay":4}]` {
		t.Fatalf("forwarded body %s, want %s", fwd, want)
	}
	// The same question by fingerprint gets the same λ.
	code, _, byFP := post(t, frontURL+"/v1/whatif", want)
	var a, c serve.WhatIfResponse
	if code != http.StatusOK || json.Unmarshal(routed, &a) != nil || json.Unmarshal(byFP, &c) != nil ||
		len(a.Lambdas) != 1 || len(c.Lambdas) != 1 || a.Lambdas[0] != c.Lambdas[0] {
		t.Fatalf("inline answer %s, by-fingerprint answer %s", routed, byFP)
	}
}

// TestHedgeLoserOutlivesRequestSpan runs hedged reads with tracing on
// while a fault rule makes a random half of the hops straggle, with the
// hedge delay pinned below the straggle. Many hedges then fire around
// the moment the primary answers, so a losing attempt often starts its
// hop span after the request's root span has Ended and gone back to the
// tracer pool. Under -race that used to report the loser reading the
// pooled root span; now every hop span must land under its own root.
func TestHedgeLoserOutlivesRequestSpan(t *testing.T) {
	var urls []string
	for i := 0; i < 2; i++ {
		back := httptest.NewServer(serve.New(serve.Config{}))
		t.Cleanup(back.Close)
		urls = append(urls, back.URL)
	}
	plan := fault.NewPlan(1).Add(fault.Rule{Route: "/v1/analyze", Prob: 0.5, Kind: fault.KindLatency, Latency: 3 * time.Millisecond})
	r, err := New(Config{
		Nodes:      urls,
		Replicas:   2,
		HedgeFrac:  1,
		HTTPClient: &http.Client{Transport: fault.NewTransport(nil, plan)},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	front := httptest.NewServer(r)
	t.Cleanup(front.Close)
	ctx := context.Background()
	// Upload to the backends directly: with no journal to sync, a
	// hedge attempt's first act is its hop span.
	text := pipelineText(t, 4)
	var ref client.GraphRef
	for _, u := range urls {
		up, err := client.New(u).UploadText(ctx, text)
		if err != nil {
			t.Fatalf("upload: %v", err)
		}
		ref = client.ByFingerprint(up.Fingerprint)
	}
	const clients, reads = 4, 100
	lambdas := make(chan string, clients*reads)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := client.New(front.URL, client.WithRetryPolicy(client.RetryPolicy{}))
			for i := 0; i < reads; i++ {
				for k := 0; k < latWindow; k++ {
					r.lat.observe(time.Millisecond) // pins the hedge delay at 1ms
				}
				res, err := cl.Analyze(ctx, ref)
				if err != nil {
					t.Errorf("read: %v", err)
					return
				}
				lambdas <- res.Lambda.Text
			}
		}()
	}
	wg.Wait()
	close(lambdas)
	want := ""
	for l := range lambdas {
		if want == "" {
			want = l
		} else if l != want {
			t.Fatalf("λ %s, want %s", l, want)
		}
	}
	if att, wins := r.hedgeAttempts.Load(), r.hedgeWins.Load(); att == wins {
		t.Fatalf("no hedge lost (%d attempts, %d wins)", att, wins)
	}
	// Every hop span, losers included, hangs under the root of its own
	// trace once the losers have finished.
	hopName := obs.NameOf(uint32(nameHop))
	deadline := time.Now().Add(5 * time.Second)
	for {
		spans := r.tel.tracer.Snapshot()
		roots := map[uint64]uint64{}
		for _, s := range spans {
			if s.Parent == 0 {
				roots[s.ID] = s.Trace
			}
		}
		hops, orphans := 0, 0
		for _, s := range spans {
			if s.Name == hopName {
				hops++
				if tr, ok := roots[s.Parent]; !ok || tr != s.Trace {
					orphans++
				}
			}
		}
		if orphans == 0 && hops >= clients*reads+int(r.hedgeAttempts.Load()) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d hop spans for %d reads and %d hedges, %d not under their own root",
				hops, clients*reads, r.hedgeAttempts.Load(), orphans)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

var readPaths = [...]string{"/v1/analyze", "/v1/slacks", "/v1/whatif", "/v1/mc"}

// mcBudget keeps fuzzed Monte-Carlo requests small: a body asking for
// more than 4096 samples answers 400 before it reaches the backend.
// Without it a mutated sample count turns the fuzz run into a
// Monte-Carlo benchmark. To the router it is a backend 4xx like any
// other. Worker counts need no budget here: the backend refuses more
// than serve.MaxMCWorkers itself.
type mcBudget struct{ h http.Handler }

func (m mcBudget) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v1/mc" {
		body, _ := io.ReadAll(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(body))
		var req struct {
			Samples    float64 `json:"samples"`
			MinSamples float64 `json:"min_samples"`
		}
		if json.Unmarshal(body, &req) == nil && (req.Samples > 4096 || req.MinSamples > 4096) {
			w.WriteHeader(http.StatusBadRequest)
			_, _ = w.Write([]byte(`{"error":"fuzz budget: at most 4096 samples"}` + "\n"))
			return
		}
	}
	m.h.ServeHTTP(w, r)
}

// FuzzRouterRead throws arbitrary bodies at the four read endpoints of
// a router over two real backends. Every answer must be a 2xx or a
// 4xx: the router may pass on a backend's 5xx, but adds none of its
// own, and nothing panics. No node's breaker may trip unless a backend
// answered 5xx: a 4xx is the client's fault, not the node's.
func FuzzRouterRead(f *testing.F) {
	// The committed seed corpus (testdata/fuzz/FuzzRouterRead) reads
	// this graph by its fingerprint.
	const corpusFingerprint = "dc01830c1ff02cb4c607ababd56475f1809d63d6485a0b37f19a7cd223a2ed36"
	text := pipelineText(f, 3)
	if fp, _, _, _, err := serve.FingerprintText(text); err != nil || fp != corpusFingerprint {
		f.Fatalf("fuzz graph fingerprint %s (%v), the seed corpus expects %s", fp, err, corpusFingerprint)
	}
	var backs []*tee
	var urls []string
	for i := 0; i < 2; i++ {
		b := newTee(mcBudget{serve.New(serve.Config{CacheBytes: 64 << 20, RequestTimeout: 5 * time.Second, DisableObs: true})})
		back := httptest.NewServer(b)
		f.Cleanup(back.Close)
		backs = append(backs, b)
		urls = append(urls, back.URL)
	}
	r, err := New(Config{Nodes: urls, Replicas: 2, MaxBodyBytes: 1 << 16, HopTimeout: 10 * time.Second})
	if err != nil {
		f.Fatalf("New: %v", err)
	}
	r.Start()
	f.Cleanup(r.Stop)
	up := httptest.NewRecorder()
	r.ServeHTTP(up, httptest.NewRequest(http.MethodPost, "/v1/graphs", strings.NewReader(text)))
	if up.Code != http.StatusOK {
		f.Fatalf("upload: HTTP %d %s", up.Code, up.Body)
	}

	f.Fuzz(func(t *testing.T, ep uint8, body []byte) {
		path := readPaths[int(ep)%len(readPaths)]
		rec := httptest.NewRecorder()
		r.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if backs[0].fails.Load()+backs[1].fails.Load() > 0 {
			return // a backend failed first; relaying that, or tripping on it, is allowed
		}
		if rec.Code/100 != 2 && rec.Code/100 != 4 {
			t.Fatalf("%s %q: router answered HTTP %d: %s", path, body, rec.Code, rec.Body.Bytes())
		}
		for _, u := range urls {
			if trips := r.nodeByURL(u).trips.Load(); trips > 0 {
				t.Fatalf("%s %q: node %s tripped %d times, but no backend answered 5xx", path, body, u, trips)
			}
		}
	})
}
