package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"tsg/internal/gen"
)

// postEndpoints is every POST route of the protocol; the error-path
// matrix below runs against each one, so adding an endpoint without
// extending the matrix fails the count check in TestBodyLimitEveryPOSTEndpoint.
var postEndpoints = []string{"/v1/graphs", "/v1/analyze", "/v1/slacks", "/v1/whatif", "/v1/edit", "/v1/mc", "/v1/fingerprint"}

// TestBodyLimitEveryPOSTEndpoint pins the MaxBytesReader contract on
// every POST route: a body over the configured limit answers 413, and
// the connection survives (the handler drained/aborted cleanly, so the
// next request on the client works).
func TestBodyLimitEveryPOSTEndpoint(t *testing.T) {
	if len(postEndpoints) != endpoints {
		t.Fatalf("matrix covers %d endpoints, server routes %d — extend postEndpoints", len(postEndpoints), endpoints)
	}
	s := New(Config{MaxBodyBytes: 64})
	srv := httptest.NewServer(s)
	defer srv.Close()

	// Syntactically valid JSON that overflows the limit mid-string, so
	// the decoder keeps reading until MaxBytesReader cuts it off (pure
	// garbage would fail JSON syntax first and legitimately answer 400).
	big := `{"graph": "` + strings.Repeat("x", 4096) + `"}`
	for _, path := range postEndpoints {
		ct := "application/json"
		if path == "/v1/graphs" {
			ct = "text/plain"
		}
		resp, err := srv.Client().Post(srv.URL+path, ct, strings.NewReader(big))
		if err != nil {
			t.Fatalf("POST %s oversized: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s oversized: status %d, want 413", path, resp.StatusCode)
		}
	}
	// The server is still healthy after the whole abuse round.
	resp, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz after abuse: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after abuse: status %d", resp.StatusCode)
	}
}

// TestMalformedJSONEveryEndpoint pins the decode error path on every
// JSON POST route: truncated JSON, valid JSON of the wrong shape, and
// trailing garbage all answer 400 with a JSON error body — never a
// hang, a 500, or a panic.
func TestMalformedJSONEveryEndpoint(t *testing.T) {
	s := New(Config{})
	srv := httptest.NewServer(s)
	defer srv.Close()

	bodies := map[string]string{
		"truncated":        `{"graph": "tsg`,
		"wrong shape":      `[1, 2, 3]`,
		"trailing garbage": `{} {"again": true}`,
	}
	for _, path := range postEndpoints {
		if path == "/v1/graphs" {
			continue // raw .tsg body, not JSON
		}
		for name, body := range bodies {
			resp, err := srv.Client().Post(srv.URL+path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatalf("POST %s %s: %v", path, name, err)
			}
			var e ErrorResponse
			decErr := json.NewDecoder(resp.Body).Decode(&e)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("POST %s with %s JSON: status %d, want 400", path, name, resp.StatusCode)
			}
			if decErr != nil || e.Error == "" {
				t.Errorf("POST %s with %s JSON: error body not decodable (%v)", path, name, decErr)
			}
		}
	}
}

// TestEvictionRacesInFlightRequests hammers a tiny-budget cache with
// more graphs than it can hold while queries run against all of them
// concurrently: entries evict while sibling requests are mid-flight on
// the same engines. Every answer must still be the right λ for its
// graph (an evicted entry recompiles; an in-flight analysis on an
// evicted engine completes on its private entry reference). Runs under
// the CI -race step.
func TestEvictionRacesInFlightRequests(t *testing.T) {
	graphs := make([]string, 6)
	lams := make([]string, len(graphs))
	for i := range graphs {
		g, err := gen.MullerPipeline(3+i, 1, 2.0+float64(i), 1.0)
		if err != nil {
			t.Fatalf("MullerPipeline: %v", err)
		}
		graphs[i] = tsgText(t, g)
	}

	// A budget that holds only a couple of these engines, forcing
	// constant eviction under the mixed traffic.
	ref := New(Config{})
	refSrv := httptest.NewServer(ref)
	for i, text := range graphs {
		var res AnalyzeResponse
		postJSON(t, refSrv, "/v1/analyze", AnalyzeRequest{GraphRef: GraphRef{Graph: text}}, &res, http.StatusOK)
		lams[i] = res.Lambda.Text
	}
	refSrv.Close()

	s := New(Config{CacheBytes: 16 << 10})
	srv := httptest.NewServer(s)
	defer srv.Close()

	const workers = 8
	const iters = 12
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := (w + i) % len(graphs)
				body, _ := json.Marshal(AnalyzeRequest{GraphRef: GraphRef{Graph: graphs[k]}})
				resp, err := srv.Client().Post(srv.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				var res AnalyzeResponse
				err = json.NewDecoder(resp.Body).Decode(&res)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("worker %d graph %d: status %d", w, k, resp.StatusCode)
					return
				}
				if res.Lambda.Text != lams[k] {
					errs <- fmt.Errorf("worker %d graph %d: λ %s, want %s", w, k, res.Lambda.Text, lams[k])
					return
				}
			}
			errs <- nil
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Cache().Stats(); st.Evictions == 0 {
		t.Fatalf("no evictions under the tiny budget (stats %+v); the race this test exists for never ran", st)
	}
}

// TestMCWorkersCapped pins the Monte-Carlo worker cap: every worker is
// a goroutine with its own transient delay columns and rows, so the
// cap bounds what one request runs and allocates; a request above
// MaxMCWorkers answers 400 — refused, not clamped, since answers are
// reproducible only for a fixed (seed, workers) pair — while the cap
// itself is served.
func TestMCWorkersCapped(t *testing.T) {
	s := New(Config{})
	srv := httptest.NewServer(s)
	defer srv.Close()
	ref := GraphRef{Fingerprint: uploadGraph(t, srv, tsgText(t, gen.Oscillator())).Fingerprint}

	body, err := json.Marshal(MCRequest{GraphRef: ref, Samples: 4096, Jitter: 0.1, Workers: MaxMCWorkers + 1})
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := srv.Client().Post(srv.URL+"/v1/mc", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/mc: %v", err)
	}
	var e ErrorResponse
	_ = json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, "workers") {
		t.Fatalf("workers %d: status %d (%q), want 400 naming workers", MaxMCWorkers+1, resp.StatusCode, e.Error)
	}
	postJSON(t, srv, "/v1/mc", MCRequest{GraphRef: ref, Samples: 16, Jitter: 0.1, Workers: MaxMCWorkers}, nil, http.StatusOK)
}
