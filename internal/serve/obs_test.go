package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"tsg/internal/gen"
	"tsg/internal/obs"
)

// uploadGraph posts a graph as raw TSG text and returns the upload
// reply.
func uploadGraph(t testing.TB, srv *httptest.Server, text string) UploadResponse {
	t.Helper()
	resp, err := srv.Client().Post(srv.URL+"/v1/graphs", "text/plain", strings.NewReader(text))
	if err != nil {
		t.Fatalf("upload: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload: status %d", resp.StatusCode)
	}
	var up UploadResponse
	if err := json.NewDecoder(resp.Body).Decode(&up); err != nil {
		t.Fatalf("decoding upload reply: %v", err)
	}
	return up
}

// getJSON fetches a GET endpoint and decodes its JSON reply.
func getJSON(t testing.TB, srv *httptest.Server, path string, out interface{}) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decoding %s: %v", path, err)
	}
}

// traceReply mirrors the /debug/trace JSON shape.
type traceReply struct {
	Recorded uint64           `json:"recorded_total"`
	Spans    []obs.SpanRecord `json:"spans"`
}

// TestEveryV1EndpointTracesToKernelDepth drives each /v1 endpoint once
// and asserts, through /debug/trace, that its request tree reaches the
// engine phase level — the full-stack contract of the tracer.
func TestEveryV1EndpointTracesToKernelDepth(t *testing.T) {
	g := gen.Oscillator()
	text := tsgText(t, g)
	s := New(Config{MaxConcurrent: 4})
	srv := httptest.NewServer(s)
	defer srv.Close()

	up := uploadGraph(t, srv, text)
	ref := GraphRef{Fingerprint: up.Fingerprint}
	postJSON(t, srv, "/v1/analyze", AnalyzeRequest{GraphRef: ref}, nil, http.StatusOK)
	postJSON(t, srv, "/v1/slacks", SlacksRequest{GraphRef: ref}, nil, http.StatusOK)
	postJSON(t, srv, "/v1/whatif", WhatIfRequest{GraphRef: ref, Queries: []WhatIfQuery{{Arc: 0, Delay: 5}}}, nil, http.StatusOK)
	postJSON(t, srv, "/v1/edit", EditRequest{GraphRef: ref, Edits: []DelayEdit{{Arc: 0, Delay: 3}}}, nil, http.StatusOK)
	postJSON(t, srv, "/v1/mc", MCRequest{GraphRef: ref, Samples: 32, Jitter: 0.1}, nil, http.StatusOK)

	var tr traceReply
	getJSON(t, srv, "/debug/trace", &tr)
	if tr.Recorded == 0 || len(tr.Spans) == 0 {
		t.Fatalf("no spans recorded: %+v", tr)
	}
	trees := obs.BuildTrees(tr.Spans)

	// Each endpoint's tree must contain an engine-level descendant:
	// the span tree goes HTTP edge → cache/admission → engine phases.
	wantKernel := map[string]bool{
		"serve.upload":  false, // compile happens under upload's resolve
		"serve.analyze": false,
		"serve.slacks":  false,
		"serve.whatif":  false,
		"serve.edit":    false,
		"serve.mc":      false,
	}
	var walk func(n *obs.TreeNode) bool
	walk = func(n *obs.TreeNode) bool {
		if strings.HasPrefix(n.Name, "engine.") {
			return true
		}
		for _, c := range n.Children {
			if walk(c) {
				return true
			}
		}
		return false
	}
	for _, root := range trees {
		if _, tracked := wantKernel[root.Name]; !tracked {
			continue
		}
		if walk(root) {
			wantKernel[root.Name] = true
		}
	}
	for ep, ok := range wantKernel {
		if !ok {
			t.Errorf("%s request tree never reached an engine.* span", ep)
		}
	}

	// The graph filter keeps whole traces for the fingerprint and
	// nothing for unknown fingerprints.
	var filtered traceReply
	getJSON(t, srv, "/debug/trace?graph="+up.Fingerprint, &filtered)
	if len(filtered.Spans) == 0 {
		t.Fatal("graph-filtered trace is empty")
	}
	var none traceReply
	getJSON(t, srv, "/debug/trace?graph=deadbeef", &none)
	if len(none.Spans) != 0 {
		t.Fatalf("unknown-graph filter returned %d spans", len(none.Spans))
	}

	// format=tree renders the indented text form.
	resp, err := srv.Client().Get(srv.URL + "/debug/trace?format=tree")
	if err != nil {
		t.Fatalf("GET trace tree: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading tree: %v", err)
	}
	if !strings.Contains(string(body), "serve.analyze") {
		t.Fatalf("tree rendering missing serve.analyze:\n%s", body)
	}
}

// TestHotArcsAndCacheDebug runs an edit/what-if workload and checks the
// hot-arc accounting surfaces through /debug/hotarcs and /debug/cache.
func TestHotArcsAndCacheDebug(t *testing.T) {
	g := gen.Oscillator()
	text := tsgText(t, g)
	s := New(Config{})
	srv := httptest.NewServer(s)
	defer srv.Close()

	up := uploadGraph(t, srv, text)
	ref := GraphRef{Fingerprint: up.Fingerprint}
	// Arc 1 is touched 3× (2 what-ifs + 1 edit), arc 0 once.
	postJSON(t, srv, "/v1/whatif", WhatIfRequest{GraphRef: ref, Queries: []WhatIfQuery{{Arc: 1, Delay: 4}, {Arc: 1, Delay: 6}, {Arc: 0, Delay: 2}}}, nil, http.StatusOK)
	postJSON(t, srv, "/v1/edit", EditRequest{GraphRef: ref, Edits: []DelayEdit{{Arc: 1, Delay: 9}}}, nil, http.StatusOK)

	var hot struct {
		Graphs []hotArcReport `json:"graphs"`
	}
	getJSON(t, srv, "/debug/hotarcs", &hot)
	if len(hot.Graphs) != 1 {
		t.Fatalf("want 1 graph in hotarcs, got %d", len(hot.Graphs))
	}
	rep := hot.Graphs[0]
	if rep.Fingerprint != up.Fingerprint || rep.Touches != 4 {
		t.Fatalf("bad hotarcs report: %+v", rep)
	}
	if len(rep.Arcs) == 0 || rep.Arcs[0].Arc != 1 || rep.Arcs[0].Touches != 3 {
		t.Fatalf("arc 1 should lead with 3 touches: %+v", rep.Arcs)
	}

	var cache struct {
		Stats   CacheStats        `json:"stats"`
		Entries []debugCacheEntry `json:"entries"`
	}
	getJSON(t, srv, "/debug/cache", &cache)
	if len(cache.Entries) != 1 || cache.Entries[0].Fingerprint != up.Fingerprint {
		t.Fatalf("bad /debug/cache entries: %+v", cache.Entries)
	}
	if cache.Entries[0].Requests < 3 || cache.Entries[0].CostBytes <= 0 {
		t.Fatalf("entry accounting off: %+v", cache.Entries[0])
	}
}

// TestMetricsExpositionLintsClean scrapes /metrics after mixed traffic
// and runs it through the package's own exposition parser: every family
// must carry HELP/TYPE, counters must end in _total, histograms must be
// cumulative with +Inf — machine-readable, not greppable-by-luck.
func TestMetricsExpositionLintsClean(t *testing.T) {
	g := gen.Oscillator()
	text := tsgText(t, g)
	s := New(Config{MaxConcurrent: 2, Version: "test-1.2.3"})
	srv := httptest.NewServer(s)
	defer srv.Close()

	up := uploadGraph(t, srv, text)
	ref := GraphRef{Fingerprint: up.Fingerprint}
	postJSON(t, srv, "/v1/analyze", AnalyzeRequest{GraphRef: ref}, nil, http.StatusOK)
	postJSON(t, srv, "/v1/whatif", WhatIfRequest{GraphRef: ref, Queries: []WhatIfQuery{{Arc: 0, Delay: 5}}}, nil, http.StatusOK)

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	fams, problems, err := obs.Parse(resp.Body)
	if err != nil {
		t.Fatalf("parsing exposition: %v", err)
	}
	if len(problems) != 0 {
		t.Fatalf("exposition lint problems: %v", problems)
	}
	for _, want := range []struct {
		name   string
		labels map[string]string
		min    float64
	}{
		{"tsgserve_http_requests_total", map[string]string{"endpoint": "analyze"}, 1},
		{"tsgserve_http_request_duration_seconds_count", map[string]string{"endpoint": "analyze"}, 1},
		{"tsgserve_engine_phase_seconds_count", map[string]string{"phase": "pass1"}, 1},
		{"tsgserve_build_info", map[string]string{"version": "test-1.2.3"}, 1},
		{"tsgserve_graph_requests", map[string]string{"graph": up.Fingerprint}, 1},
	} {
		v, ok := obs.FindSample(fams, want.name, want.labels)
		if !ok || v < want.min {
			t.Errorf("series %s%v: got %v (found=%v), want >= %v", want.name, want.labels, v, ok, want.min)
		}
	}
}

// TestDisableObs checks the off switch: no tracer cost, /metrics and
// /debug/trace answer 404, and requests still serve correctly — the
// compiled-out baseline of the OBS experiment.
func TestDisableObs(t *testing.T) {
	g := gen.Oscillator()
	text := tsgText(t, g)
	s := New(Config{DisableObs: true})
	srv := httptest.NewServer(s)
	defer srv.Close()

	up := uploadGraph(t, srv, text)
	postJSON(t, srv, "/v1/analyze", AnalyzeRequest{GraphRef: GraphRef{Fingerprint: up.Fingerprint}}, nil, http.StatusOK)

	for _, path := range []string{"/metrics", "/debug/trace"} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s with DisableObs: status %d, want 404", path, resp.StatusCode)
		}
	}
}
