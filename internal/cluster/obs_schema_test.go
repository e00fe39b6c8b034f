package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"tsg/client"
	"tsg/internal/obs"
	"tsg/internal/serve"
	"tsg/internal/store"
)

// obsSchemaGoldenFile pins the observability schema both daemons
// expose: every /metrics family with its TYPE and label names, and the
// JSON keys of /debug/trace. Label values (node URLs, fingerprints,
// versions) and sample values are left out, so only a change to what
// a scraper or trace reader can rely on shows up as a diff. A change
// meant to move the schema replaces the file with the report
// TestObsSchemaMatchesGolden prints.
const obsSchemaGoldenFile = "testdata/obs_schema_golden.txt"

// obsSchemaReport boots one durable, admission-limited backend behind
// an obs-enabled router, drives upload, analyze, whatif and edit
// through the router, and renders the schema of both daemons' /metrics
// and /debug/trace.
func obsSchemaReport(t *testing.T) string {
	t.Helper()
	st, rec, err := store.Open(t.TempDir(), store.Options{NoAutoCompact: true})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	backend := serve.New(serve.Config{Store: st, MaxConcurrent: 4})
	if err := backend.Recover(rec); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	bsrv := httptest.NewServer(backend)
	t.Cleanup(bsrv.Close)
	r, err := New(Config{Nodes: []string{bsrv.URL}, Replicas: 1, ProbeInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rsrv := httptest.NewServer(r)
	t.Cleanup(rsrv.Close)

	ctx := context.Background()
	cl := client.New(rsrv.URL, client.WithRetryPolicy(client.RetryPolicy{}))
	up, err := cl.UploadText(ctx, pipelineText(t, 4))
	if err != nil {
		t.Fatalf("upload: %v", err)
	}
	ref := client.GraphRef{Fingerprint: up.Fingerprint}
	if _, err := cl.Analyze(ctx, ref); err != nil {
		t.Fatalf("analyze: %v", err)
	}
	if _, err := cl.WhatIf(ctx, ref, []client.WhatIfQuery{{Arc: 0, Delay: 5}}); err != nil {
		t.Fatalf("whatif: %v", err)
	}
	if _, err := cl.Edit(ctx, ref, []client.DelayEdit{{Arc: 0, Delay: 3}}); err != nil {
		t.Fatalf("edit: %v", err)
	}

	var b strings.Builder
	var anyKeys []string
	for _, d := range []struct {
		name string
		url  string
	}{{"tsgrouter", rsrv.URL}, {"tsgserved", bsrv.URL}} {
		fmt.Fprintf(&b, "# %s /metrics\n", d.name)
		for _, line := range metricsSchema(t, d.url) {
			fmt.Fprintln(&b, line)
		}
		top, every, any := traceSchema(t, d.url)
		fmt.Fprintf(&b, "# %s /debug/trace\n", d.name)
		fmt.Fprintf(&b, "keys %s\n", strings.Join(top, ","))
		fmt.Fprintf(&b, "span keys in every record %s\n", strings.Join(every, ","))
		anyKeys = append(anyKeys, any...)
	}
	fmt.Fprintf(&b, "# span keys in any record of either daemon\n%s\n", strings.Join(sortedSet(anyKeys), ","))
	return b.String()
}

// metricsSchema scrapes url/metrics and returns one "family TYPE
// label,names" line per family, sorted by family name. The label names
// are the union over the family's samples (le included for
// histograms), "-" for none.
func metricsSchema(t *testing.T, url string) []string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("GET %s/metrics: %v", url, err)
	}
	defer resp.Body.Close()
	fams, problems, err := obs.Parse(resp.Body)
	if err != nil || len(problems) != 0 {
		t.Fatalf("parsing %s/metrics: %v %v", url, err, problems)
	}
	var out []string
	for _, f := range fams {
		var labels []string
		for _, s := range f.Samples {
			for k := range s.Labels {
				labels = append(labels, k)
			}
		}
		names := strings.Join(sortedSet(labels), ",")
		if names == "" {
			names = "-"
		}
		out = append(out, fmt.Sprintf("%s %s %s", f.Name, f.Type, names))
	}
	sort.Strings(out)
	return out
}

// traceSchema fetches url/debug/trace and returns its top-level keys,
// the span keys every record carries and the span keys any record
// carries, each sorted.
func traceSchema(t *testing.T, url string) (top, every, any []string) {
	t.Helper()
	resp, err := http.Get(url + "/debug/trace")
	if err != nil {
		t.Fatalf("GET %s/debug/trace: %v", url, err)
	}
	defer resp.Body.Close()
	var reply map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		t.Fatalf("decoding %s/debug/trace: %v", url, err)
	}
	for k := range reply {
		top = append(top, k)
	}
	var spans []map[string]json.RawMessage
	if err := json.Unmarshal(reply["spans"], &spans); err != nil || len(spans) == 0 {
		t.Fatalf("%s/debug/trace spans: %d records, err %v", url, len(spans), err)
	}
	count := map[string]int{}
	for _, s := range spans {
		for k := range s {
			count[k]++
			any = append(any, k)
		}
	}
	for k, n := range count {
		if n == len(spans) {
			every = append(every, k)
		}
	}
	return sortedSet(top), sortedSet(every), sortedSet(any)
}

func sortedSet(xs []string) []string {
	seen := map[string]bool{}
	out := []string{}
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	sort.Strings(out)
	return out
}

// TestObsSchemaMatchesGolden checks that both daemons keep exposing the
// metric families, label names and trace keys the golden file lists.
func TestObsSchemaMatchesGolden(t *testing.T) {
	got := obsSchemaReport(t)
	want, err := os.ReadFile(obsSchemaGoldenFile)
	if err != nil {
		t.Fatalf("reading %s: %v\nreport:\n%s", obsSchemaGoldenFile, err, got)
	}
	if got != string(want) {
		t.Fatalf("observability schema differs from %s; report:\n%s", obsSchemaGoldenFile, got)
	}
}
