package client_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tsg"
	"tsg/client"
	"tsg/internal/gen"
	"tsg/internal/serve"
)

// flaky503 answers 503 + Retry-After for the first `sheds` requests to
// each path, then proxies to the real serve handler — a server that
// recovers from a transient overload.
type flaky503 struct {
	inner http.Handler
	sheds int32
	seen  atomic.Int32
}

func (f *flaky503) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if f.seen.Add(1) <= f.sheds {
		w.Header().Set("Retry-After", "0")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(serve.ErrorResponse{Error: "overloaded: retry"})
		return
	}
	f.inner.ServeHTTP(w, r)
}

func TestRetryRecoversFrom503(t *testing.T) {
	s := serve.New(serve.Config{})
	f := &flaky503{inner: s, sheds: 2}
	srv := httptest.NewServer(f)
	t.Cleanup(srv.Close)

	cl := client.New(srv.URL,
		client.WithHTTPClient(srv.Client()),
		client.WithRetries(3),
		client.WithBackoff(time.Millisecond, 5*time.Millisecond))

	g := gen.Oscillator()
	up, err := cl.Upload(context.Background(), g)
	if err != nil {
		t.Fatalf("Upload through 2 sheds: %v", err)
	}
	if up.Fingerprint != tsg.Fingerprint(g) {
		t.Fatalf("fingerprint %s after retries, want %s", up.Fingerprint, tsg.Fingerprint(g))
	}
	if n := f.seen.Load(); n != 3 {
		t.Fatalf("server saw %d attempts, want 3 (2 sheds + 1 success)", n)
	}
}

func TestRetryExhaustionSurfacesAPIError(t *testing.T) {
	s := serve.New(serve.Config{})
	f := &flaky503{inner: s, sheds: 1 << 30} // never recovers
	srv := httptest.NewServer(f)
	t.Cleanup(srv.Close)

	cl := client.New(srv.URL,
		client.WithHTTPClient(srv.Client()),
		client.WithRetries(2),
		client.WithBackoff(time.Millisecond, 2*time.Millisecond))

	_, err := cl.Analyze(context.Background(), client.ByFingerprint("deadbeef"))
	var api *client.APIError
	if !errors.As(err, &api) {
		t.Fatalf("want *APIError after exhausted 503 retries, got %T: %v", err, err)
	}
	if api.Status != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", api.Status)
	}
	var unreach *client.UnreachableError
	if errors.As(err, &unreach) {
		t.Fatal("503 replies are HTTP answers, not unreachability")
	}
	if n := f.seen.Load(); n != 3 {
		t.Fatalf("server saw %d attempts, want 3 (1 + 2 retries)", n)
	}
}

func TestNoRetryOn4xx(t *testing.T) {
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(w).Encode(serve.ErrorResponse{Error: "bad request"})
	}))
	t.Cleanup(srv.Close)

	cl := client.New(srv.URL, client.WithHTTPClient(srv.Client()), client.WithRetries(5))
	_, err := cl.Analyze(context.Background(), client.ByFingerprint("x"))
	var api *client.APIError
	if !errors.As(err, &api) || api.Status != http.StatusBadRequest {
		t.Fatalf("want 400 APIError, got %v", err)
	}
	if n := hits.Load(); n != 1 {
		t.Fatalf("4xx was retried: %d attempts", n)
	}
}

func TestUnreachableAfterTransportFailures(t *testing.T) {
	// A server that existed and is gone: connection refused every time.
	srv := httptest.NewServer(http.NotFoundHandler())
	url := srv.URL
	srv.Close()

	cl := client.New(url,
		client.WithRetries(2),
		client.WithBackoff(time.Millisecond, 2*time.Millisecond),
		client.WithTimeout(time.Second))

	_, err := cl.Health(context.Background())
	var unreach *client.UnreachableError
	if !errors.As(err, &unreach) {
		t.Fatalf("want *UnreachableError, got %T: %v", err, err)
	}
	if unreach.Attempts != 3 {
		t.Fatalf("Attempts = %d, want 3", unreach.Attempts)
	}
	if !strings.Contains(err.Error(), "server unreachable after 3 attempts") {
		t.Fatalf("message %q lacks the unreachable preamble", err.Error())
	}
	if !strings.Contains(err.Error(), url) {
		t.Fatalf("message %q lacks the base URL", err.Error())
	}
}

func TestContextCancelStopsRetries(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	url := srv.URL
	srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cl := client.New(url, client.WithRetries(5), client.WithBackoff(time.Second, time.Second))
	start := time.Now()
	_, err := cl.Health(ctx)
	if err == nil {
		t.Fatal("want error from cancelled context")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("cancelled request took %v — retries did not stop", d)
	}
}

// TestEditRetryAppliesExactlyOnce replays the lost-response scenario:
// the server applies an edit but the reply never reaches the client,
// which retries the same stamped request. The dedupe table must answer
// the retry without re-applying.
type dropFirstEditReply struct {
	inner   http.Handler
	dropped atomic.Bool
}

func (d *dropFirstEditReply) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v1/edit" && d.dropped.CompareAndSwap(false, true) {
		// Let the server apply the edit, then destroy the reply so the
		// client sees a transport error.
		rec := httptest.NewRecorder()
		d.inner.ServeHTTP(rec, r)
		hj, ok := w.(http.Hijacker)
		if !ok {
			panic("response writer is not a hijacker")
		}
		conn, _, err := hj.Hijack()
		if err != nil {
			panic(err)
		}
		conn.Close()
		return
	}
	d.inner.ServeHTTP(w, r)
}

func TestEditRetryAppliesExactlyOnce(t *testing.T) {
	s := serve.New(serve.Config{})
	d := &dropFirstEditReply{inner: s}
	srv := httptest.NewServer(d)
	t.Cleanup(srv.Close)

	cl := client.New(srv.URL,
		client.WithHTTPClient(srv.Client()),
		client.WithRetries(3),
		client.WithBackoff(time.Millisecond, 5*time.Millisecond))
	ctx := context.Background()

	g := gen.Oscillator()
	up, err := cl.Upload(ctx, g)
	if err != nil {
		t.Fatalf("Upload: %v", err)
	}
	ref := client.ByFingerprint(up.Fingerprint)

	// The first edit's reply is dropped post-apply; the client retries
	// under the same (client, seq) stamp and must get a deduped ack with
	// the λ of a single application.
	ed, err := cl.Edit(ctx, ref, []client.DelayEdit{{Arc: 0, Delay: 9.25}})
	if err != nil {
		t.Fatalf("Edit through dropped reply: %v", err)
	}
	if !ed.Deduped {
		t.Fatal("retried edit was not deduped — it re-applied")
	}

	// The session baseline reflects exactly one application.
	res, err := cl.Analyze(ctx, ref)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if res.Lambda.Text != ed.Lambda.Text {
		t.Fatalf("post-retry λ %s != edit ack λ %s", res.Lambda.Text, ed.Lambda.Text)
	}

	// A fresh edit gets a fresh seq and applies normally.
	ed2, err := cl.Edit(ctx, ref, []client.DelayEdit{{Arc: 0, Delay: 3.5}})
	if err != nil {
		t.Fatalf("second Edit: %v", err)
	}
	if ed2.Deduped || ed2.Applied != 1 {
		t.Fatalf("second edit deduped=%v applied=%d, want fresh apply", ed2.Deduped, ed2.Applied)
	}
}

func TestClientIDStampsAreUnique(t *testing.T) {
	a, b := client.New("http://x"), client.New("http://x")
	if a.ClientID() == b.ClientID() {
		t.Fatalf("two clients share id %s", a.ClientID())
	}
	if !strings.HasPrefix(a.ClientID(), "cli-") {
		t.Fatalf("client id %q lacks cli- prefix", a.ClientID())
	}
}

// TestPostRawRetriesAndClassifiesLikeTypedCalls pins the forwarding
// primitive: a 2xx reply comes back byte for byte after the same 503
// retries the typed calls make, and a 4xx is the same *APIError.
func TestPostRawRetriesAndClassifiesLikeTypedCalls(t *testing.T) {
	s := serve.New(serve.Config{})
	f := &flaky503{inner: s, sheds: 1}
	srv := httptest.NewServer(f)
	t.Cleanup(srv.Close)
	cl := client.New(srv.URL, client.WithRetries(2), client.WithBackoff(time.Millisecond, 5*time.Millisecond))
	ctx := context.Background()

	body := `{"fingerprint":"` + tsg.Fingerprint(gen.Oscillator()) + `"}`
	if _, err := cl.Upload(ctx, gen.Oscillator()); err != nil {
		t.Fatalf("upload: %v", err)
	}
	f.seen.Store(0) // the next request is shed once
	raw, err := cl.PostRaw(ctx, "/v1/analyze", []byte(body))
	if err != nil {
		t.Fatalf("PostRaw through a shed: %v", err)
	}
	if n := f.seen.Load(); n != 2 {
		t.Fatalf("server saw %d attempts, want 2 (1 shed + 1 success)", n)
	}
	resp, err := http.Post(srv.URL+"/v1/analyze", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("direct POST: %v", err)
	}
	defer resp.Body.Close()
	var direct strings.Builder
	if _, err := io.Copy(&direct, resp.Body); err != nil {
		t.Fatalf("reading direct reply: %v", err)
	}
	if string(raw) != direct.String() {
		t.Fatalf("PostRaw returned %s, the server answers %s", raw, direct.String())
	}

	_, err = cl.PostRaw(ctx, "/v1/analyze", []byte(`{"fingerprint":"nope"}`))
	var api *client.APIError
	if !errors.As(err, &api) || api.Status != http.StatusNotFound || api.Msg == "" {
		t.Fatalf("PostRaw of an unknown fingerprint: %v, want a 404 *APIError", err)
	}
}
