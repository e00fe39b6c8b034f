package fault

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func backend(t *testing.T) (*httptest.Server, *int) {
	t.Helper()
	hits := 0
	var mu sync.Mutex
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		hits++
		mu.Unlock()
		io.Copy(io.Discard, r.Body)
		fmt.Fprint(w, "payload-payload-payload-payload")
	}))
	t.Cleanup(srv.Close)
	return srv, &hits
}

func get(t *testing.T, cl *http.Client, url string) (*http.Response, error) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	return cl.Do(req)
}

func TestLatencyInjection(t *testing.T) {
	srv, _ := backend(t)
	plan := NewPlan(1).Add(Rule{Kind: KindLatency, Latency: 60 * time.Millisecond})
	cl := &http.Client{Transport: NewTransport(nil, plan)}
	start := time.Now()
	resp, err := get(t, cl, srv.URL+"/v1/analyze")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if d := time.Since(start); d < 60*time.Millisecond {
		t.Fatalf("request returned in %v, want >= 60ms injected latency", d)
	}
	if n := plan.Injected(); n != 1 {
		t.Fatalf("Injected() = %d, want 1", n)
	}
}

func TestLatencyRamp(t *testing.T) {
	// A 5-request ramp 0..40ms must yield delays 0,10,20,30,40.
	srv, _ := backend(t)
	plan := NewPlan(1).Add(Rule{Kind: KindLatency, Latency: 0, LatencyEnd: 40 * time.Millisecond, Count: 5})
	cl := &http.Client{Transport: NewTransport(nil, plan)}
	for i := 0; i < 5; i++ {
		resp, err := get(t, cl, srv.URL+"/")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	sched := plan.Schedule()
	if len(sched) != 5 {
		t.Fatalf("schedule has %d entries, want 5", len(sched))
	}
	for i, inj := range sched {
		want := time.Duration(i) * 10 * time.Millisecond
		if inj.Delay != want {
			t.Fatalf("ramp step %d: delay %v, want %v", i, inj.Delay, want)
		}
	}
	// Past the window the rule is spent.
	resp, err := get(t, cl, srv.URL+"/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if n := plan.Injected(); n != 5 {
		t.Fatalf("rule fired past its count window: %d injections", n)
	}
}

func TestResetNeverReachesBackend(t *testing.T) {
	srv, hits := backend(t)
	plan := NewPlan(1).Add(Rule{Kind: KindReset})
	cl := &http.Client{Transport: NewTransport(nil, plan)}
	_, err := get(t, cl, srv.URL+"/v1/edit")
	var re *ResetError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *ResetError", err)
	}
	if *hits != 0 {
		t.Fatalf("backend saw %d requests; reset must fail before send", *hits)
	}
}

func TestDropResponseReachesBackend(t *testing.T) {
	// The asymmetric half: the backend processes the request, the
	// caller sees a transport error.
	srv, hits := backend(t)
	plan := NewPlan(1).Add(Rule{Kind: KindDropResponse})
	cl := &http.Client{Transport: NewTransport(nil, plan)}
	_, err := get(t, cl, srv.URL+"/v1/edit")
	var de *DroppedResponseError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want *DroppedResponseError", err)
	}
	if *hits != 1 {
		t.Fatalf("backend saw %d requests, want 1 (drop-response forwards first)", *hits)
	}
}

func TestErrorSynthesis(t *testing.T) {
	srv, hits := backend(t)
	plan := NewPlan(1).Add(Rule{Kind: KindError, Status: 503, Count: 2})
	cl := &http.Client{Transport: NewTransport(nil, plan)}
	for i := 0; i < 2; i++ {
		resp, err := get(t, cl, srv.URL+"/")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 503 {
			t.Fatalf("status = %d, want injected 503", resp.StatusCode)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !strings.Contains(string(b), "injected") {
			t.Fatalf("body %q should identify itself as injected", b)
		}
	}
	if *hits != 0 {
		t.Fatalf("backend saw %d requests during error burst, want 0", *hits)
	}
	// Burst over: traffic flows again.
	resp, err := get(t, cl, srv.URL+"/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || *hits != 1 {
		t.Fatalf("after burst: status %d hits %d, want 200/1", resp.StatusCode, *hits)
	}
}

func TestSlowBodyDrip(t *testing.T) {
	srv, _ := backend(t)
	plan := NewPlan(1).Add(Rule{Kind: KindSlowBody, DripEvery: 5 * time.Millisecond, DripBytes: 4})
	cl := &http.Client{Transport: NewTransport(nil, plan)}
	start := time.Now()
	resp, err := get(t, cl, srv.URL+"/")
	if err != nil {
		t.Fatal(err)
	}
	// Headers arrive promptly; the 31-byte body drips 4 bytes per 5ms
	// => at least ceil(31/4)=8 sleeps ≈ 40ms to drain.
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != 31 {
		t.Fatalf("read %d bytes, want full 31-byte body", len(b))
	}
	if d := time.Since(start); d < 35*time.Millisecond {
		t.Fatalf("body drained in %v, want >= ~40ms of drip", d)
	}
}

func TestNodeAndRouteScoping(t *testing.T) {
	srvA, hitsA := backend(t)
	srvB, hitsB := backend(t)
	// Reset only srvB's /v1/* routes.
	plan := NewPlan(1).Add(Rule{Kind: KindReset, Node: srvB.URL, Route: "/v1/*"})
	cl := &http.Client{Transport: NewTransport(nil, plan)}

	if resp, err := get(t, cl, srvA.URL+"/v1/analyze"); err != nil {
		t.Fatalf("A should be clean: %v", err)
	} else {
		resp.Body.Close()
	}
	if resp, err := get(t, cl, srvB.URL+"/healthz"); err != nil {
		t.Fatalf("B's non-/v1 routes should be clean: %v", err)
	} else {
		resp.Body.Close()
	}
	if _, err := get(t, cl, srvB.URL+"/v1/analyze"); err == nil {
		t.Fatal("B's /v1/* should be reset")
	}
	if *hitsA != 1 || *hitsB != 1 {
		t.Fatalf("hits A=%d B=%d, want 1/1", *hitsA, *hitsB)
	}
}

func TestAfterWindowAndPhases(t *testing.T) {
	srv, _ := backend(t)
	plan := NewPlan(1).
		Phases("calm", "storm").
		Add(Rule{Kind: KindReset, Phase: "storm", After: 1})
	cl := &http.Client{Transport: NewTransport(nil, plan)}

	// calm: nothing fires even past the After window.
	for i := 0; i < 3; i++ {
		resp, err := get(t, cl, srv.URL+"/")
		if err != nil {
			t.Fatalf("calm phase request %d failed: %v", i, err)
		}
		resp.Body.Close()
	}
	if got := plan.AdvancePhase(); got != "storm" {
		t.Fatalf("AdvancePhase() = %q, want storm", got)
	}
	// storm: first match is within After=1 (ordinal continues), rest reset.
	sawReset := false
	for i := 0; i < 3; i++ {
		resp, err := get(t, cl, srv.URL+"/")
		if err != nil {
			sawReset = true
			continue
		}
		resp.Body.Close()
	}
	if !sawReset {
		t.Fatal("storm phase never injected a reset")
	}
	if err := plan.SetPhase("calm"); err != nil {
		t.Fatal(err)
	}
	resp, err := get(t, cl, srv.URL+"/")
	if err != nil {
		t.Fatalf("back in calm, request failed: %v", err)
	}
	resp.Body.Close()
}

// TestSeedDeterminism is the acceptance-criteria assertion: the same
// seed produces the same injected schedule; a different seed does not.
func TestSeedDeterminism(t *testing.T) {
	srv, _ := backend(t)
	run := func(seed int64) []Injection {
		plan := NewPlan(seed).Add(Rule{Kind: KindReset, Prob: 0.35, Count: 200})
		cl := &http.Client{Transport: NewTransport(nil, plan)}
		for i := 0; i < 200; i++ {
			if resp, err := get(t, cl, srv.URL+"/"); err == nil {
				resp.Body.Close()
			}
		}
		return plan.Schedule()
	}
	a, b, c := run(42), run(42), run(43)
	if len(a) == 0 || len(a) == 200 {
		t.Fatalf("prob=0.35 over 200 requests injected %d faults; want a strict subset", len(a))
	}
	if len(a) != len(b) {
		t.Fatalf("same seed, different schedule lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, schedules diverge at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("seed 42 and 43 produced identical schedules")
	}
}

// TestSeedDeterminismUnderConcurrency: the SET of faulted ordinals is a
// pure function of the seed even when requests race — concurrency may
// reorder the log but cannot change which ordinals get faulted.
func TestSeedDeterminismUnderConcurrency(t *testing.T) {
	srv, _ := backend(t)
	run := func() map[int]bool {
		plan := NewPlan(7).Add(Rule{Kind: KindReset, Prob: 0.5, Count: 100})
		cl := &http.Client{Transport: NewTransport(nil, plan)}
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 100/8; i++ {
					if resp, err := get(t, cl, srv.URL+"/"); err == nil {
						resp.Body.Close()
					}
				}
			}()
		}
		wg.Wait()
		set := map[int]bool{}
		for _, inj := range plan.Schedule() {
			set[inj.Ordinal] = true
		}
		return set
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("faulted-ordinal sets differ in size: %d vs %d", len(a), len(b))
	}
	for ord := range a {
		if !b[ord] {
			t.Fatalf("ordinal %d faulted in run A but not run B", ord)
		}
	}
}

func TestParsePlanDSL(t *testing.T) {
	text := `
# asymmetric partition: node B's /v1 responses vanish, requests still land
seed 42
phases inject heal

fault drop-response name=b-to-a node=:7438 route=/v1/* phase=inject count=40
fault latency  node=* route=/v1/analyze after=10 count=100 latency=10ms..500ms
fault error    status=503 prob=0.25 count=20
fault slow-body node=:7439 drip=2ms/256
fault reset    node=http://127.0.0.1:7440
`
	p, err := ParsePlan(text)
	if err != nil {
		t.Fatal(err)
	}
	if p.seed != 42 {
		t.Fatalf("seed = %d, want 42", p.seed)
	}
	if p.Phase() != "inject" {
		t.Fatalf("initial phase = %q, want inject", p.Phase())
	}
	if len(p.rules) != 5 {
		t.Fatalf("parsed %d rules, want 5", len(p.rules))
	}
	r := p.rules[0]
	if r.Kind != KindDropResponse || r.Name != "b-to-a" || r.Node != ":7438" || r.Route != "/v1/*" || r.Phase != "inject" || r.Count != 40 {
		t.Fatalf("rule 0 parsed wrong: %+v", r)
	}
	r = p.rules[1]
	if r.Kind != KindLatency || r.Latency != 10*time.Millisecond || r.LatencyEnd != 500*time.Millisecond || r.After != 10 {
		t.Fatalf("rule 1 parsed wrong: %+v", r)
	}
	r = p.rules[3]
	if r.Kind != KindSlowBody || r.DripEvery != 2*time.Millisecond || r.DripBytes != 256 {
		t.Fatalf("rule 3 parsed wrong: %+v", r)
	}

	// String() round-trips to an equivalent plan.
	p2, err := ParsePlan(p.String())
	if err != nil {
		t.Fatalf("String() did not re-parse: %v\n%s", err, p.String())
	}
	if p2.String() != p.String() {
		t.Fatalf("round-trip not stable:\n%s\nvs\n%s", p.String(), p2.String())
	}
}

func TestParsePlanErrors(t *testing.T) {
	for _, bad := range []string{
		"fault warp node=*",                      // unknown action
		"fault reset frequency=always",           // unknown key
		"fault error status=200",                 // status outside 4xx/5xx
		"fault reset prob=1.5",                   // prob out of range
		"fault reset prob=NaN",                   // NaN passes both range comparisons
		"fault latency latency=1ms..2ms",         // ramp without count
		"fault reset phase=storm",                // undeclared phase
		"seed forty-two",                         // non-integer seed
		"teleport node=*",                        // unknown directive
		"fault slow-body drip=2ms",               // drip missing /bytes
		"phases",                                 // phases without names
		"fault latency latency=1ms..2ms count=1", // ramp needs count>1
	} {
		if _, err := ParsePlan(bad); err == nil {
			t.Errorf("ParsePlan(%q) accepted invalid plan", bad)
		}
	}
}

// FuzzPlanRoundTrip checks that String is a normal form of the DSL:
// any text ParsePlan accepts renders to a plan that parses again,
// renders to the same text the second time, and flips the same coin
// for every rule on the first 64 match ordinals.
func FuzzPlanRoundTrip(f *testing.F) {
	f.Fuzz(func(t *testing.T, text string) {
		p, err := ParsePlan(text)
		if err != nil {
			return
		}
		out := p.String()
		p2, err := ParsePlan(out)
		if err != nil {
			t.Fatalf("String() did not re-parse: %v\n%s", err, out)
		}
		if out2 := p2.String(); out2 != out {
			t.Fatalf("round-trip not stable:\n%s\nvs\n%s", out, out2)
		}
		if len(p2.rules) != len(p.rules) {
			t.Fatalf("round trip has %d rules, want %d", len(p2.rules), len(p.rules))
		}
		for i, r := range p.rules {
			for ord := 0; ord < 64; ord++ {
				if a, b := p.decide(i, ord, r.Prob), p2.decide(i, ord, p2.rules[i].Prob); a != b {
					t.Fatalf("rule %d ordinal %d: decide %v before the round trip, %v after\n%s", i, ord, a, b, out)
				}
			}
		}
	})
}

func TestNilPlanPassthrough(t *testing.T) {
	srv, hits := backend(t)
	cl := &http.Client{Transport: NewTransport(nil, nil)}
	resp, err := get(t, cl, srv.URL+"/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if *hits != 1 {
		t.Fatalf("hits = %d, want 1", *hits)
	}
}

func TestLatencyRespectsContext(t *testing.T) {
	srv, _ := backend(t)
	plan := NewPlan(1).Add(Rule{Kind: KindLatency, Latency: 5 * time.Second})
	cl := &http.Client{Transport: NewTransport(nil, plan)}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/", nil)
	start := time.Now()
	_, err := cl.Do(req)
	if err == nil {
		t.Fatal("want context error, got success")
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("cancel took %v; injected latency must honor the context", d)
	}
}
