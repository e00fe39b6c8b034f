// Package fault is a seeded, deterministic network-fault harness: an
// http.RoundTripper wrapper that executes a scripted fault Plan against
// the requests flowing through it. It is the network-layer sibling of
// internal/store's armed crash points — faults are injected exactly
// where the schedule says, the schedule is a pure function of the seed,
// and the injection log can be replayed and diffed across runs.
//
// A Plan is a list of Rules. Each rule matches requests by node (the
// target scheme://host, a substring of it, or "*"), by route (a request
// path, a "prefix/*" wildcard, or "*"), by a request-count window
// (After/Count over the rule's own match ordinal), by phase (rules tied
// to a named phase fire only while the plan is in that phase), and by a
// seeded probability. A matched request suffers the rule's action:
//
//   - latency D (or D1..D2, ramping across the count window): the
//     request is delayed before it is sent;
//   - reset: the connection fails before the request reaches the
//     backend (the A→B direction of a partition — the backend never
//     sees the request);
//   - drop-response: the request is forwarded and PROCESSED by the
//     backend, then the response is discarded and a transport error
//     returned (the B→A direction of a partition — side effects
//     happened, the caller cannot know). Composing reset on one node
//     and drop-response on another scripts an asymmetric partition;
//   - error N: an HTTP response with status N is synthesized at the
//     transport without contacting the backend (error bursts);
//   - slow-body D/N: the response arrives promptly but its body drips
//     out N bytes every D (a stalled-sender pathology that defeats
//     connect-level health checks).
//
// Plans come from Go (NewPlan + Add) or from the text DSL (ParsePlan /
// LoadPlan), so the same scenario runs in a unit test and against real
// processes via tsgrouter -fault-plan. Determinism: every probabilistic
// decision for match ordinal k of rule i is a pure function of (seed,
// i, k), so the set of faulted ordinals — the schedule — is identical
// across runs with the same seed regardless of timing or concurrency.
package fault

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind enumerates fault actions.
type Kind int

const (
	// KindLatency delays the request before sending it.
	KindLatency Kind = iota
	// KindReset fails the request before it reaches the backend.
	KindReset
	// KindDropResponse forwards the request, then discards the response.
	KindDropResponse
	// KindError synthesizes an HTTP error status without forwarding.
	KindError
	// KindSlowBody drips the response body out slowly.
	KindSlowBody
)

var kindNames = map[Kind]string{
	KindLatency:      "latency",
	KindReset:        "reset",
	KindDropResponse: "drop-response",
	KindError:        "error",
	KindSlowBody:     "slow-body",
}

func (k Kind) String() string { return kindNames[k] }

// Rule is one scripted fault: a match scope plus an action.
type Rule struct {
	// Name labels the rule in the injection log (defaults to its kind).
	Name string

	// Node scopes by target: "*" or "" matches every node, anything
	// else must be a substring of "scheme://host" of the request URL
	// (so a full base URL, a bare ":port", or a host all work).
	Node string

	// Route scopes by path: "*" or "" matches every route, a trailing
	// "/*" matches the prefix, anything else must equal the path.
	Route string

	// Phase ties the rule to a named plan phase; "" is phase-agnostic.
	Phase string

	// After skips the first After matching requests (the fault arms
	// after a warm-up window).
	After int

	// Count bounds how many matches (past After) the rule applies to;
	// 0 means unlimited. A latency ramp spreads across this window.
	Count int

	// Prob applies the action to each in-window match with this seeded
	// probability; 0 or 1 means always.
	Prob float64

	// Kind selects the action.
	Kind Kind

	// Latency is the injected delay (KindLatency), or the ramp start
	// when LatencyEnd is set.
	Latency time.Duration
	// LatencyEnd, when nonzero, ramps the delay linearly from Latency
	// to LatencyEnd across the Count window (Count must be set).
	LatencyEnd time.Duration

	// Status is the synthesized HTTP status (KindError).
	Status int

	// DripEvery and DripBytes shape KindSlowBody: DripBytes of body are
	// released every DripEvery.
	DripEvery time.Duration
	DripBytes int
}

// armedRule pairs a Rule with its live match-ordinal counter. Rule
// itself stays a copyable value type so plans can be built from
// literals.
type armedRule struct {
	Rule
	seen atomic.Int64 // match ordinal counter (scope matches, pre-window)
}

func (r *Rule) label() string {
	if r.Name != "" {
		return r.Name
	}
	return r.Kind.String()
}

// matchScope reports whether the request's node/route fall in the
// rule's scope (ignoring window, phase, and probability).
func (r *Rule) matchScope(req *http.Request) bool {
	if r.Node != "" && r.Node != "*" {
		node := req.URL.Scheme + "://" + req.URL.Host
		if !strings.Contains(node, r.Node) {
			return false
		}
	}
	switch {
	case r.Route == "" || r.Route == "*":
	case strings.HasSuffix(r.Route, "/*"):
		if !strings.HasPrefix(req.URL.Path, strings.TrimSuffix(r.Route, "*")) {
			return false
		}
	default:
		if req.URL.Path != r.Route {
			return false
		}
	}
	return true
}

// Injection is one executed fault, for the schedule log.
type Injection struct {
	Rule    string        // rule label
	Ordinal int           // the rule's match ordinal the fault fired on
	Kind    Kind          // action taken
	Delay   time.Duration // injected latency (latency/slow-body rules)
}

// Plan is an armed fault schedule: rules, a seed, and a phase cursor.
// All methods are safe for concurrent use.
type Plan struct {
	seed   int64
	rules  []*armedRule
	phases []string

	mu       sync.Mutex
	phaseIdx int
	log      []Injection
}

// NewPlan returns an empty plan with the given determinism seed.
func NewPlan(seed int64) *Plan { return &Plan{seed: seed} }

// SetSeed replaces the plan's determinism seed (tsgrouter's -fault-seed
// overrides a plan file's "seed" directive). Call before arming the
// transport: reseeding mid-run would split the schedule across seeds.
func (p *Plan) SetSeed(seed int64) *Plan {
	p.seed = seed
	return p
}

// Add appends a rule and returns the plan for chaining.
func (p *Plan) Add(r Rule) *Plan {
	p.rules = append(p.rules, &armedRule{Rule: r})
	return p
}

// Phases declares the plan's ordered phase names; the plan starts in
// the first. Without phases, only phase-agnostic rules ever fire.
func (p *Plan) Phases(names ...string) *Plan {
	p.phases = names
	return p
}

// Phase returns the current phase name ("" when the plan has none).
func (p *Plan) Phase() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.phases) == 0 {
		return ""
	}
	return p.phases[p.phaseIdx]
}

// SetPhase jumps to a declared phase by name.
func (p *Plan) SetPhase(name string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, ph := range p.phases {
		if ph == name {
			p.phaseIdx = i
			return nil
		}
	}
	return fmt.Errorf("fault: plan has no phase %q (declared: %v)", name, p.phases)
}

// AdvancePhase moves to the next declared phase (clamping at the last)
// and returns the phase now in effect. tsgrouter maps SIGUSR1 here so
// shell scripts can walk a multi-phase scenario.
func (p *Plan) AdvancePhase() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.phases) == 0 {
		return ""
	}
	if p.phaseIdx < len(p.phases)-1 {
		p.phaseIdx++
	}
	return p.phases[p.phaseIdx]
}

// Schedule snapshots the injection log: every fault executed so far, in
// execution order. Two runs driving identical request sequences through
// plans with the same seed produce identical schedules.
func (p *Plan) Schedule() []Injection {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Injection, len(p.log))
	copy(out, p.log)
	return out
}

// Injected returns how many faults the plan has executed.
func (p *Plan) Injected() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.log)
}

func (p *Plan) record(inj Injection) {
	p.mu.Lock()
	p.log = append(p.log, inj)
	p.mu.Unlock()
}

// decide is the deterministic coin for rule i's match ordinal k: a
// SplitMix64 of (seed, i, k) mapped to [0,1). Pure function — no shared
// RNG state, so concurrency cannot perturb the schedule.
func (p *Plan) decide(rule, ordinal int, prob float64) bool {
	if prob <= 0 || prob >= 1 {
		return true
	}
	x := uint64(p.seed)*0x9E3779B97F4A7C15 ^ uint64(rule)*0xBF58476D1CE4E5B9 ^ uint64(ordinal)*0x94D049BB133111EB
	// SplitMix64 finalizer.
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11)/(1<<53) < prob
}

// active returns the action rule (if any) for this request: the first
// rule in declaration order whose scope, phase, window, and coin all
// say fire, plus the latency to inject for ramp rules.
func (p *Plan) active(req *http.Request) (*armedRule, int, time.Duration) {
	phase := p.Phase()
	for i, r := range p.rules {
		if r.Phase != "" && r.Phase != phase {
			continue
		}
		if !r.matchScope(req) {
			continue
		}
		ord := int(r.seen.Add(1)) - 1 // 0-based match ordinal
		if ord < r.After {
			continue
		}
		if r.Count > 0 && ord >= r.After+r.Count {
			continue
		}
		if !p.decide(i, ord, r.Prob) {
			continue
		}
		d := r.Latency
		if r.LatencyEnd != 0 && r.Count > 1 {
			frac := float64(ord-r.After) / float64(r.Count-1)
			d = r.Latency + time.Duration(frac*float64(r.LatencyEnd-r.Latency))
		}
		return r, ord, d
	}
	return nil, 0, 0
}

// ResetError is the injected connection failure, distinguishable from
// real transport errors in assertions and logs.
type ResetError struct {
	Rule  string
	Route string
}

func (e *ResetError) Error() string {
	return fmt.Sprintf("fault: injected connection reset (rule %s) on %s", e.Rule, e.Route)
}

// DroppedResponseError reports a response discarded after the backend
// processed the request — the asymmetric half of a partition.
type DroppedResponseError struct {
	Rule  string
	Route string
}

func (e *DroppedResponseError) Error() string {
	return fmt.Sprintf("fault: injected response drop (rule %s) on %s — the backend DID process this request", e.Rule, e.Route)
}

// Transport is the fault-executing RoundTripper.
type Transport struct {
	base http.RoundTripper
	plan *Plan
}

// NewTransport wraps base (nil means http.DefaultTransport) with the
// plan. A nil plan passes everything through untouched.
func NewTransport(base http.RoundTripper, plan *Plan) *Transport {
	if base == nil {
		base = http.DefaultTransport
	}
	return &Transport{base: base, plan: plan}
}

// RoundTrip executes the plan against one request.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	if t.plan == nil {
		return t.base.RoundTrip(req)
	}
	r, ord, delay := t.plan.active(req)
	if r == nil {
		return t.base.RoundTrip(req)
	}
	switch r.Kind {
	case KindLatency:
		t.plan.record(Injection{Rule: r.label(), Ordinal: ord, Kind: r.Kind, Delay: delay})
		select {
		case <-time.After(delay):
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
		return t.base.RoundTrip(req)
	case KindReset:
		t.plan.record(Injection{Rule: r.label(), Ordinal: ord, Kind: r.Kind})
		// Drain and close the body like a real failed send would.
		if req.Body != nil {
			io.Copy(io.Discard, req.Body)
			req.Body.Close()
		}
		return nil, &ResetError{Rule: r.label(), Route: req.URL.Path}
	case KindDropResponse:
		t.plan.record(Injection{Rule: r.label(), Ordinal: ord, Kind: r.Kind})
		resp, err := t.base.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, &DroppedResponseError{Rule: r.label(), Route: req.URL.Path}
	case KindError:
		t.plan.record(Injection{Rule: r.label(), Ordinal: ord, Kind: r.Kind})
		if req.Body != nil {
			io.Copy(io.Discard, req.Body)
			req.Body.Close()
		}
		body := fmt.Sprintf(`{"error":"fault: injected HTTP %d (rule %s)"}`, r.Status, r.label())
		return &http.Response{
			Status:        fmt.Sprintf("%d %s", r.Status, http.StatusText(r.Status)),
			StatusCode:    r.Status,
			Proto:         "HTTP/1.1",
			ProtoMajor:    1,
			ProtoMinor:    1,
			Header:        http.Header{"Content-Type": []string{"application/json"}},
			Body:          io.NopCloser(strings.NewReader(body)),
			ContentLength: int64(len(body)),
			Request:       req,
		}, nil
	case KindSlowBody:
		t.plan.record(Injection{Rule: r.label(), Ordinal: ord, Kind: r.Kind, Delay: r.DripEvery})
		resp, err := t.base.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		resp.Body = &dripReader{rc: resp.Body, every: r.DripEvery, chunk: r.DripBytes, ctx: req.Context()}
		return resp, nil
	}
	return t.base.RoundTrip(req)
}

// dripReader releases at most chunk bytes per read, sleeping `every`
// before each one.
type dripReader struct {
	rc    io.ReadCloser
	every time.Duration
	chunk int
	ctx   interface{ Done() <-chan struct{} }
}

func (d *dripReader) Read(p []byte) (int, error) {
	select {
	case <-time.After(d.every):
	case <-d.ctx.Done():
		return 0, io.ErrUnexpectedEOF
	}
	if d.chunk > 0 && len(p) > d.chunk {
		p = p[:d.chunk]
	}
	return d.rc.Read(p)
}

func (d *dripReader) Close() error { return d.rc.Close() }

// --- the text DSL ----------------------------------------------------------

// ParsePlan reads the fault-plan DSL. Line oriented; # starts a
// comment; blank lines are skipped.
//
//	seed 42
//	phases inject heal
//	fault latency  node=:7437 route=/v1/* after=10 count=200 latency=50ms
//	fault latency  node=*     route=/v1/analyze latency=10ms..500ms count=100
//	fault reset    node=http://127.0.0.1:7438 prob=0.3 phase=inject
//	fault drop-response node=:7437 route=/v1/* count=40
//	fault error    node=* status=503 after=50 count=20
//	fault slow-body node=:7439 drip=2ms/256
//
// Key=value pairs may come in any order; the action keyword right after
// "fault" picks the kind. A "name=" pair labels the rule in the
// schedule log.
func ParsePlan(text string) (*Plan, error) {
	p := NewPlan(0)
	for ln, raw := range strings.Split(text, "\n") {
		line := strings.TrimSpace(raw)
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "seed":
			if len(fields) != 2 {
				return nil, fmt.Errorf("fault plan line %d: seed wants one integer", ln+1)
			}
			s, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("fault plan line %d: bad seed %q", ln+1, fields[1])
			}
			p.seed = s
		case "phases":
			if len(fields) < 2 {
				return nil, fmt.Errorf("fault plan line %d: phases wants at least one name", ln+1)
			}
			p.Phases(fields[1:]...)
		case "fault":
			if len(fields) < 2 {
				return nil, fmt.Errorf("fault plan line %d: fault wants an action", ln+1)
			}
			r, err := parseRule(fields[1], fields[2:])
			if err != nil {
				return nil, fmt.Errorf("fault plan line %d: %w", ln+1, err)
			}
			p.Add(*r)
		default:
			return nil, fmt.Errorf("fault plan line %d: unknown directive %q", ln+1, fields[0])
		}
	}
	// Phase references must resolve, or a typo silently disarms a rule.
	declared := map[string]bool{}
	for _, ph := range p.phases {
		declared[ph] = true
	}
	for _, r := range p.rules {
		if r.Phase != "" && !declared[r.Phase] {
			return nil, fmt.Errorf("fault plan: rule %s references undeclared phase %q", r.label(), r.Phase)
		}
	}
	return p, nil
}

// LoadPlan reads ParsePlan's DSL from a file.
func LoadPlan(path string) (*Plan, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	p, err := ParsePlan(string(b))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}

func parseRule(action string, kvs []string) (*Rule, error) {
	r := &Rule{}
	switch action {
	case "latency":
		r.Kind = KindLatency
	case "reset":
		r.Kind = KindReset
	case "drop-response":
		r.Kind = KindDropResponse
	case "error":
		r.Kind = KindError
		r.Status = http.StatusInternalServerError
	case "slow-body":
		r.Kind = KindSlowBody
		r.DripEvery = time.Millisecond
		r.DripBytes = 256
	default:
		return nil, fmt.Errorf("unknown fault action %q", action)
	}
	for _, kv := range kvs {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("want key=value, got %q", kv)
		}
		var err error
		switch k {
		case "name":
			r.Name = v
		case "node":
			r.Node = v
		case "route":
			r.Route = v
		case "phase":
			r.Phase = v
		case "after":
			r.After, err = strconv.Atoi(v)
		case "count":
			r.Count, err = strconv.Atoi(v)
		case "prob":
			r.Prob, err = strconv.ParseFloat(v, 64)
			if err == nil && !(r.Prob >= 0 && r.Prob <= 1) { // NaN too
				err = fmt.Errorf("prob %v out of [0,1]", r.Prob)
			}
		case "latency":
			lo, hi, ramp := strings.Cut(v, "..")
			r.Latency, err = time.ParseDuration(lo)
			if err == nil && ramp {
				r.LatencyEnd, err = time.ParseDuration(hi)
			}
		case "status":
			r.Status, err = strconv.Atoi(v)
			if err == nil && (r.Status < 400 || r.Status > 599) {
				err = fmt.Errorf("status %d out of 4xx/5xx", r.Status)
			}
		case "drip":
			every, bytes, ok := strings.Cut(v, "/")
			if !ok {
				return nil, fmt.Errorf("drip wants every/bytes, got %q", v)
			}
			r.DripEvery, err = time.ParseDuration(every)
			if err == nil {
				r.DripBytes, err = strconv.Atoi(bytes)
			}
		default:
			err = fmt.Errorf("unknown key %q", k)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %v", kv, err)
		}
	}
	if r.LatencyEnd != 0 && r.Count <= 1 {
		return nil, fmt.Errorf("latency ramp %v..%v needs count>1 to spread across", r.Latency, r.LatencyEnd)
	}
	return r, nil
}

// String renders the plan back to (normalized) DSL — handy in logs and
// round-trip tests.
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed %d\n", p.seed)
	if len(p.phases) > 0 {
		fmt.Fprintf(&b, "phases %s\n", strings.Join(p.phases, " "))
	}
	for _, r := range p.rules {
		fmt.Fprintf(&b, "fault %s", r.Kind)
		kv := []string{}
		if r.Name != "" {
			kv = append(kv, "name="+r.Name)
		}
		if r.Node != "" && r.Node != "*" {
			kv = append(kv, "node="+r.Node)
		}
		if r.Route != "" && r.Route != "*" {
			kv = append(kv, "route="+r.Route)
		}
		if r.Phase != "" {
			kv = append(kv, "phase="+r.Phase)
		}
		if r.After > 0 {
			kv = append(kv, fmt.Sprintf("after=%d", r.After))
		}
		if r.Count > 0 {
			kv = append(kv, fmt.Sprintf("count=%d", r.Count))
		}
		if r.Prob > 0 && r.Prob < 1 {
			kv = append(kv, fmt.Sprintf("prob=%g", r.Prob))
		}
		switch r.Kind {
		case KindLatency:
			if r.LatencyEnd != 0 {
				kv = append(kv, fmt.Sprintf("latency=%s..%s", r.Latency, r.LatencyEnd))
			} else {
				kv = append(kv, fmt.Sprintf("latency=%s", r.Latency))
			}
		case KindError:
			kv = append(kv, fmt.Sprintf("status=%d", r.Status))
		case KindSlowBody:
			kv = append(kv, fmt.Sprintf("drip=%s/%d", r.DripEvery, r.DripBytes))
		}
		for _, s := range kv {
			b.WriteString(" " + s)
		}
		b.WriteString("\n")
	}
	return b.String()
}
