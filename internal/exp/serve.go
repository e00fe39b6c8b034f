package exp

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"time"

	"tsg/client"
	"tsg/internal/cycletime"
	"tsg/internal/gen"
	"tsg/internal/netlist"
	"tsg/internal/serve"
	"tsg/internal/sg"
	"tsg/internal/textio"
)

func init() {
	register(Experiment{
		ID:    "SERVE",
		Title: "serving layer: engine cache + singleflight vs per-request rebuild under concurrent what-if traffic",
		Run:   runSERVE,
	})
}

// serveWorkload is one load-generator configuration.
type serveWorkload struct {
	name    string
	g       *sg.Graph
	clients int // concurrent clients
	iters   int // (analyze + batched what-if) rounds per client
}

// runSERVE measures the serving subsystem end to end: N concurrent
// clients drive analyze + batched what-if traffic over HTTP against
// (a) a cold server with the engine cache disabled — every request
// pays parse + Build + Compile, the per-request-rebuild baseline —
// and (b) a warm server where the graph is uploaded once and every
// request references its fingerprint, sharing one cached engine and
// its certificate across all clients. Every λ on the wire is checked
// against the in-process analysis, and a final round of concurrent
// first requests pins the singleflight guarantee: one compile, no
// matter how many clients ask first.
func runSERVE(w io.Writer) error {
	stack, err := gen.Stack(31)
	if err != nil {
		return err
	}
	random2000, err := gen.RandomLive(rand.New(rand.NewSource(31)),
		gen.RandomOptions{Events: 2000, Border: 8, ExtraArcs: 2000, MaxDelay: 16})
	if err != nil {
		return err
	}
	workloads := []serveWorkload{
		{name: "stack-66", g: stack, clients: 6, iters: 8},
		{name: "random-2000", g: random2000, clients: 6, iters: 4},
	}

	tab := textio.New("serving throughput: cold (per-request rebuild) vs warm (engine cache + fingerprint reference)",
		"workload", "n/m/b", "mode", "requests", "elapsed", "req/s")
	var ratioRandom2000 float64
	for _, wl := range workloads {
		var buf bytes.Buffer
		if err := netlist.WriteTSG(&buf, wl.g); err != nil {
			return err
		}
		text := buf.String()
		res, err := cycletime.Analyze(wl.g)
		if err != nil {
			return err
		}
		wantLam := res.CycleTime.Normalize().String()

		cold, err := driveServe(text, wantLam, wl, false)
		if err != nil {
			return fmt.Errorf("exp: %s cold: %w", wl.name, err)
		}
		warm, err := driveServe(text, wantLam, wl, true)
		if err != nil {
			return fmt.Errorf("exp: %s warm: %w", wl.name, err)
		}
		reqs := 2 * cold.ops // an analyze and a what-if per op
		coldRPS, warmRPS := float64(reqs)/cold.elapsed.Seconds(), float64(2*warm.ops)/warm.elapsed.Seconds()
		ratio := warmRPS / coldRPS
		if wl.name == "random-2000" {
			ratioRandom2000 = ratio
		}
		nmb := fmt.Sprintf("%d/%d/%d", wl.g.NumEvents(), wl.g.NumArcs(), len(wl.g.BorderEvents()))
		tab.AddRow(wl.name, nmb, "cold (rebuild/request)", reqs, cold.elapsed.Round(time.Millisecond), fmt.Sprintf("%.0f", coldRPS))
		tab.AddRow(wl.name, nmb, "warm (engine cache)", reqs, warm.elapsed.Round(time.Millisecond), fmt.Sprintf("%.0f", warmRPS))
		tab.AddRow(wl.name, nmb, "warm/cold", "", "", fmt.Sprintf("%.1fx", ratio))
	}
	if err := tab.Render(w); err != nil {
		return err
	}

	// Singleflight: concurrent first requests for one graph must
	// trigger exactly one compile.
	var buf bytes.Buffer
	if err := netlist.WriteTSG(&buf, random2000); err != nil {
		return err
	}
	s := serve.New(serve.Config{})
	srv := httptest.NewServer(s)
	defer srv.Close()
	const firstClients = 8
	first := load{url: srv.URL, opts: []client.Option{client.WithHTTPClient(srv.Client())}, workers: firstClients, per: 1,
		op: func(cl *client.Client, _, _ int) error {
			_, err := cl.Analyze(context.Background(), client.GraphRef{Graph: buf.String()})
			return err
		}}.run()
	if err := first.check("among the singleflight clients"); err != nil {
		return fmt.Errorf("exp: %w", err)
	}
	st := s.Cache().Stats()
	fmt.Fprintf(w, "singleflight: %d concurrent first requests -> %d compile(s), %d joined the in-flight compile\n",
		firstClients, st.Compiles, st.FlightShared)
	if err := expect("singleflight compiles", st.Compiles, int64(1)); err != nil {
		return err
	}

	fmt.Fprintf(w, "random-2000 warm/cold throughput ratio: %.1fx (acceptance in BENCH_pr4.json: >= 10x)\n", ratioRandom2000)
	// The hard 10x acceptance bar is recorded in BENCH_pr4.json from a
	// quiet machine; in-harness we gate at 3x so a loaded CI runner
	// cannot flake the experiment while still catching a cache that
	// stopped working.
	if ratioRandom2000 < 3 {
		return fmt.Errorf("exp: warm cache is only %.1fx over per-request rebuild on random-2000; the engine cache is not amortising compiles", ratioRandom2000)
	}
	return nil
}

// driveServe runs the workload's clients against a fresh server: cold
// has the engine cache disabled, warm has the graph uploaded and primed.
func driveServe(text, wantLam string, wl serveWorkload, warm bool) (loadResult, error) {
	cfg := serve.Config{}
	if !warm {
		cfg.CacheBytes = -1 // pass-through: every request rebuilds
	}
	r, err := newServeRig(cfg, wl.g, text, wantLam, warm, wl.clients)
	if err != nil {
		return loadResult{}, err
	}
	defer r.close()
	res := r.drive(wl.iters)
	return res, res.check("in the drive")
}

// serveRig is one server plus the graph its analyze + what-if traffic
// targets, kept alive across drives so repeated drives differ only in
// what the caller changes, never in server age, heap history or
// connection state. A warm rig references the graph by fingerprint; a
// cold one sends its text with every request.
type serveRig struct {
	srv     *httptest.Server
	hc      *http.Client
	clients int
	ref     client.GraphRef
	g       *sg.Graph
	order   []int
	ws      int
	wantLam string
	seq     int // what-if batch cursor; advances across drives
}

// newServeRig boots the server and, when warm, uploads and fully
// primes the graph: the first analyze and one sweep over the whole
// what-if working set build the cached result, certificate and what-if
// rows before any drive starts.
func newServeRig(cfg serve.Config, g *sg.Graph, text, wantLam string, warm bool, clients int) (*serveRig, error) {
	srv := httptest.NewServer(serve.New(cfg))
	r := &serveRig{
		srv: srv,
		// One idle-connection slot per client: the default
		// MaxIdleConnsPerHost (2) would force part of a multi-client
		// drive through a fresh TCP dial + close, and that syscall
		// churn is both slow and noisier than the effects under test.
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        2 * clients,
			MaxIdleConnsPerHost: 2 * clients,
		}},
		clients: clients,
		ref:     client.GraphRef{Graph: text},
		g:       g,
		order:   sg.CanonicalArcOrder(g), // computed once, outside every timed drive
		ws:      workingSet(g),
		wantLam: wantLam,
	}
	if !warm {
		return r, nil
	}
	ctx := context.Background()
	cl := client.New(srv.URL, client.WithHTTPClient(srv.Client()))
	up, err := cl.UploadText(ctx, text)
	if err == nil {
		r.ref = client.ByFingerprint(up.Fingerprint)
		_, err = cl.Analyze(ctx, r.ref)
	}
	if err == nil {
		prime := make([]client.WhatIfQuery, r.ws)
		for k := range prime {
			prime[k] = client.WhatIfQuery{Arc: k, Delay: g.Arc(r.order[k]).Delay * 1.5}
		}
		_, err = cl.WhatIf(ctx, r.ref, prime)
	}
	if err != nil {
		srv.Close()
		return nil, err
	}
	return r, nil
}

func (r *serveRig) close() { r.srv.Close() }

// drive runs iters rounds of one analyze plus one 8-query batched
// what-if on every client, checking each served λ.
func (r *serveRig) drive(iters int) loadResult {
	ctx := context.Background()
	base := r.seq
	r.seq += iters * r.clients
	return load{url: r.srv.URL, opts: []client.Option{client.WithHTTPClient(r.hc)}, workers: r.clients, per: iters,
		op: func(cl *client.Client, c, i int) error {
			res, err := cl.Analyze(ctx, r.ref)
			if err != nil {
				return err
			}
			if res.Lambda.Text != r.wantLam {
				return fmt.Errorf("served λ %s, want %s", res.Lambda.Text, r.wantLam)
			}
			wi, err := cl.WhatIf(ctx, r.ref, whatIfBatch(r.g, r.order, r.ws, base+c*iters+i))
			if err != nil {
				return err
			}
			if len(wi.Lambdas) != 8 {
				return fmt.Errorf("%d what-if answers, want 8", len(wi.Lambdas))
			}
			return nil
		}}.run()
}

// workingSet is the number of arcs the what-if traffic rotates over:
// the edit-evaluate loop of §I repeatedly probes the same bottleneck
// region, so the load models a bounded hot set rather than a uniform
// scan of all m arcs.
func workingSet(g *sg.Graph) int {
	if m := g.NumArcs(); m < 128 {
		return m
	}
	return 128
}

// whatIfBatch builds the k-th 8-query what-if batch: ×1.5 delay
// increases rotating through the hot working set. Wire arc indices
// are canonical ranks; the delays come from the arcs those ranks name
// via the pre-computed canonical order.
func whatIfBatch(g *sg.Graph, order []int, ws, k int) []client.WhatIfQuery {
	queries := make([]client.WhatIfQuery, 8)
	for j := range queries {
		arc := (k*8 + j) % ws
		queries[j] = client.WhatIfQuery{Arc: arc, Delay: g.Arc(order[arc]).Delay * 1.5}
	}
	return queries
}
