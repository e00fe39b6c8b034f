package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"

	"tsg/client"
	"tsg/internal/cycletime"
	"tsg/internal/gen"
	"tsg/internal/netlist"
	"tsg/internal/obs"
	"tsg/internal/serve"
	"tsg/internal/sg"
	"tsg/internal/textio"
)

func init() {
	register(Experiment{
		ID:    "OBS",
		Title: "observability overhead: phase-level tracing + metrics on vs off under warm serving traffic",
		Run:   runOBS,
	})
}

// runOBS gates the observability stack on both of its promises:
//
// Fidelity — against an instrumented server driven by a mixed
// analyze / what-if / edit workload, every request must produce a span
// tree that reaches the engine's kernel phases (visible via
// /debug/trace), the hot-arc accounting must surface the touched arcs
// (/debug/hotarcs), and the /metrics exposition must pass the
// package's own Prometheus linter.
//
// Cost — the same warm workload is run A/B against an instrumented
// server and one with DisableObs (no tracer, no registry, no /debug).
// Both servers are booted once and kept warm; timed bursts alternate
// between them in ABBA blocks, and the gate takes the median block
// ratio of requests per CPU second. The instrumented server must keep
// >= 97% of the stripped server's throughput; observability that taxes
// the hot path more than 3% does not get to be on by default. The
// timing gate is skipped under -quick (shared CI runners); the
// fidelity assertions always run.
func runOBS(w io.Writer) error {
	stack, err := gen.Stack(31)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := netlist.WriteTSG(&buf, stack); err != nil {
		return err
	}
	text := buf.String()
	res, err := cycletime.Analyze(stack)
	if err != nil {
		return err
	}
	wantLam := res.CycleTime.Normalize().String()

	if err := obsFidelity(w, stack, text); err != nil {
		return err
	}

	clients, iters, blocks := 1, 800, 40
	if Quick {
		iters, blocks = 4, 1
	}
	// Both servers live for the whole measurement: booting a fresh
	// server per drive perturbs heap and GC state differently every
	// time, and that boot noise dwarfed the <3% effect being gated.
	// With two warm rigs, paired bursts differ only in instrumentation.
	onRig, err := newServeRig(serve.Config{}, stack, text, wantLam, true, clients)
	if err != nil {
		return fmt.Errorf("exp: OBS instrumented rig: %w", err)
	}
	defer onRig.close()
	offRig, err := newServeRig(serve.Config{DisableObs: true}, stack, text, wantLam, true, clients)
	if err != nil {
		return fmt.Errorf("exp: OBS stripped rig: %w", err)
	}
	defer offRig.close()
	for _, r := range []*serveRig{onRig, offRig} { // untimed warm-up
		if _, err := obsBurst(r, max(iters/4, 1)); err != nil {
			return fmt.Errorf("exp: OBS warm-up: %w", err)
		}
	}
	// ABBA crossover blocks: each block bursts on, off, off, on and
	// scores the geometric mean of its two ratios, so any monotone drift
	// across the four bursts — heap growth, GC cadence, scheduler
	// warm-up, all of which systematically favour later bursts on a
	// shared 1-core runner — cancels to first order instead of
	// masquerading as instrumentation cost. The gate takes the median
	// block ratio.
	ratios := make([]float64, 0, blocks)
	var bestOn, bestOff float64
	for b := 0; b < blocks; b++ {
		var got [4]float64
		for d, r := range [4]*serveRig{onRig, offRig, offRig, onRig} {
			v, err := obsBurst(r, iters)
			if err != nil {
				return fmt.Errorf("exp: OBS burst %d.%d: %w", b, d, err)
			}
			got[d] = v
		}
		on1, off1, off2, on2 := got[0], got[1], got[2], got[3]
		ratios = append(ratios, math.Sqrt((on1/off1)*(on2/off2)))
		bestOn, bestOff = max(bestOn, max(on1, on2)), max(bestOff, max(off1, off2))
	}
	for b, r := range ratios {
		fmt.Fprintf(w, "block %d on/off ratio: %.3f\n", b, r)
	}
	sort.Float64s(ratios)
	ratio := ratios[len(ratios)/2]

	tab := textio.New(fmt.Sprintf("observability overhead: warm analyze+what-if throughput, instrumentation on vs off (median of %d ABBA blocks)", blocks),
		"mode", "best req/cpu-s", "median on/off")
	tab.AddRow("instrumented (default)", fmt.Sprintf("%.0f", bestOn), "")
	tab.AddRow("stripped (DisableObs)", fmt.Sprintf("%.0f", bestOff), "")
	tab.AddRow("", "", fmt.Sprintf("%.3f", ratio))
	if err := tab.Render(w); err != nil {
		return err
	}

	if Quick {
		fmt.Fprintln(w, "observability overhead gate (>= 0.97 on/off) skipped under -quick; fidelity checks passed")
		return nil
	}
	fmt.Fprintf(w, "instrumented/stripped throughput ratio: %.3f (acceptance: >= 0.97, i.e. < 3%% overhead)\n", ratio)
	if ratio < 0.97 {
		return fmt.Errorf("exp: instrumentation costs %.1f%% of warm throughput (ratio %.3f < 0.97)", (1-ratio)*100, ratio)
	}
	return nil
}

// obsFidelity drives a small mixed workload against a fully
// instrumented server and asserts what the introspection endpoints
// must show afterwards.
func obsFidelity(w io.Writer, g *sg.Graph, text string) error {
	s := serve.New(serve.Config{Version: "exp-obs"})
	srv := httptest.NewServer(s)
	defer srv.Close()
	ctx := context.Background()

	cl := client.New(srv.URL, client.WithHTTPClient(srv.Client()))
	up, err := cl.UploadText(ctx, text)
	if err != nil {
		return err
	}
	ref := client.ByFingerprint(up.Fingerprint)
	if _, err := cl.Analyze(ctx, ref); err != nil {
		return err
	}
	order := sg.CanonicalArcOrder(g)
	if _, err := cl.WhatIf(ctx, ref, []client.WhatIfQuery{
		{Arc: 0, Delay: g.Arc(order[0]).Delay * 1.5},
		{Arc: 1, Delay: g.Arc(order[1]).Delay * 1.5},
	}); err != nil {
		return err
	}
	if _, err := cl.Edit(ctx, ref, []client.DelayEdit{{Arc: 0, Delay: g.Arc(order[0]).Delay + 1}}); err != nil {
		return err
	}
	if _, err := cl.Analyze(ctx, ref); err != nil { // post-edit: incremental path
		return err
	}

	// Span depth: every serve.* root must reach an engine.* phase.
	var tr struct {
		Recorded uint64           `json:"recorded_total"`
		Spans    []obs.SpanRecord `json:"spans"`
	}
	if err := getJSONBody(srv, "/debug/trace?graph="+up.Fingerprint, &tr); err != nil {
		return err
	}
	kernelDepth := map[string]bool{}
	var reach func(n *obs.TreeNode) bool
	reach = func(n *obs.TreeNode) bool {
		if strings.HasPrefix(n.Name, "engine.") {
			return true
		}
		for _, c := range n.Children {
			if reach(c) {
				return true
			}
		}
		return false
	}
	for _, root := range obs.BuildTrees(tr.Spans) {
		if strings.HasPrefix(root.Name, "serve.") && reach(root) {
			kernelDepth[root.Name] = true
		}
	}
	for _, ep := range []string{"serve.upload", "serve.analyze", "serve.whatif", "serve.edit"} {
		if !kernelDepth[ep] {
			return fmt.Errorf("exp: OBS: %s trace never reached an engine phase (got %d spans)", ep, len(tr.Spans))
		}
	}
	fmt.Fprintf(w, "trace fidelity: %d spans for %s; upload/analyze/whatif/edit trees all reach kernel phases\n",
		len(tr.Spans), up.Fingerprint[:12])

	// Hot arcs: the what-if/edit traffic above touched arcs 0 and 1.
	var hot struct {
		Graphs []struct {
			Fingerprint string `json:"fingerprint"`
			Touches     int64  `json:"touches_total"`
		} `json:"graphs"`
	}
	if err := getJSONBody(srv, "/debug/hotarcs", &hot); err != nil {
		return err
	}
	if len(hot.Graphs) != 1 || hot.Graphs[0].Touches < 3 {
		return fmt.Errorf("exp: OBS: hot-arc accounting empty after what-if/edit workload: %+v", hot)
	}
	fmt.Fprintf(w, "hot arcs: %d touches recorded via /debug/hotarcs\n", hot.Graphs[0].Touches)

	// Metrics: the exposition must lint clean and carry the core
	// families.
	metrics, err := cl.Metrics(ctx)
	if err != nil {
		return err
	}
	problems, err := obs.Lint(strings.NewReader(metrics))
	if err != nil {
		return err
	}
	if len(problems) != 0 {
		return fmt.Errorf("exp: OBS: /metrics fails exposition lint: %v", problems)
	}
	fams, _, err := obs.Parse(strings.NewReader(metrics))
	if err != nil {
		return err
	}
	for _, series := range []string{
		"tsgserve_http_requests_total",
		"tsgserve_http_request_duration_seconds_count",
		"tsgserve_engine_phase_seconds_count",
		"tsgserve_build_info",
	} {
		if _, ok := obs.FindSample(fams, series, nil); !ok {
			return fmt.Errorf("exp: OBS: /metrics missing series %s", series)
		}
	}
	fmt.Fprintf(w, "metrics: %d families, exposition lints clean\n", len(fams))
	return nil
}

// obsBurst drives iters analyze + what-if rounds on every client of r
// and reports throughput as requests per CPU second. CPU time, not wall
// time: instrumentation cost is CPU work, and CPU seconds are immune to
// the steal/descheduling noise of shared runners (falls back to wall
// time where rusage is unavailable).
func obsBurst(r *serveRig, iters int) (float64, error) {
	// Normalise heap state before timing so GC debt accrued by earlier
	// bursts is not charged to this one.
	runtime.GC()
	cpu0 := cpuSeconds()
	res := r.drive(iters)
	if err := res.check("in the burst"); err != nil {
		return 0, err
	}
	// Collect inside the timed window: each burst ends at a clean heap
	// and is charged the GC cost of exactly the garbage it produced.
	// Without this, whether a burst happens to contain N or N+1 GC
	// cycles swings its CPU charge by several percent — quantization
	// noise far larger than the <3% effect being gated.
	runtime.GC()
	elapsed := cpuSeconds() - cpu0
	if elapsed <= 0 {
		elapsed = res.elapsed.Seconds()
	}
	return float64(2*res.ops) / elapsed, nil
}

// getJSONBody fetches a debug endpoint off the test server and decodes
// its JSON reply.
func getJSONBody(srv *httptest.Server, path string, out interface{}) error {
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
