package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"tsg/client"
	"tsg/internal/cluster"
	"tsg/internal/cycletime"
	"tsg/internal/gen"
	"tsg/internal/mcr"
	"tsg/internal/netlist"
	"tsg/internal/serve"
	"tsg/internal/sg"
	"tsg/internal/stat"
)

// The read-mix and edit-mix workloads: open-loop traffic from this
// process through client → cluster.Router → three serve.Server
// backends on loopback, then a closed-loop phase for capacity.

type opKind int

const (
	opAnalyze opKind = iota
	opWhatIf
	opSlacks
	opEdit
)

// whatIfFactors scale a hot arc's nominal delay in what-if queries.
// They are all increases, answered from the engine's cached rows.
var whatIfFactors = []float64{1.25, 1.5, 2}

// mixGraph is one member of a working set with its oracles.
type mixGraph struct {
	name   string
	g      *sg.Graph
	text   string
	fp     string
	canon  []int      // wire rank -> local arc
	lambda stat.Ratio // mcr.Howard on the uploaded delays
	hot    []int      // wire ranks of the hot arcs
	// whatIf[i][f] is λ with hot[i] scaled by whatIfFactors[f], from
	// SensitivitySweep on a fresh engine (read-mix only).
	whatIf [][]stat.Ratio
}

func newMixGraph(name string, g *sg.Graph, hot int, rng *rand.Rand) (*mixGraph, error) {
	var buf bytes.Buffer
	if err := netlist.WriteTSG(&buf, g); err != nil {
		return nil, fmt.Errorf("%s: writing .tsg: %w", name, err)
	}
	lam, err := mcr.Howard(g)
	if err != nil {
		return nil, fmt.Errorf("%s: Howard oracle: %w", name, err)
	}
	mg := &mixGraph{name: name, g: g, text: buf.String(), fp: sg.Fingerprint(g), canon: sg.CanonicalArcOrder(g), lambda: lam}
	perm := rng.Perm(g.NumArcs())
	if hot > len(perm) {
		hot = len(perm)
	}
	mg.hot = perm[:hot]
	return mg, nil
}

// whatIfOracle fills mg.whatIf from one sweep on a fresh engine.
func (mg *mixGraph) whatIfOracle() error {
	e, err := cycletime.NewEngine(mg.g)
	if err != nil {
		return fmt.Errorf("%s: oracle engine: %w", mg.name, err)
	}
	var cands []cycletime.WhatIf
	for _, rank := range mg.hot {
		arc := mg.canon[rank]
		for _, f := range whatIfFactors {
			cands = append(cands, cycletime.WhatIf{Arc: arc, Delay: mg.g.Arc(arc).Delay * f})
		}
	}
	lams, err := e.SensitivitySweep(cands)
	if err != nil {
		return fmt.Errorf("%s: what-if oracle: %w", mg.name, err)
	}
	mg.whatIf = make([][]stat.Ratio, len(mg.hot))
	for i := range mg.hot {
		mg.whatIf[i] = lams[i*len(whatIfFactors) : (i+1)*len(whatIfFactors)]
	}
	return nil
}

// mixSpec describes one HTTP workload.
type mixSpec struct {
	durable bool
	rate    float64 // fixed open-loop arrival rate, ops/s over all senders
	graphs  func(rng *rand.Rand) ([]*mixGraph, error)
	// pick draws the next op's kind.
	pick func(rng *rand.Rand) opKind
	// placement, when set, accepts only placements of this shape.
	placement func(graphs []*mixGraph, urls []string) bool
}

// graphSpec names one working-set graph; a nil opt is the 66-event stack.
type graphSpec struct {
	name string
	opt  *gen.RandomOptions
}

var (
	stack66    = graphSpec{"stack-66", nil}
	random2000 = graphSpec{"random-2000", &gen.RandomOptions{Events: 2000, Border: 8, ExtraArcs: 2000, MaxDelay: 16}}
)

// workingSet generates specs in order from rng, each graph with hot hot
// arcs and, when whatIf is set, its what-if oracle.
func workingSet(rng *rand.Rand, specs []graphSpec, hot int, whatIf bool) ([]*mixGraph, error) {
	out := make([]*mixGraph, 0, len(specs))
	for _, spec := range specs {
		var (
			g   *sg.Graph
			err error
		)
		if spec.opt == nil {
			g, err = gen.Stack(31)
		} else {
			g, err = gen.RandomLive(rand.New(rand.NewSource(rng.Int63())), *spec.opt)
		}
		if err != nil {
			return nil, fmt.Errorf("generating %s: %w", spec.name, err)
		}
		mg, err := newMixGraph(spec.name, g, hot, rng)
		if err != nil {
			return nil, err
		}
		if whatIf {
			if err := mg.whatIfOracle(); err != nil {
				return nil, err
			}
		}
		out = append(out, mg)
	}
	return out, nil
}

var readMix = mixSpec{
	rate: 330,
	graphs: func(rng *rand.Rand) ([]*mixGraph, error) {
		specs := []graphSpec{stack66, random2000}
		for i := 0; i < 14; i++ {
			specs = append(specs, graphSpec{fmt.Sprintf("random-500-%d", i),
				&gen.RandomOptions{Events: 500, Border: 6, ExtraArcs: 500, MaxDelay: 16}})
		}
		return workingSet(rng, specs, 128, true)
	},
	pick: func(rng *rand.Rand) opKind {
		switch u := rng.Float64(); {
		case u < 0.45:
			return opAnalyze
		case u < 0.90:
			return opWhatIf
		default:
			return opSlacks
		}
	},
}

var editMix = mixSpec{
	durable: true,
	rate:    150,
	graphs: func(rng *rand.Rand) ([]*mixGraph, error) {
		return workingSet(rng, []graphSpec{stack66, random2000}, 64, false)
	},
	pick: func(rng *rand.Rand) opKind {
		if rng.Float64() < 0.5 {
			return opEdit
		}
		return opAnalyze
	},
	// Each graph's primary commits its edits under one server-wide lock,
	// so whether both graphs share a primary changes write latency
	// severalfold. Every run uses one shape: distinct primaries, one
	// shared secondary.
	placement: func(graphs []*mixGraph, urls []string) bool {
		a := cluster.Placement(graphs[0].fp, urls, 2)
		b := cluster.Placement(graphs[1].fp, urls, 2)
		return a[0] != b[0] && a[1] == b[1]
	},
}

// op is one request of the load.
type op struct {
	kind    opKind
	graph   int
	hotIdx  []int // what-if: hot-set index of each query
	factors []int // what-if: whatIfFactors index of each query
	arc     int   // edit: wire rank
	delay   float64
}

// opGen is one sender's deterministic op stream: the same seed gives
// the same gaps and ops whatever the timing. For edits it tracks the
// current delay of the arcs this sender owns, so the final delays are
// known without depending on how two senders' commits interleave.
type opGen struct {
	rng     *rand.Rand
	meanGap float64 // seconds
	spec    *mixSpec
	graphs  []*mixGraph
	owned   [][]int           // per graph: hot-set indices this sender edits
	cur     []map[int]float64 // per graph: wire rank -> current delay
	pending *op               // drawn by the open loop past its end
	// slackGraphs are the graphs slacks ops go to: those of at most
	// maxSlackEvents events.
	slackGraphs []int
}

// maxSlackEvents keeps slacks ops on the 66-event stack: a random-2000
// or random-500 answer is 1000 to 4000 rows, a 5 to 30 ms op that sets
// p99 by itself and makes it swing with how many of them a run draws.
const maxSlackEvents = 100

func newOpGen(seed int64, sender, senders int, spec *mixSpec, graphs []*mixGraph) *opGen {
	g := &opGen{
		rng:     rand.New(rand.NewSource(seed*7919 + int64(sender) + 1)),
		meanGap: float64(senders) / spec.rate,
		spec:    spec,
		graphs:  graphs,
	}
	for i, mg := range graphs {
		if mg.g.NumEvents() <= maxSlackEvents {
			g.slackGraphs = append(g.slackGraphs, i)
		}
		var own []int
		for h := sender; h < len(mg.hot); h += senders {
			own = append(own, h)
		}
		g.owned = append(g.owned, own)
		g.cur = append(g.cur, map[int]float64{})
	}
	return g
}

// next draws the gap to the next arrival and the op sent then.
func (g *opGen) next() (time.Duration, op) {
	gap := time.Duration(g.rng.ExpFloat64() * g.meanGap * float64(time.Second))
	o := op{kind: g.spec.pick(g.rng)}
	if o.kind == opSlacks {
		o.graph = g.slackGraphs[g.rng.Intn(len(g.slackGraphs))]
	} else {
		o.graph = g.rng.Intn(len(g.graphs))
	}
	mg := g.graphs[o.graph]
	switch o.kind {
	case opWhatIf:
		start := g.rng.Intn(len(mg.hot))
		for j := 0; j < 8; j++ {
			o.hotIdx = append(o.hotIdx, (start+j)%len(mg.hot))
			o.factors = append(o.factors, g.rng.Intn(len(whatIfFactors)))
		}
	case opEdit:
		own := g.owned[o.graph]
		o.arc = mg.hot[own[g.rng.Intn(len(own))]]
		cur, ok := g.cur[o.graph][o.arc]
		if !ok {
			cur = mg.g.Arc(mg.canon[o.arc]).Delay
		}
		// Nudge by up to ±10%, on a 1/8 grid so every sum stays exact.
		d := math.Round(cur*(1+0.1*(2*g.rng.Float64()-1))*8) / 8
		if d < 0.125 {
			d = 0.125
		}
		o.delay = d
		g.cur[o.graph][o.arc] = d
	}
	return gap, o
}

// sample is one completed op.
type sample struct {
	kind opKind
	lat  time.Duration // from the scheduled send (open loop) or the send
	lag  time.Duration // how late the generator sent it
	sent time.Time
	done time.Time
	err  error
	tr   *opTrace
	due  time.Time // zero in the closed loop
}

// httpMix is one set-up of an HTTP workload.
type httpMix struct {
	spec    *mixSpec
	senders int
	graphs  []*mixGraph
	rig     *rig
	gens    []*opGen
	clients []*client.Client
	oracles *tally
}

func setupHTTPMix(ctx context.Context, spec *mixSpec, seed int64, dataRoot string, tr *tracer, oracles *tally) (*httpMix, error) {
	w := &httpMix{spec: spec, senders: runtime.GOMAXPROCS(0), oracles: oracles}
	var err error
	if w.graphs, err = spec.graphs(rand.New(rand.NewSource(seed))); err != nil {
		return nil, err
	}
	var accept func([]string) bool
	if spec.placement != nil {
		accept = func(urls []string) bool { return spec.placement(w.graphs, urls) }
	}
	if w.rig, err = bootRig(3, spec.durable, dataRoot, tr, accept); err != nil {
		return nil, err
	}
	if err := w.warm(ctx); err != nil {
		w.rig.close()
		return nil, err
	}
	for s := 0; s < w.senders; s++ {
		w.gens = append(w.gens, newOpGen(seed, s, w.senders, spec, w.graphs))
		w.clients = append(w.clients, w.rig.senderClient())
	}
	return w, nil
}

func (w *httpMix) close() { w.rig.close() }

// warm uploads the working set through the router, then brings every
// replica to steady state: compiled engine, cached analysis, slack
// certificate and what-if rows for the whole hot set.
func (w *httpMix) warm(ctx context.Context) error {
	cl := w.rig.senderClient()
	for _, mg := range w.graphs {
		up, err := cl.UploadText(ctx, mg.text)
		if err != nil {
			return fmt.Errorf("uploading %s: %w", mg.name, err)
		}
		if up.Fingerprint != mg.fp {
			return fmt.Errorf("%s: router fingerprint %s, local %s", mg.name, up.Fingerprint, mg.fp)
		}
		var all []client.WhatIfQuery
		for _, rank := range mg.hot {
			for _, f := range whatIfFactors {
				all = append(all, client.WhatIfQuery{Arc: rank, Delay: mg.g.Arc(mg.canon[rank]).Delay * f})
			}
		}
		ref := client.ByFingerprint(mg.fp)
		for _, url := range cluster.Placement(mg.fp, w.rig.urls, 2) {
			dc := direct(url)
			if _, err := dc.Analyze(ctx, ref); err != nil {
				return fmt.Errorf("warming %s on %s: %w", mg.name, url, err)
			}
			if mg.whatIf == nil {
				continue // edit-mix sends no slacks or what-ifs
			}
			if _, err := dc.Slacks(ctx, ref); err != nil {
				return fmt.Errorf("warming %s on %s: %w", mg.name, url, err)
			}
			if _, err := dc.WhatIf(ctx, ref, all); err != nil {
				return fmt.Errorf("warming %s on %s: %w", mg.name, url, err)
			}
		}
	}
	// One lap of every op kind through the router per graph warms its
	// read path and connections; edits are left to the measured phases.
	kinds := []opKind{opAnalyze, opWhatIf, opSlacks}
	if w.spec.durable {
		kinds = kinds[:1]
	}
	for gi := range w.graphs {
		for _, k := range kinds {
			o := op{kind: k, graph: gi}
			if k == opWhatIf {
				o.hotIdx, o.factors = []int{0}, []int{0}
			}
			if err := w.do(ctx, cl, o); err != nil {
				return fmt.Errorf("warm lap on %s: %w", w.graphs[gi].name, err)
			}
		}
	}
	return nil
}

// sameLambda reports exact rational equality of a wire λ and a ratio.
func sameLambda(l serve.Lambda, r stat.Ratio) bool {
	return l.Den >= 1 && l.Num*float64(r.Den) == r.Num*float64(l.Den)
}

// saneLambda accepts a λ whose exact value the load generator cannot predict
// (concurrent edits move it): a positive finite ratio.
func saneLambda(l serve.Lambda) bool {
	return l.Den >= 1 && l.Num > 0 && !math.IsInf(l.Num, 0) && !math.IsNaN(l.Num)
}

// do sends one op and checks its answer against the oracles.
func (w *httpMix) do(ctx context.Context, cl *client.Client, o op) error {
	mg := w.graphs[o.graph]
	ref := client.ByFingerprint(mg.fp)
	switch o.kind {
	case opAnalyze:
		res, err := cl.Analyze(ctx, ref)
		if err != nil {
			return err
		}
		if len(res.Critical) == 0 {
			return fmt.Errorf("%w: %s analyze returned no critical cycle", errWrong, mg.name)
		}
		if w.spec.durable {
			if !saneLambda(res.Lambda) {
				return fmt.Errorf("%w: %s analyze λ %s", errWrong, mg.name, res.Lambda.Text)
			}
		} else if !sameLambda(res.Lambda, mg.lambda) {
			return fmt.Errorf("%w: %s analyze λ %s, Howard %s", errWrong, mg.name, res.Lambda.Text, mg.lambda)
		} else {
			w.oracles.add("howard")
		}
	case opWhatIf:
		qs := make([]client.WhatIfQuery, len(o.hotIdx))
		for j, hi := range o.hotIdx {
			rank := mg.hot[hi]
			qs[j] = client.WhatIfQuery{Arc: rank, Delay: mg.g.Arc(mg.canon[rank]).Delay * whatIfFactors[o.factors[j]]}
		}
		res, err := cl.WhatIf(ctx, ref, qs)
		if err != nil {
			return err
		}
		if len(res.Lambdas) != len(qs) {
			return fmt.Errorf("%w: %s what-if answered %d of %d", errWrong, mg.name, len(res.Lambdas), len(qs))
		}
		for j, l := range res.Lambdas {
			if want := mg.whatIf[o.hotIdx[j]][o.factors[j]]; !sameLambda(l, want) {
				return fmt.Errorf("%w: %s what-if %d λ %s, sweep %s", errWrong, mg.name, j, l.Text, want)
			}
			w.oracles.add("sweep")
		}
	case opSlacks:
		res, err := cl.Slacks(ctx, ref)
		if err != nil {
			return err
		}
		if !sameLambda(res.Lambda, mg.lambda) || len(res.Slacks) != mg.g.NumArcs() {
			return fmt.Errorf("%w: %s slacks λ %s with %d arcs", errWrong, mg.name, res.Lambda.Text, len(res.Slacks))
		}
		w.oracles.add("howard")
	case opEdit:
		res, err := cl.Edit(ctx, ref, []client.DelayEdit{{Arc: o.arc, Delay: o.delay}})
		if err != nil {
			return err
		}
		if res.Deduped || res.Applied != 1 || !saneLambda(res.Lambda) {
			return fmt.Errorf("%w: %s edit applied %d deduped %v λ %s", errWrong, mg.name, res.Applied, res.Deduped, res.Lambda.Text)
		}
	}
	return nil
}

// openLoop sends every sender's arrivals on schedule for dur. A late
// sender sends at once; latency counts from the scheduled time, so a
// stall is charged to every op it delayed.
func (w *httpMix) openLoop(ctx context.Context, dur time.Duration, traced bool) ([]sample, time.Time) {
	start := time.Now().Add(5 * time.Millisecond)
	end := start.Add(dur)
	out := make([][]sample, w.senders)
	var wg sync.WaitGroup
	for s := 0; s < w.senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			gen, cl := w.gens[s], w.clients[s]
			due := start
			for {
				gap, o := gen.next()
				due = due.Add(gap)
				if due.After(end) {
					gen.pending = &o
					return
				}
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				out[s] = append(out[s], w.send(ctx, cl, o, due, traced))
			}
		}(s)
	}
	wg.Wait()
	var all []sample
	for _, ss := range out {
		all = append(all, ss...)
	}
	return all, start
}

// closedLoop runs every sender back to back for dur.
func (w *httpMix) closedLoop(ctx context.Context, dur time.Duration, traced bool) ([]sample, time.Time) {
	start := time.Now()
	end := start.Add(dur)
	out := make([][]sample, w.senders)
	var wg sync.WaitGroup
	for s := 0; s < w.senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			gen, cl := w.gens[s], w.clients[s]
			for time.Now().Before(end) {
				var o op
				if gen.pending != nil {
					o, gen.pending = *gen.pending, nil
				} else {
					_, o = gen.next()
				}
				out[s] = append(out[s], w.send(ctx, cl, o, time.Time{}, traced))
			}
		}(s)
	}
	wg.Wait()
	var all []sample
	for _, ss := range out {
		all = append(all, ss...)
	}
	return all, start
}

func (w *httpMix) send(ctx context.Context, cl *client.Client, o op, due time.Time, traced bool) sample {
	sm := sample{kind: o.kind, due: due}
	if traced {
		ctx, sm.tr = w.rig.tr.begin(ctx)
	}
	sm.sent = time.Now()
	sm.err = w.do(ctx, cl, o)
	sm.done = time.Now()
	if due.IsZero() {
		due = sm.sent
	}
	sm.lat, sm.lag = sm.done.Sub(due), sm.sent.Sub(due)
	if sm.lag < 0 {
		sm.lag = 0
	}
	return sm
}

// verifyReplicas is the edit-mix end-of-run oracle: every replica of
// every graph, queried directly, must answer a λ bit-identical to a
// from-scratch engine on the final delays.
func (w *httpMix) verifyReplicas(ctx context.Context) error {
	for gi, mg := range w.graphs {
		final := map[int]float64{} // local arc -> delay
		for _, gen := range w.gens {
			for rank, d := range gen.cur[gi] {
				final[mg.canon[rank]] = d
			}
		}
		g2, err := mg.g.WithDelays(func(arc int, d float64) float64 {
			if v, ok := final[arc]; ok {
				return v
			}
			return d
		})
		if err != nil {
			return fmt.Errorf("%s: final graph: %w", mg.name, err)
		}
		e, err := cycletime.NewEngine(g2)
		if err != nil {
			return fmt.Errorf("%s: fresh engine: %w", mg.name, err)
		}
		want, err := e.CycleTime()
		if err != nil {
			return fmt.Errorf("%s: fresh engine: %w", mg.name, err)
		}
		want = want.Normalize()
		for _, url := range cluster.Placement(mg.fp, w.rig.urls, 2) {
			got, err := direct(url).Analyze(ctx, client.ByFingerprint(mg.fp))
			if err != nil {
				return fmt.Errorf("%s: replica %s: %w", mg.name, url, err)
			}
			if got.Lambda.Num != want.Num || got.Lambda.Den != want.Den {
				return fmt.Errorf("%w: %s replica %s λ %s, fresh engine on final delays %s",
					errWrong, mg.name, url, got.Lambda.Text, want)
			}
			w.oracles.add("final-replicas")
		}
	}
	return nil
}
