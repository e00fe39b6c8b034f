// Command perfbench is the repository benchmark. It runs one workload
// for a fixed time and prints, as its last stdout line, one JSON
// result: the end-to-end metrics of BENCHMARK.json, or with --trace 1
// its per-layer metrics. See README.md.
//
//	perfbench --workload read-mix --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// setups is how many times a run sets its workload up; setup_s is the
// median, so one slow set-up does not move it.
const setups = 3

// config is one run's parameters.
type config struct {
	workload string
	seed     int64
	dur      time.Duration
	traced   bool
	dataRoot string // durable backends keep their WAL under it
}

// errWrong marks an answer an oracle rejected.
var errWrong = errors.New("wrong answer")

// outcome is what a workload measured.
type outcome struct {
	vals      map[string]float64
	attempted int64
	failed    int64
	firstErr  error
	oracles   tally
}

// tally counts the answers each oracle checked; safe for concurrent use.
type tally struct {
	mu sync.Mutex
	n  map[string]int
}

func (t *tally) add(oracle string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.n == nil {
		t.n = map[string]int{}
	}
	t.n[oracle]++
}

func (o *outcome) note(err error) {
	o.attempted++
	if err != nil {
		o.failed++
		if o.firstErr == nil {
			o.firstErr = err
		}
	}
}

var workloads = map[string]func(context.Context, config) (*outcome, error){
	"read-mix": func(ctx context.Context, c config) (*outcome, error) { return runHTTPMix(ctx, &readMix, c) },
	"edit-mix": func(ctx context.Context, c config) (*outcome, error) { return runHTTPMix(ctx, &editMix, c) },
	"batch":    runBatch,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "read-mix, edit-mix or batch")
	seed := fs.Int64("seed", 1, "seed of the graphs, the arrival schedule and the op sequence")
	seconds := fs.Float64("seconds", 10, "measured time per run")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
	dataRoot := fs.String("data-root", ".bench_build/perfbench-data", "directory for the durable backends' write-ahead logs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runWorkload, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload read-mix|edit-mix|batch, --seconds > 0, --trace 0|1\n")
		return 2
	}
	cfg := config{workload: *workload, seed: *seed, dur: time.Duration(*seconds * float64(time.Second)),
		traced: *trace == 1, dataRoot: *dataRoot}
	out, err := runWorkload(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if _, ok := out.vals["peak_rss_mb"]; !ok {
		out.vals["peak_rss_mb"] = peakRSSMB()
	}
	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	}
	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: fill(defs, out.vals)}
	env, _ := json.Marshal(struct {
		Workload string         `json:"workload"`
		Seed     int64          `json:"seed"`
		Seconds  float64        `json:"seconds"`
		Traced   bool           `json:"traced"`
		Host     hostInfo       `json:"host"`
		Oracles  map[string]int `json:"oracles"`
	}{cfg.workload, cfg.seed, *seconds, cfg.traced, host(), out.oracles.n})
	fmt.Fprintf(stdout, "env %s\n", env)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if out.failed > 0 {
		fmt.Fprintf(stderr, "perfbench: %d of %d ops failed; first: %v\n", out.failed, out.attempted, out.firstErr)
		return 1
	}
	return 0
}

// timedSetups runs setup `setups` times, keeping the last fixture and
// closing the others, and returns the median set-up time in seconds.
func timedSetups[F any](setup func() (F, error), close func(F)) (F, float64, error) {
	var (
		f     F
		times []float64
	)
	for k := 0; k < setups; k++ {
		t := time.Now()
		var err error
		if f, err = setup(); err != nil {
			return f, 0, err
		}
		times = append(times, time.Since(t).Seconds())
		if k < setups-1 {
			close(f)
		}
	}
	return f, median(times), nil
}

// pct is the relative change of traced over untraced, in percent.
func pct(traced, untraced float64) float64 {
	if untraced == 0 {
		return 0
	}
	return 100 * (traced - untraced) / untraced
}

// overhead reports each end-to-end metric's traced-versus-untraced change.
func overhead(vals, untraced, traced map[string]float64) {
	for _, m := range []string{"p50_ms", "p90_ms", "capacity_rps", "cpu_ms_per_op"} {
		vals["overhead."+m+"_pct"] = pct(traced[m], untraced[m])
	}
}

// failedLatency stands in for a failed op's latency: it misses every
// latency limit.
const failedLatency = time.Minute

func runHTTPMix(ctx context.Context, spec *mixSpec, cfg config) (*outcome, error) {
	var tr *tracer
	if cfg.traced {
		tr = &tracer{}
	}
	out := &outcome{}
	w, setupS, err := timedSetups(func() (*httpMix, error) {
		return setupHTTPMix(ctx, spec, cfg.seed, cfg.dataRoot, tr, &out.oracles)
	}, (*httpMix).close)
	if err != nil {
		return nil, err
	}
	defer w.close()
	out.vals = map[string]float64{"setup_s": setupS}
	if !cfg.traced {
		m, err := w.measure(ctx, cfg.dur, false, out)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			out.vals[k] = v
		}
	} else {
		untraced, err := w.measure(ctx, cfg.dur/2, false, out)
		if err != nil {
			return nil, err
		}
		traced, err := w.measure(ctx, cfg.dur/2, true, out)
		if err != nil {
			return nil, err
		}
		for k, v := range traced {
			out.vals[k] = v
		}
		for _, k := range []string{"read_p50_ms", "read_p99_ms", "write_p50_ms", "write_p99_ms"} {
			out.vals["e2e."+k] = untraced[k]
		}
		overhead(out.vals, untraced, traced)
	}
	if spec.durable {
		err := w.verifyReplicas(ctx)
		out.note(err)
		if err != nil && !errors.Is(err, errWrong) {
			return nil, err
		}
	}
	return out, nil
}

// measure runs one fixed-rate phase (70% of dur) and one closed-loop
// phase (the rest) and returns their metrics; with traced set, also the
// ledger and the counter diffs. Rates and tails are medians over
// windows of the phase, so a burst of machine noise in one window does
// not move them.
func (w *httpMix) measure(ctx context.Context, dur time.Duration, traced bool, out *outcome) (map[string]float64, error) {
	vals := map[string]float64{}
	var before *counters
	if traced {
		w.rig.tr.on.Store(true)
		defer func() { w.rig.tr.on.Store(false); w.rig.tr.forget() }()
		var err error
		if before, err = w.rig.snapshot(ctx); err != nil {
			return nil, err
		}
	}
	fixed := dur * 7 / 10
	stopCPU := sampleCPU(time.Second)
	open, start := w.openLoop(ctx, fixed, traced)
	marks := stopCPU()
	// The closed loop's high-water mark follows how fast the host lets
	// it allocate; the fixed-rate phase's does not.
	vals["peak_rss_mb"] = peakRSSMB()
	closed, cstart := w.closedLoop(ctx, dur-fixed, traced)

	all := append(open, closed...)
	var reads, writes, lags []float64
	var primary []sample
	for _, s := range all {
		out.note(s.err)
	}
	for _, s := range open {
		if s.kind == opEdit {
			writes = append(writes, latMS(s))
		} else {
			reads = append(reads, latMS(s))
		}
		if (s.kind == opEdit) == w.spec.durable {
			primary = append(primary, s)
		}
		lags = append(lags, ms(s.lag))
	}
	var lats []float64
	for _, s := range primary {
		lats = append(lats, latMS(s))
	}
	vals["p50_ms"] = median(lats)
	vals["p90_ms"] = windowQuantile(primary, start, 0.9)
	vals["capacity_rps"] = medianRate(closed, cstart)
	vals["cpu_ms_per_op"] = cpuPerOp(open, marks)
	vals["read_p50_ms"] = median(reads)
	vals["read_p99_ms"] = quantile(reads, 0.99)
	vals["write_p50_ms"] = median(writes)
	vals["write_p99_ms"] = quantile(writes, 0.99)
	if !traced {
		return vals, nil
	}

	failed, edits := 0, 0
	for _, s := range all {
		if s.err != nil {
			failed++
		} else if s.kind == opEdit {
			edits++
		}
	}
	vals["driver.lag_p99_ms"] = quantile(lags, 0.99)
	vals["driver.sent"] = float64(len(all))
	vals["driver.failed"] = float64(failed)
	vals["driver.error_rate"] = float64(failed) / float64(len(all))
	after, err := w.rig.snapshot(ctx)
	if err != nil {
		return nil, err
	}
	ledger(vals, all)
	counterDiffs(vals, before, after, len(all), edits)
	return vals, nil
}

// windowQuantile is the median, over one-second windows of the phase
// from start, of the q-quantile latency of the ops due in each window.
func windowQuantile(samples []sample, start time.Time, q float64) float64 {
	var wins [][]float64
	for _, s := range samples {
		i := int(s.due.Sub(start) / time.Second)
		for len(wins) <= i {
			wins = append(wins, nil)
		}
		wins[i] = append(wins[i], latMS(s))
	}
	var qs []float64
	for _, w := range wins {
		if len(w) > 0 {
			qs = append(qs, quantile(w, q))
		}
	}
	return median(qs)
}

// latMS is an op's latency in ms; a failed op misses every limit.
func latMS(s sample) float64 {
	if s.err != nil {
		return ms(failedLatency)
	}
	return ms(s.lat)
}

// medianRate is the median, over whole one-second windows from start,
// of the ops completed without error in each window.
func medianRate(samples []sample, start time.Time) float64 {
	var counts []float64
	for _, s := range samples {
		if s.err != nil {
			continue
		}
		i := int(s.done.Sub(start) / time.Second)
		for len(counts) <= i {
			counts = append(counts, 0)
		}
		counts[i]++
	}
	if len(counts) > 1 {
		counts = counts[:len(counts)-1] // the last window is partial
	}
	return median(counts)
}

// cpuPerOp is the median, over the CPU sampler's windows, of process
// CPU time per op completed in the window.
func cpuPerOp(samples []sample, marks []cpuMark) float64 {
	var per []float64
	for i := 1; i < len(marks); i++ {
		n := 0
		for _, s := range samples {
			if s.err == nil && !s.done.Before(marks[i-1].at) && s.done.Before(marks[i].at) {
				n++
			}
		}
		if n > 0 {
			per = append(per, ms(marks[i].cpu-marks[i-1].cpu)/float64(n))
		}
	}
	return median(per)
}

// ledger attributes each traced op's client latency to the layers:
// net (client minus router handler), cluster self time (router handler
// minus its backend hops), serve (backend handlers), and the remainder
// no layer owns (hop time minus backend time: the router→backend
// round trip).
func ledger(vals map[string]float64, samples []sample) {
	type acc struct {
		net, self, serve  []float64
		hops              float64
		client, remainder time.Duration
		n                 int
	}
	var rd, ed acc
	for _, s := range samples {
		if s.err != nil || s.tr == nil || s.tr.router.start.IsZero() {
			continue
		}
		a := &rd
		if s.kind == opEdit {
			a = &ed
		}
		client := s.done.Sub(s.sent)
		router := s.tr.router.end.Sub(s.tr.router.start)
		hop, srv := unionLen(s.tr.hops), unionLen(s.tr.serve)
		a.net = append(a.net, us(client-router))
		a.self = append(a.self, us(router-hop))
		a.serve = append(a.serve, us(srv))
		a.hops += float64(len(s.tr.hops))
		a.client += client
		a.remainder += hop - srv
		a.n++
	}
	if rd.n > 0 {
		vals["net.read_us_p50"] = median(rd.net)
		vals["cluster.read_self_us_p50"] = quantile(rd.self, 0.5)
		vals["cluster.read_self_us_p99"] = quantile(rd.self, 0.99)
		vals["cluster.hops_per_read"] = rd.hops / float64(rd.n)
		vals["serve.read_us_p50"] = quantile(rd.serve, 0.5)
		vals["serve.read_us_p99"] = quantile(rd.serve, 0.99)
		vals["ledger.read_remainder_pct"] = 100 * float64(rd.remainder) / float64(rd.client)
	}
	if ed.n > 0 {
		vals["net.edit_us_p50"] = median(ed.net)
		vals["cluster.write_self_us_p50"] = median(ed.self)
		vals["cluster.replication_hops_per_edit"] = ed.hops/float64(ed.n) - 1
		vals["serve.edit_us_p50"] = quantile(ed.serve, 0.5)
		vals["serve.edit_us_p99"] = quantile(ed.serve, 0.99)
		vals["ledger.edit_remainder_pct"] = 100 * float64(ed.remainder) / float64(ed.client)
	}
}

// counterDiffs turns two snapshots of the program's own counters into
// per-layer metrics, normalised per 1000 ops where they count work.
func counterDiffs(vals map[string]float64, before, after *counters, ops, edits int) {
	per := 1000 / float64(ops)
	if lookups := (after.hits - before.hits) + (after.misses - before.misses); lookups > 0 {
		vals["serve.cache_hit_ratio"] = float64(after.hits-before.hits) / float64(lookups)
	}
	if n := after.hedgeAttempts - before.hedgeAttempts; n > 0 {
		vals["cluster.hedge_win_ratio"] = float64(after.hedgeWins-before.hedgeWins) / float64(n)
	}
	a, b := after.eng, before.eng
	for name, d := range map[string]int64{
		"full_analyses":        a.Analyses - b.Analyses,
		"incremental_analyses": a.IncrementalAnalyses - b.IncrementalAnalyses,
		"fast_path_answers":    a.FastPathHits - b.FastPathHits,
		"table_answers":        a.TableAnswers - b.TableAnswers,
		"pass2_runs":           a.Pass2Runs - b.Pass2Runs,
		"patch_floods":         a.PatchFloods - b.PatchFloods,
		"slab_pass1":           a.SlabPass1 - b.SlabPass1,
		"windowed_pass1":       a.WindowedPass1 - b.WindowedPass1,
	} {
		vals["cycletime."+name] = float64(d) * per
	}
	for _, p := range enginePhases {
		vals["cycletime.phase_ms."+p] = (after.phaseSec[p] - before.phaseSec[p]) * 1e3 * per
	}
	vals["store.wal_append_us_p50"] = histP50(before.walBuckets, after.walBuckets) * 1e6
	if edits > 0 {
		vals["store.wal_bytes_per_edit"] = (after.walBytes - before.walBytes) / float64(edits)
	}
}

func runBatch(ctx context.Context, cfg config) (*outcome, error) {
	out := &outcome{}
	b, setupS, err := timedSetups(func() (*batch, error) { return setupBatch(cfg.seed, &out.oracles) }, func(*batch) {})
	if err != nil {
		return nil, err
	}
	out.vals = map[string]float64{"setup_s": setupS}
	if !cfg.traced {
		for k, v := range b.measure(cfg.dur, false, out) {
			out.vals[k] = v
		}
		return out, nil
	}
	untraced := b.measure(cfg.dur/2, false, out)
	traced := b.measure(cfg.dur/2, true, out)
	for k, v := range traced {
		out.vals[k] = v
	}
	for _, k := range []string{"analyze_stack66_ms", "analyze_random2000_ms", "analyze_pipegrid1e5_ms", "hier_pipegrid1e5_ms", "mc_samples_per_s"} {
		out.vals["e2e."+k] = untraced[k]
	}
	overhead(out.vals, untraced, traced)
	if err := b.kernelLayers(out.vals); err != nil {
		return nil, err
	}
	return out, nil
}

// measure runs the batch loop for dur and returns its metrics.
func (b *batch) measure(dur time.Duration, traced bool, out *outcome) map[string]float64 {
	ops, rounds := b.loop(dur, traced)
	vals := map[string]float64{}
	var all []float64
	var byKind [batchKinds][]float64
	var parse, compile, pass1, pass2 [3][]float64
	var compress, hierAn []float64
	var mcTime time.Duration
	mcRuns := 0
	failed := 0
	for _, o := range ops {
		out.note(o.err)
		lat := o.lat
		if o.err != nil {
			lat = failedLatency
			failed++
		}
		all = append(all, ms(lat))
		byKind[o.kind] = append(byKind[o.kind], ms(lat))
		switch o.kind {
		case kStack66, kRandom2000, kPipegrid:
			parse[o.kind] = append(parse[o.kind], ms(o.bt.parse))
			compile[o.kind] = append(compile[o.kind], ms(o.bt.compile))
			pass1[o.kind] = append(pass1[o.kind], ms(o.bt.pass1))
			pass2[o.kind] = append(pass2[o.kind], ms(o.bt.pass2))
		case kHier:
			compress = append(compress, ms(o.bt.compress))
			hierAn = append(hierAn, ms(o.bt.hierAnalyze))
			vals["hier.compressed_events"] = float64(o.bt.compressedEvents)
		case kMC:
			mcTime += o.lat
			mcRuns++
		}
	}
	var rates, cpus []float64
	for _, r := range rounds {
		rates = append(rates, float64(r.ops)/r.wall.Seconds())
		cpus = append(cpus, ms(r.cpu)/float64(r.ops))
	}
	vals["p50_ms"] = median(all)
	vals["p90_ms"] = quantile(all, 0.9)
	vals["capacity_rps"] = median(rates)
	vals["cpu_ms_per_op"] = median(cpus)
	vals["analyze_stack66_ms"] = median(byKind[kStack66])
	vals["analyze_random2000_ms"] = median(byKind[kRandom2000])
	vals["analyze_pipegrid1e5_ms"] = median(byKind[kPipegrid])
	vals["hier_pipegrid1e5_ms"] = median(byKind[kHier])
	if mcTime > 0 {
		vals["mc_samples_per_s"] = float64(mcRuns*mcSamples) / mcTime.Seconds()
	}
	if traced {
		for i, g := range batchGraphs {
			vals["netlist.parse_ms."+g] = median(parse[i])
			vals["cycletime.compile_ms."+g] = median(compile[i])
			vals["cycletime.pass1_ms."+g] = median(pass1[i])
			vals["cycletime.pass2_ms."+g] = median(pass2[i])
		}
		vals["hier.compress_ms"] = median(compress)
		vals["hier.analyze_ms"] = median(hierAn)
		vals["driver.sent"] = float64(len(ops))
		vals["driver.failed"] = float64(failed)
		vals["driver.error_rate"] = float64(failed) / float64(len(ops))
	}
	return vals
}
