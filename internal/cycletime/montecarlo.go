package cycletime

import (
	"context"
	"fmt"
	"math"
	"sort"

	"tsg/internal/dist"
	"tsg/internal/obs"
	"tsg/internal/sg"
	"tsg/internal/stat"
	"tsg/internal/timesim"
)

// This file is the Monte-Carlo layer of the statistical timing
// subsystem: distributional cycle-time analysis (AnalyzeMC) and slack
// distributions (SlacksMC) over a delay model (internal/dist), both
// running on the session's one compiled schedule. Each sample is one
// delay vector drawn from the model. Samples go in blocks of
// mcBlockSize over a bounded worker pool, and every block takes one λ
// path: the paper's pass 1 as one batch simulation per cut event
// (timesim.RunFromBatch, one lane per sample of the worker's private
// delay columns), each lane folded into its distance series by the
// fold pass 1 itself uses (seriesFromTimes). Only criticality and
// slack runs touch a sample on its own afterwards: its delays go into
// the worker's private overlay and width-1 columns, then pass 2 (the
// λ-winner re-simulation) or the slack certificate runs on the
// sample's series. The session's delays are never written.
//
// On top of kernel reuse, the sampler prunes with upper bounds: λ is
// monotone in every delay (a maximum of delay sums — and the float
// evaluation is monotone too, since float add/max round monotonically),
// so one pass-1 analysis at the per-arc support maxima bounds each cut
// event's best distance over ALL samples. The cut events are simulated
// in descending bound order. For one sample, an event whose bound
// cannot raise its running maximum is skipped — exactly, not
// approximately; in criticality mode the pruning is strict, and an
// event is skipped only when its bound is below the running maximum,
// because a tie may be a winner. A block skips an event that no
// sample admits; the bounds descend, so it stops there. On workloads
// where few cut events dominate, this collapses the paper's b
// simulations per sample to one or two.
//
// Determinism: sample i's delay vector is a pure function of (model,
// seed, i), blocks of samples are statically assigned to workers, and
// merging is ordered — λ moments and quantiles are folded in sample
// order by the coordinator, while per-arc slack accumulators merge in
// worker order. Criticality counts are integers and exact in any order.
// So: same seed + same worker count ⇒ bit-identical results; with early
// stopping off, the λ statistics are identical across worker counts too
// (waves — and hence a Tol-triggered stop point — depend on the worker
// count).
//
// Memory: the coordinator holds one wave of λ blocks (workers × block
// size floats) plus O(1) streaming estimators — never the full sample
// set.

// mcBlockSize is the number of consecutive samples one worker evaluates
// between coordinator merges. One wave is workers × mcBlockSize
// samples; convergence is checked at wave boundaries. It is also the
// batch width of the Monte-Carlo kernel: wide enough to amortise the
// structural pass, small enough that the rolling time rows and delay
// columns of a 2000-event graph stay cache-resident (measured optimum
// on the Random2000 workload).
const mcBlockSize = 16

// MCOptions tunes the Monte-Carlo analyses.
type MCOptions struct {
	// Samples is the sampling budget (default 1024). The run may stop
	// earlier when Tol is set and the estimates converge.
	Samples int
	// MinSamples is the number of samples drawn before convergence is
	// first checked (default min(256, Samples)).
	MinSamples int
	// Seed keys the deterministic sample streams. The same seed and
	// worker count reproduce results bit-identically.
	Seed uint64
	// Quantiles lists the λ quantiles to estimate, each in (0, 1).
	// Default {0.5, 0.95}.
	Quantiles []float64
	// Tol, when positive, enables early stopping: the run ends at the
	// first wave boundary (after MinSamples) where the confidence
	// interval half-width of every tracked quantile and of the mean is
	// at most Tol (absolute, in λ units).
	Tol float64
	// Confidence is the level of the convergence intervals (default
	// 0.95).
	Confidence float64
	// Criticality requests per-arc criticality: the fraction of samples
	// in which the arc lies on a critical cycle that the sample's pass 2
	// lists (the Result.Critical rule: one k+1-period simulation per
	// distinct cycle). It is the one option that needs pass 2 per
	// sample; without it only pass 1 runs.
	Criticality bool
	// Workers bounds the worker pool (default: the engine's pool rule,
	// GOMAXPROCS workers for any run of two or more blocks).
	Workers int
}

// QuantileEstimate is one estimated λ quantile.
type QuantileEstimate struct {
	// P is the tracked probability.
	P float64
	// Value is the P² estimate of the P-quantile of λ.
	Value float64
	// CIHalf is the half-width of the approximate confidence interval
	// of Value at the run's Confidence level.
	CIHalf float64
}

// MCResult is the outcome of a Monte-Carlo cycle-time analysis.
type MCResult struct {
	// Samples is the number of delay vectors actually evaluated.
	Samples int
	// Converged reports whether an early stop triggered (always false
	// when Tol is 0).
	Converged bool
	// Mean, Variance, Std, Min and Max summarise the λ sample.
	Mean, Variance, Std, Min, Max float64
	// MeanCIHalf is the half-width of the mean's confidence interval.
	MeanCIHalf float64
	// Quantiles holds the tracked quantile estimates, in option order.
	Quantiles []QuantileEstimate
	// Criticality, when requested, holds for every arc the fraction of
	// samples in which the arc lay on a critical cycle. Deterministic
	// (all-point) models yield exactly 0 or 1 per arc.
	Criticality []float64
}

// Quantile returns the estimate tracked for probability p, or false.
func (r *MCResult) Quantile(p float64) (QuantileEstimate, bool) {
	for _, q := range r.Quantiles {
		if q.P == p {
			return q, true
		}
	}
	return QuantileEstimate{}, false
}

// ArcSlackStats summarises the slack distribution of one arc across the
// Monte-Carlo samples.
type ArcSlackStats struct {
	// Arc indexes the arc in the graph.
	Arc int
	// Mean, Std, Min and Max summarise the sampled slacks.
	Mean, Std, Min, Max float64
	// TightFrac is the fraction of samples in which the arc was tight
	// (zero slack at that sample's certificate) — a slack-side
	// criticality measure.
	TightFrac float64
}

// AnalyzeMC runs a Monte-Carlo cycle-time analysis over the delay
// model: λ mean/variance/quantiles and (optionally) per-arc
// criticality. The session's compiled schedule serves every sample —
// each worker reads its samples' delays from private delay columns
// instead of a re-Build/re-Compile.
func (e *Engine) AnalyzeMC(m *dist.Model, opts MCOptions) (*MCResult, error) {
	return e.AnalyzeMCCtx(context.Background(), m, opts)
}

// AnalyzeMCCtx is AnalyzeMC with cooperative cancellation: workers
// check ctx between samples (and between cut-event batch simulations
// inside a block), so a run whose request deadline expired — or whose
// client disconnected — stops burning its worker pool within one
// sample's work per worker and returns ctx.Err(). A cancelled run
// commits nothing: the engine's baseline delays and certificate are
// untouched, so the session is immediately reusable.
func (e *Engine) AnalyzeMCCtx(ctx context.Context, m *dist.Model, opts MCOptions) (*MCResult, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	acc, err := e.runMC(ctx, m, opts, opts.Criticality, false)
	if err != nil {
		return nil, err
	}
	return acc.result(), nil
}

// SlacksMC estimates per-arc slack distributions under the delay model:
// for every sample, the sampled graph's cycle time is certified by one
// plain simulation seeding the dual solve (exactly the session slack
// path), and the per-arc slacks are folded into streaming accumulators.
// The returned rows cover the arcs of the repetitive core, in arc
// order, alongside the λ statistics of the same run.
func (e *Engine) SlacksMC(m *dist.Model, opts MCOptions) ([]ArcSlackStats, *MCResult, error) {
	return e.SlacksMCCtx(context.Background(), m, opts)
}

// SlacksMCCtx is SlacksMC with cooperative cancellation, with the same
// contract as AnalyzeMCCtx.
func (e *Engine) SlacksMCCtx(ctx context.Context, m *dist.Model, opts MCOptions) ([]ArcSlackStats, *MCResult, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	acc, err := e.runMC(ctx, m, opts, opts.Criticality, true)
	if err != nil {
		return nil, nil, err
	}
	return acc.slackStats(), acc.result(), nil
}

// mcAccum carries the merged state of one Monte-Carlo run.
type mcAccum struct {
	n         int
	converged bool
	z         float64
	lam       stat.Welford
	quants    []*stat.P2Quantile
	critCnt   []int64 // per arc, nil unless criticality was requested
	slackArcs []int   // core arcs, nil unless slacks were requested
	slackAcc  []stat.Welford
	tightCnt  []int64
}

func (a *mcAccum) result() *MCResult {
	res := &MCResult{
		Samples:    a.n,
		Converged:  a.converged,
		Mean:       a.lam.Mean(),
		Variance:   a.lam.Var(),
		Std:        a.lam.Std(),
		Min:        a.lam.Min(),
		Max:        a.lam.Max(),
		MeanCIHalf: a.lam.CIHalf(a.z),
	}
	for _, q := range a.quants {
		res.Quantiles = append(res.Quantiles, QuantileEstimate{
			P: q.P(), Value: q.Value(), CIHalf: q.CIHalf(a.z),
		})
	}
	if a.critCnt != nil {
		res.Criticality = make([]float64, len(a.critCnt))
		for i, c := range a.critCnt {
			res.Criticality[i] = float64(c) / float64(a.n)
		}
	}
	return res
}

func (a *mcAccum) slackStats() []ArcSlackStats {
	out := make([]ArcSlackStats, len(a.slackArcs))
	for r, arc := range a.slackArcs {
		w := a.slackAcc[r]
		out[r] = ArcSlackStats{
			Arc: arc, Mean: w.Mean(), Std: w.Std(), Min: w.Min(), Max: w.Max(),
			TightFrac: float64(a.tightCnt[r]) / float64(a.n),
		}
	}
	return out
}

// mcBounds runs the upper-bound precomputation of the Monte-Carlo
// pruning: one pass-1 analysis at the model's per-arc support maxima,
// on private columns over the session schedule, and the per-cut-event
// best distances as bounds, plus the visit order (descending bound).
// Every sampled delay vector is dominated arc-wise by the support
// maxima, so each bound dominates the event's best distance in every
// sample. Supports are non-negative by construction (the dist package
// restricts distributions to them).
func (e *Engine) mcBounds(m *dist.Model) (bounds []stat.Ratio, order []int, err error) {
	cols := e.sched.NewBatchDelays(1)
	for i := 0; i < e.g.NumArcs(); i++ {
		_, hi := m.Support(i)
		cols.SetArc(e.sched, 0, i, hi)
	}
	hiRes, err := e.pass1At(context.Background(), cols)
	if err != nil {
		return nil, nil, fmt.Errorf("cycletime: MC upper-bound analysis: %w", err)
	}
	bounds = make([]stat.Ratio, len(hiRes.Series))
	order = make([]int, len(hiRes.Series))
	for i := range hiRes.Series {
		bounds[i] = hiRes.Series[i].Best
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return bounds[order[b]].Less(bounds[order[a]])
	})
	return bounds, order, nil
}

// runMC is the shared sampling loop. Callers hold the session lock.
func (e *Engine) runMC(ctx context.Context, m *dist.Model, opts MCOptions, needCrit, needSlacks bool) (*mcAccum, error) {
	sp := obs.LeafN(ctx, spanMC)
	defer sp.End()
	if m == nil {
		return nil, fmt.Errorf("cycletime: nil delay model")
	}
	narcs := e.g.NumArcs()
	if m.NumArcs() != narcs {
		return nil, fmt.Errorf("cycletime: delay model covers %d arcs, graph has %d", m.NumArcs(), narcs)
	}
	samples := opts.Samples
	if samples == 0 {
		samples = 1024
	}
	if samples < 1 {
		return nil, fmt.Errorf("cycletime: MC samples must be >= 1, got %d", samples)
	}
	minSamples := opts.MinSamples
	if minSamples == 0 {
		minSamples = 256
	}
	if minSamples > samples {
		minSamples = samples
	}
	conf := opts.Confidence
	if conf == 0 {
		conf = 0.95
	}
	if !(conf > 0 && conf < 1) {
		return nil, fmt.Errorf("cycletime: MC confidence %g outside (0, 1)", conf)
	}
	qps := opts.Quantiles
	if qps == nil {
		qps = []float64{0.5, 0.95}
	}
	acc := &mcAccum{z: math.Sqrt2 * math.Erfinv(conf)}
	for _, p := range qps {
		q, err := stat.NewP2Quantile(p)
		if err != nil {
			return nil, fmt.Errorf("cycletime: %w", err)
		}
		acc.quants = append(acc.quants, q)
	}

	nBlocks := (samples + mcBlockSize - 1) / mcBlockSize
	workers := opts.Workers
	if workers == 0 {
		workers = e.poolSize(nBlocks, mcBlockSize*len(e.cut))
	}
	if workers < 1 {
		return nil, fmt.Errorf("cycletime: MC workers must be >= 1, got %d", workers)
	}
	workers = min(workers, nBlocks)
	// Force the model's sampling plan to compile before workers call
	// SampleInto concurrently (the plan is built lazily after edits).
	m.Deterministic()
	bounds, order, err := e.mcBounds(m)
	if err != nil {
		return nil, err
	}

	if needSlacks {
		for i := 0; i < narcs; i++ {
			a := e.g.Arc(i)
			if a.Once || !e.g.Event(a.From).Repetitive || !e.g.Event(a.To).Repetitive {
				continue
			}
			acc.slackArcs = append(acc.slackArcs, i)
		}
		acc.slackAcc = make([]stat.Welford, len(acc.slackArcs))
		acc.tightCnt = make([]int64, len(acc.slackArcs))
	}
	if needCrit {
		acc.critCnt = make([]int64, narcs)
	}

	// Per-worker private state. Slack and criticality accumulators are
	// per worker and merged in worker order after the run; λ values are
	// buffered per block and folded in sample order after every wave.
	type mcWorker struct {
		delays   []float64
		bd       *timesim.BatchDelays
		at       delays // criticality and slacks: the current sample's delays
		outBuf   [][]float64
		best     []stat.Ratio     // per sample: running λ candidate
		sims     [][]BorderSeries // criticality, per sample: series by cut index
		lam      []float64
		stamp    []int64 // criticality: last sample that counted each arc
		critCnt  []int64
		slackAcc []stat.Welford
		tightCnt []int64
		err      error
	}
	ws := make([]*mcWorker, workers)
	for k := range ws {
		w := &mcWorker{
			delays: make([]float64, narcs),
			bd:     e.sched.NewBatchDelays(mcBlockSize),
			outBuf: make([][]float64, mcBlockSize),
			best:   make([]stat.Ratio, mcBlockSize),
			lam:    make([]float64, mcBlockSize),
		}
		for s := range w.outBuf {
			w.outBuf[s] = make([]float64, e.periods)
		}
		if needCrit || needSlacks {
			w.at = e.privateDelays()
		}
		if needCrit {
			w.sims = make([][]BorderSeries, mcBlockSize)
			for s := range w.sims {
				w.sims[s] = make([]BorderSeries, len(e.cut))
			}
			w.stamp = make([]int64, narcs)
			for i := range w.stamp {
				w.stamp[i] = -1
			}
			w.critCnt = make([]int64, narcs)
		}
		if needSlacks {
			w.slackAcc = make([]stat.Welford, len(acc.slackArcs))
			w.tightCnt = make([]int64, len(acc.slackArcs))
		}
		ws[k] = w
	}
	// admits is the pruning rule: an event whose bound cannot raise a
	// sample's running maximum (cannot tie it, when criticality needs
	// the exact winner set) is not simulated for that sample.
	admits := func(bound, best stat.Ratio) bool {
		if needCrit {
			return !bound.Less(best)
		}
		return best.Less(bound)
	}

	// blockRange returns the samples [lo, hi) of one block.
	blockRange := func(block int) (int, int) {
		lo := block * mcBlockSize
		return lo, min(lo+mcBlockSize, samples)
	}
	// runBlock evaluates one block of samples on worker k. λ comes from
	// one batch simulation per admitted cut event — all samples of the
	// block share its structural pass (timesim.RunFromBatch) — folded
	// per sample by seriesFromTimes, the fold pass 1 uses. Criticality
	// and slack runs then move the worker's private delays to each
	// sample and do only their per-sample work on the sample's series.
	runBlock := func(k, block int) {
		w := ws[k]
		lo, hi := blockRange(block)
		cnt := hi - lo
		// Sampled delays are valid by construction: distributions are
		// restricted to non-negative supports and quantiles clamp into
		// them, so no per-sample validation pass is needed.
		for i := lo; i < hi; i++ {
			m.SampleInto(opts.Seed, uint64(i), w.delays)
			w.bd.Set(e.sched, i-lo, w.delays)
			w.best[i-lo] = stat.Ratio{Num: -1, Den: 1}
		}
		for _, ci := range order {
			// Cooperative cancellation between batch simulations: each
			// RunFromBatch is the block's unit of work, so an expired
			// deadline stops the worker within one cut event's pass.
			if err := ctx.Err(); err != nil {
				w.err = err
				return
			}
			b := bounds[ci]
			active := false
			for s := 0; s < cnt && !active; s++ {
				active = admits(b, w.best[s])
			}
			if !active {
				// Bounds descend along the order and the running maxima
				// only grow: no later event can matter either.
				break
			}
			ev := e.cut[ci]
			if err := e.sched.RunFromBatch(ev, w.bd, e.periods, w.outBuf); err != nil {
				w.err = fmt.Errorf("cycletime: MC batch simulating from %q: %w", e.g.Event(ev).Name, err)
				return
			}
			for s := 0; s < cnt; s++ {
				if !admits(b, w.best[s]) {
					continue
				}
				ser := seriesFromTimes(ev, w.outBuf[s])
				if ser.BestIndex == 0 {
					continue
				}
				if w.best[s].Less(ser.Best) {
					w.best[s] = ser.Best
				}
				if needCrit {
					w.sims[s][ci] = BorderSeries{Event: ev, Best: ser.Best, BestIndex: ser.BestIndex}
				}
			}
		}
		e.counters.analyses.Add(int64(cnt))
		for s := 0; s < cnt; s++ {
			i := lo + s
			best := w.best[s]
			if best.Num < 0 {
				w.err = fmt.Errorf("cycletime: no cut-set event re-occurred within %d periods; graph has no cycles through %v",
					e.periods, e.g.EventNames(e.cut))
				return
			}
			lam := best.Normalize().Float()
			w.lam[s] = lam
			if !needCrit && !needSlacks {
				continue
			}
			// Per-sample work (pass 2, certificate) checks cancellation
			// between samples. The sample's delays are drawn again:
			// they are a pure function of (seed, i), and one vector per
			// worker is less memory than a block of them.
			if err := ctx.Err(); err != nil {
				w.err = err
				return
			}
			m.SampleInto(opts.Seed, uint64(i), w.delays)
			if err := w.at.set(e.sched, w.delays); err != nil {
				w.err = fmt.Errorf("cycletime: MC sample %d: %w", i, err)
				return
			}
			if needCrit {
				cycs, _, err := e.criticalCycles(w.at, markWinners(w.sims[s], best), best)
				if err != nil {
					w.err = fmt.Errorf("cycletime: MC sample %d: %w", i, err)
					return
				}
				clear(w.sims[s])
				for ci := range cycs {
					for _, ai := range cycs[ci].Arcs {
						if w.stamp[ai] != int64(i) {
							w.stamp[ai] = int64(i)
							w.critCnt[ai]++
						}
					}
				}
			}
			if needSlacks {
				sl, err := e.certifySlacksAt(w.at, lam)
				if err != nil {
					w.err = fmt.Errorf("cycletime: MC sample %d: %w", i, err)
					return
				}
				if len(sl) != len(acc.slackArcs) {
					w.err = fmt.Errorf("cycletime: MC sample %d: %d slack rows, expected %d", i, len(sl), len(acc.slackArcs))
					return
				}
				for r := range sl {
					w.slackAcc[r].Add(sl[r].Slack)
					if sl[r].Tight {
						w.tightCnt[r]++
					}
				}
			}
		}
	}

	// Wave loop: one statically assigned block per worker, a barrier,
	// then an ordered coordinator merge and a convergence check.
	rounds := uint64(0)
	for waveStart := 0; waveStart < nBlocks && !acc.converged; waveStart += workers {
		rounds++
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cnt := min(workers, nBlocks-waveStart)
		runIndexed(cnt, cnt, func(k int) { runBlock(k, waveStart+k) })
		for k := 0; k < cnt; k++ {
			if ws[k].err != nil {
				return nil, ws[k].err
			}
		}
		// Fold λ values in sample order: block k of this wave covers
		// samples [(waveStart+k)·B, …).
		for k := 0; k < cnt; k++ {
			lo, hi := blockRange(waveStart + k)
			for _, lam := range ws[k].lam[:hi-lo] {
				acc.lam.Add(lam)
				for _, q := range acc.quants {
					q.Add(lam)
				}
			}
			acc.n = hi
		}
		if opts.Tol > 0 && acc.n >= minSamples && acc.n >= 2 {
			ok := acc.lam.CIHalf(acc.z) <= opts.Tol
			for _, q := range acc.quants {
				if q.CIHalf(acc.z) > opts.Tol {
					ok = false
					break
				}
			}
			acc.converged = ok
		}
	}

	sp.AnnotateN(keyRounds, rounds)
	sp.AnnotateN(keySamples, uint64(acc.n))
	if acc.converged {
		sp.SetTierN(tierConverged)
	}

	// Ordered worker merges keep the fixed-worker-count determinism
	// guarantee for the per-arc accumulators.
	for k := 0; k < workers; k++ {
		w := ws[k]
		if needCrit {
			for i, c := range w.critCnt {
				acc.critCnt[i] += c
			}
		}
		if needSlacks {
			for r := range w.slackAcc {
				acc.slackAcc[r].Merge(w.slackAcc[r])
				acc.tightCnt[r] += w.tightCnt[r]
			}
		}
	}
	return acc, nil
}

// AnalyzeMC is the one-shot form of Engine.AnalyzeMC: it compiles a
// throwaway engine and runs a single Monte-Carlo analysis. Sessions
// mixing Monte-Carlo with other queries should hold an Engine.
func AnalyzeMC(g *sg.Graph, m *dist.Model, opts MCOptions) (*MCResult, error) {
	e, err := NewEngine(g)
	if err != nil {
		return nil, err
	}
	return e.AnalyzeMC(m, opts)
}

// SlacksMC is the one-shot form of Engine.SlacksMC.
func SlacksMC(g *sg.Graph, m *dist.Model, opts MCOptions) ([]ArcSlackStats, *MCResult, error) {
	e, err := NewEngine(g)
	if err != nil {
		return nil, nil, err
	}
	return e.SlacksMC(m, opts)
}
