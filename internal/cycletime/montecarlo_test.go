package cycletime_test

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"tsg/internal/cycletime"
	"tsg/internal/dist"
	"tsg/internal/gen"
	"tsg/internal/sg"
	"tsg/internal/stat"
)

// pointModel returns the deterministic all-point model of g.
func pointModel(t testing.TB, g *sg.Graph) *dist.Model {
	t.Helper()
	m, err := gen.PointModel(g)
	if err != nil {
		t.Fatalf("PointModel: %v", err)
	}
	return m
}

// TestAnalyzeMCPointPin is the differential pin of the statistical
// subsystem: Monte-Carlo over all-point distributions must reproduce
// the deterministic analysis exactly — λ bit-identical at every
// statistic, zero variance, and criticality in {0,1} matching the
// arcs of the deterministic critical cycles.
func TestAnalyzeMCPointPin(t *testing.T) {
	fixtures := modeFixtures(t)
	rng := rand.New(rand.NewSource(99))
	rg, err := gen.RandomLive(rng, gen.RandomOptions{Events: 120, Border: 6, ExtraArcs: 120, MaxDelay: 16})
	if err != nil {
		t.Fatalf("RandomLive: %v", err)
	}
	fixtures["random120"] = rg
	for name, g := range fixtures {
		t.Run(name, func(t *testing.T) {
			det, err := cycletime.Analyze(g)
			if err != nil {
				t.Fatalf("Analyze: %v", err)
			}
			lam := det.CycleTime.Float()
			res, err := cycletime.AnalyzeMC(g, pointModel(t, g), cycletime.MCOptions{
				Samples: 96, Quantiles: []float64{0.25, 0.5, 0.95}, Criticality: true, Workers: 2,
			})
			if err != nil {
				t.Fatalf("AnalyzeMC: %v", err)
			}
			if res.Samples != 96 {
				t.Fatalf("Samples = %d, want 96", res.Samples)
			}
			if res.Mean != lam || res.Min != lam || res.Max != lam {
				t.Fatalf("MC λ = mean %v min %v max %v, deterministic λ = %v",
					res.Mean, res.Min, res.Max, lam)
			}
			if res.Variance != 0 || res.Std != 0 {
				t.Fatalf("MC variance = %v (std %v), want exactly 0", res.Variance, res.Std)
			}
			for _, q := range res.Quantiles {
				if q.Value != lam {
					t.Fatalf("quantile %g = %v, want %v", q.P, q.Value, lam)
				}
				if q.CIHalf != 0 {
					t.Fatalf("quantile %g CI half-width = %v, want 0", q.P, q.CIHalf)
				}
			}
			// Criticality must be exactly the indicator of the union of
			// deterministic critical cycles.
			onCrit := make([]bool, g.NumArcs())
			for _, cyc := range det.Critical {
				for _, ai := range cyc.Arcs {
					onCrit[ai] = true
				}
			}
			if len(res.Criticality) != g.NumArcs() {
				t.Fatalf("criticality covers %d arcs, want %d", len(res.Criticality), g.NumArcs())
			}
			for i, c := range res.Criticality {
				want := 0.0
				if onCrit[i] {
					want = 1.0
				}
				if c != want {
					t.Fatalf("arc %d criticality = %v, want %v", i, c, want)
				}
			}
		})
	}
}

// TestAnalyzeMCDeterministic: the same seed and worker count reproduce
// every estimate bit-identically; and with early stopping off, the λ
// statistics agree across worker counts (ordered coordinator merge).
func TestAnalyzeMCDeterministic(t *testing.T) {
	g, err := gen.Stack(13)
	if err != nil {
		t.Fatalf("Stack: %v", err)
	}
	model, err := gen.UniformJitter(g, 0.2)
	if err != nil {
		t.Fatalf("UniformJitter: %v", err)
	}
	opts := cycletime.MCOptions{Samples: 160, Seed: 42, Quantiles: []float64{0.5, 0.9}, Criticality: true, Workers: 3}
	run := func(workers int) *cycletime.MCResult {
		o := opts
		o.Workers = workers
		res, err := cycletime.AnalyzeMC(g, model, o)
		if err != nil {
			t.Fatalf("AnalyzeMC(workers=%d): %v", workers, err)
		}
		return res
	}
	a, b := run(3), run(3)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed + worker count gave different results:\n%+v\nvs\n%+v", a, b)
	}
	c := run(1)
	if a.Mean != c.Mean || a.Variance != c.Variance || a.Min != c.Min || a.Max != c.Max ||
		!reflect.DeepEqual(a.Quantiles, c.Quantiles) {
		t.Fatalf("λ statistics differ across worker counts without early stop:\n%+v\nvs\n%+v", a, c)
	}
	if !reflect.DeepEqual(a.Criticality, c.Criticality) {
		t.Fatalf("criticality differs across worker counts (integer counts must be exact)")
	}
	if a.Variance <= 0 {
		t.Fatalf("jittered model produced zero λ variance; workload too degenerate for this test")
	}
}

// TestAnalyzeMCBatchMatchesScalar: λ-only and criticality runs share
// one λ path but prune differently (strictly, in criticality mode, so
// tied winners are simulated) — same seed must give bit-identical λ
// statistics either way.
func TestAnalyzeMCBatchMatchesScalar(t *testing.T) {
	for name, g := range modeFixtures(t) {
		t.Run(name, func(t *testing.T) {
			model, err := gen.UniformJitter(g, 0.25)
			if err != nil {
				t.Fatalf("UniformJitter: %v", err)
			}
			opts := cycletime.MCOptions{Samples: 100, Seed: 23, Quantiles: []float64{0.5, 0.9}}
			batch, err := cycletime.AnalyzeMC(g, model, opts)
			if err != nil {
				t.Fatalf("AnalyzeMC(batch): %v", err)
			}
			opts.Criticality = true
			scalar, err := cycletime.AnalyzeMC(g, model, opts)
			if err != nil {
				t.Fatalf("AnalyzeMC(scalar): %v", err)
			}
			if batch.Mean != scalar.Mean || batch.Variance != scalar.Variance ||
				batch.Min != scalar.Min || batch.Max != scalar.Max {
				t.Fatalf("batch λ stats %+v differ from scalar %+v", batch, scalar)
			}
			if !reflect.DeepEqual(batch.Quantiles, scalar.Quantiles) {
				t.Fatalf("batch quantiles %+v differ from scalar %+v", batch.Quantiles, scalar.Quantiles)
			}
		})
	}
}

// TestAnalyzeMCMatchesFreshEngines is an oracle for the one λ path
// that shares no code with it past the engine: every sample's delays
// go into a fresh graph and a fresh engine, whose CycleTime is folded
// in sample order into the same streaming estimators, and whose
// Analyze().Critical arcs are counted once per sample. AnalyzeMC with
// criticality must reproduce the λ statistics bit for bit and the
// criticality fractions exactly, at one worker and at three.
func TestAnalyzeMCMatchesFreshEngines(t *testing.T) {
	fixtures := modeFixtures(t)
	rg, err := gen.RandomLive(rand.New(rand.NewSource(31)), gen.RandomOptions{Events: 80, Border: 5, ExtraArcs: 80, MaxDelay: 12})
	if err != nil {
		t.Fatalf("RandomLive: %v", err)
	}
	fixtures["random80"] = rg
	const samples, seed = 40, 17
	qps := []float64{0.5, 0.9}
	z := math.Sqrt2 * math.Erfinv(0.95)
	for name, g := range fixtures {
		t.Run(name, func(t *testing.T) {
			model, err := gen.UniformJitter(g, 0.25)
			if err != nil {
				t.Fatalf("UniformJitter: %v", err)
			}
			var lam stat.Welford
			quants := make([]*stat.P2Quantile, len(qps))
			for k, p := range qps {
				if quants[k], err = stat.NewP2Quantile(p); err != nil {
					t.Fatalf("NewP2Quantile: %v", err)
				}
			}
			crit := make([]int64, g.NumArcs())
			delays := make([]float64, g.NumArcs())
			for i := 0; i < samples; i++ {
				model.SampleInto(seed, uint64(i), delays)
				sample, err := g.WithDelays(func(a int, _ float64) float64 { return delays[a] })
				if err != nil {
					t.Fatalf("sample %d: WithDelays: %v", i, err)
				}
				e, err := cycletime.NewEngine(sample)
				if err != nil {
					t.Fatalf("sample %d: NewEngine: %v", i, err)
				}
				ct, err := e.CycleTime()
				if err != nil {
					t.Fatalf("sample %d: CycleTime: %v", i, err)
				}
				lam.Add(ct.Float())
				for _, q := range quants {
					q.Add(ct.Float())
				}
				res, err := e.Analyze()
				if err != nil {
					t.Fatalf("sample %d: Analyze: %v", i, err)
				}
				on := make([]bool, g.NumArcs())
				for _, cyc := range res.Critical {
					for _, ai := range cyc.Arcs {
						on[ai] = true
					}
				}
				for ai, ok := range on {
					if ok {
						crit[ai]++
					}
				}
			}
			for _, workers := range []int{1, 3} {
				res, err := cycletime.AnalyzeMC(g, model, cycletime.MCOptions{
					Samples: samples, Seed: seed, Quantiles: qps, Criticality: true, Workers: workers,
				})
				if err != nil {
					t.Fatalf("AnalyzeMC(workers=%d): %v", workers, err)
				}
				if res.Mean != lam.Mean() || res.Variance != lam.Var() || res.Min != lam.Min() ||
					res.Max != lam.Max() || res.MeanCIHalf != lam.CIHalf(z) {
					t.Fatalf("workers=%d: MC λ stats %+v, fresh engines mean %v var %v min %v max %v",
						workers, res, lam.Mean(), lam.Var(), lam.Min(), lam.Max())
				}
				for k, q := range quants {
					got := res.Quantiles[k]
					if got.P != q.P() || got.Value != q.Value() || got.CIHalf != q.CIHalf(z) {
						t.Fatalf("workers=%d: quantile %+v, fresh engines %v ± %v", workers, got, q.Value(), q.CIHalf(z))
					}
				}
				for ai, c := range crit {
					if want := float64(c) / samples; res.Criticality[ai] != want {
						t.Fatalf("workers=%d: arc %d criticality %v, fresh engines %v", workers, ai, res.Criticality[ai], want)
					}
				}
			}
		})
	}
}

// TestAnalyzeMCWithinBounds: under ±frac jitter models, every sampled λ
// — and hence min, max, mean and all quantiles — must lie inside the
// AnalyzeBounds interval of the same ±frac, because the model supports
// are exactly the bounds' delay intervals and λ is monotone in delays.
func TestAnalyzeMCWithinBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g, err := gen.RandomLive(rng, gen.RandomOptions{Events: 200, Border: 5, ExtraArcs: 200, MaxDelay: 16})
	if err != nil {
		t.Fatalf("RandomLive: %v", err)
	}
	const frac = 0.15
	lo, hi := cycletime.Jitter(frac)
	bounds, err := cycletime.AnalyzeBounds(g, lo, hi)
	if err != nil {
		t.Fatalf("AnalyzeBounds: %v", err)
	}
	bLo, bHi := bounds.Min.Float(), bounds.Max.Float()
	for _, mk := range []struct {
		name string
		make func() (*dist.Model, error)
	}{
		{"uniform", func() (*dist.Model, error) { return gen.UniformJitter(g, frac) }},
		{"normal", func() (*dist.Model, error) { return gen.NormalJitter(g, frac) }},
		{"correlated", func() (*dist.Model, error) { return gen.CorrelatedJitter(g, frac, 4) }},
	} {
		t.Run(mk.name, func(t *testing.T) {
			model, err := mk.make()
			if err != nil {
				t.Fatalf("model: %v", err)
			}
			res, err := cycletime.AnalyzeMC(g, model, cycletime.MCOptions{
				Samples: 192, Seed: 5, Quantiles: []float64{0.05, 0.5, 0.95},
			})
			if err != nil {
				t.Fatalf("AnalyzeMC: %v", err)
			}
			// Float tolerance: the bounds extremes and the samples follow
			// different summation orders.
			const eps = 1e-9
			inside := func(what string, v float64) {
				if v < bLo-eps*math.Abs(bLo) || v > bHi+eps*math.Abs(bHi) {
					t.Fatalf("%s = %v outside bounds [%v, %v]", what, v, bLo, bHi)
				}
			}
			inside("min λ", res.Min)
			inside("max λ", res.Max)
			inside("mean λ", res.Mean)
			for _, q := range res.Quantiles {
				inside("quantile", q.Value)
			}
			if res.Max-res.Min <= 0 {
				t.Fatalf("jittered λ has zero spread; model ineffective")
			}
		})
	}
}

// TestAnalyzeMCEarlyStop: with a generous tolerance the run converges
// before the sample budget; with Tol 0 it never stops early.
func TestAnalyzeMCEarlyStop(t *testing.T) {
	g, err := gen.Stack(13)
	if err != nil {
		t.Fatalf("Stack: %v", err)
	}
	model, err := gen.UniformJitter(g, 0.1)
	if err != nil {
		t.Fatalf("UniformJitter: %v", err)
	}
	res, err := cycletime.AnalyzeMC(g, model, cycletime.MCOptions{
		Samples: 4096, MinSamples: 64, Seed: 1, Tol: 10, Workers: 2,
	})
	if err != nil {
		t.Fatalf("AnalyzeMC: %v", err)
	}
	if !res.Converged {
		t.Fatalf("run with huge tolerance did not converge early")
	}
	if res.Samples >= 4096 {
		t.Fatalf("converged run evaluated the full budget (%d samples)", res.Samples)
	}
	full, err := cycletime.AnalyzeMC(g, model, cycletime.MCOptions{Samples: 128, Seed: 1})
	if err != nil {
		t.Fatalf("AnalyzeMC: %v", err)
	}
	if full.Converged || full.Samples != 128 {
		t.Fatalf("Tol=0 run stopped early: %+v", full)
	}
	// A degenerate model converges as soon as the first check runs.
	point, err := cycletime.AnalyzeMC(g, pointModel(t, g), cycletime.MCOptions{
		Samples: 4096, MinSamples: 32, Tol: 1e-12,
	})
	if err != nil {
		t.Fatalf("AnalyzeMC(point): %v", err)
	}
	if !point.Converged || point.Samples >= 4096 {
		t.Fatalf("point model did not early-stop: samples=%d converged=%v", point.Samples, point.Converged)
	}
}

// TestSlacksMC: under an all-point model the slack distribution rows
// collapse to the session slack certificate (zero spread, TightFrac in
// {0,1} agreeing with Tight); under jitter the rows stay consistent
// (min <= mean <= max, spread on at least one arc, and every
// deterministic-tight arc keeps high tight fraction support).
func TestSlacksMC(t *testing.T) {
	g := gen.Oscillator()
	e, err := cycletime.NewEngine(g)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	detSlacks, err := e.Slacks()
	if err != nil {
		t.Fatalf("Slacks: %v", err)
	}
	rows, res, err := e.SlacksMC(pointModel(t, g), cycletime.MCOptions{Samples: 48, Workers: 2})
	if err != nil {
		t.Fatalf("SlacksMC(point): %v", err)
	}
	if res.Variance != 0 {
		t.Fatalf("point SlacksMC λ variance = %v", res.Variance)
	}
	if len(rows) != len(detSlacks) {
		t.Fatalf("SlacksMC rows = %d, deterministic slacks = %d", len(rows), len(detSlacks))
	}
	for i, r := range rows {
		d := detSlacks[i]
		if r.Arc != d.Arc {
			t.Fatalf("row %d arc %d, deterministic arc %d", i, r.Arc, d.Arc)
		}
		if r.Mean != d.Slack || r.Min != d.Slack || r.Max != d.Slack || r.Std != 0 {
			t.Fatalf("arc %d slack stats %+v, deterministic slack %v", r.Arc, r, d.Slack)
		}
		wantTight := 0.0
		if d.Tight {
			wantTight = 1.0
		}
		if r.TightFrac != wantTight {
			t.Fatalf("arc %d TightFrac = %v, deterministic Tight = %v", r.Arc, r.TightFrac, d.Tight)
		}
	}
	// Jittered: sanity structure.
	model, err := gen.UniformJitter(g, 0.2)
	if err != nil {
		t.Fatalf("UniformJitter: %v", err)
	}
	jrows, jres, err := e.SlacksMC(model, cycletime.MCOptions{Samples: 96, Seed: 3, Workers: 2})
	if err != nil {
		t.Fatalf("SlacksMC(jitter): %v", err)
	}
	if jres.Variance <= 0 {
		t.Fatalf("jittered SlacksMC λ variance = %v, want > 0", jres.Variance)
	}
	spread := false
	for _, r := range jrows {
		if r.Min > r.Mean+1e-12 || r.Mean > r.Max+1e-12 {
			t.Fatalf("arc %d slack stats inconsistent: %+v", r.Arc, r)
		}
		if r.Max-r.Min > 1e-9 {
			spread = true
		}
		if r.TightFrac < 0 || r.TightFrac > 1 {
			t.Fatalf("arc %d TightFrac = %v", r.Arc, r.TightFrac)
		}
	}
	if !spread {
		t.Fatalf("jittered slacks show no spread on any arc")
	}
}

// TestAnalyzeMCSessionIntact: a Monte-Carlo run must leave the session
// baseline untouched — the cached certificate still answers queries at
// the original delays.
func TestAnalyzeMCSessionIntact(t *testing.T) {
	g := gen.Oscillator()
	e, err := cycletime.NewEngine(g)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	before, err := e.Analyze()
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	model, err := gen.UniformJitter(g, 0.3)
	if err != nil {
		t.Fatalf("UniformJitter: %v", err)
	}
	if _, err := e.AnalyzeMC(model, cycletime.MCOptions{Samples: 64, Workers: 2}); err != nil {
		t.Fatalf("AnalyzeMC: %v", err)
	}
	after, err := e.Analyze()
	if err != nil {
		t.Fatalf("Analyze after MC: %v", err)
	}
	if !before.CycleTime.Equal(after.CycleTime) {
		t.Fatalf("session λ drifted across MC: %v -> %v", before.CycleTime, after.CycleTime)
	}
	for i := 0; i < g.NumArcs(); i++ {
		if e.Delay(i) != g.Arc(i).Delay {
			t.Fatalf("arc %d delay drifted to %v", i, e.Delay(i))
		}
	}
}

// TestAnalyzeMCValidation: model/option mismatches fail loudly.
func TestAnalyzeMCValidation(t *testing.T) {
	g := gen.Oscillator()
	e, err := cycletime.NewEngine(g)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if _, err := e.AnalyzeMC(nil, cycletime.MCOptions{}); err == nil {
		t.Fatalf("nil model accepted")
	}
	small, err := dist.NewModel([]float64{1, 2})
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	if _, err := e.AnalyzeMC(small, cycletime.MCOptions{}); err == nil {
		t.Fatalf("arc-count mismatch accepted")
	}
	m := pointModel(t, g)
	if _, err := e.AnalyzeMC(m, cycletime.MCOptions{Samples: -1}); err == nil {
		t.Fatalf("negative samples accepted")
	}
	if _, err := e.AnalyzeMC(m, cycletime.MCOptions{Quantiles: []float64{1.5}}); err == nil {
		t.Fatalf("quantile outside (0,1) accepted")
	}
	if _, err := e.AnalyzeMC(m, cycletime.MCOptions{Confidence: 2}); err == nil {
		t.Fatalf("confidence outside (0,1) accepted")
	}
	if _, err := e.AnalyzeMC(m, cycletime.MCOptions{Workers: -2}); err == nil {
		t.Fatalf("negative workers accepted")
	}
}

// TestAnalyzeMCCorrelationNarrows: fully correlated jitter cannot widen
// the λ spread beyond the independent case's support, and perfect
// correlation on a single-cycle graph makes λ exactly proportional to
// the shared scale factor — spread equal to the full ±frac swing.
func TestAnalyzeMCCorrelationNarrows(t *testing.T) {
	// A plain ring: one cycle, so λ = sum of delays; under fully
	// correlated uniform ±frac jitter every delay scales by the same
	// factor, so λ/λ₀ ∈ [1−frac, 1+frac] and the spread approaches the
	// full swing as sampling covers the variate range.
	b := sg.NewBuilder("ring4")
	b.Events("a", "b", "c", "d").
		Arc("a", "b", 2).Arc("b", "c", 3).Arc("c", "d", 4).Arc("d", "a", 1, sg.Marked())
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	const frac = 0.25
	model, err := gen.CorrelatedJitter(g, frac, 1)
	if err != nil {
		t.Fatalf("CorrelatedJitter: %v", err)
	}
	res, err := cycletime.AnalyzeMC(g, model, cycletime.MCOptions{Samples: 512, Seed: 11})
	if err != nil {
		t.Fatalf("AnalyzeMC: %v", err)
	}
	lam0 := 10.0
	loLim, hiLim := (1-frac)*lam0, (1+frac)*lam0
	if res.Min < loLim-1e-9 || res.Max > hiLim+1e-9 {
		t.Fatalf("correlated λ range [%v, %v] outside scale-factor limits [%v, %v]",
			res.Min, res.Max, loLim, hiLim)
	}
	// With 512 samples the empirical range must cover most of the swing.
	if res.Max-res.Min < 0.8*(hiLim-loLim) {
		t.Fatalf("correlated λ spread %v too narrow for full-swing scale factor (want >= %v)",
			res.Max-res.Min, 0.8*(hiLim-loLim))
	}
	// Independent jitter on the same ring: λ = Σ d_i with independent
	// terms concentrates — its central quantiles sit strictly inside
	// the correlated swing.
	indep, err := gen.UniformJitter(g, frac)
	if err != nil {
		t.Fatalf("UniformJitter: %v", err)
	}
	ri, err := cycletime.AnalyzeMC(g, indep, cycletime.MCOptions{Samples: 512, Seed: 11})
	if err != nil {
		t.Fatalf("AnalyzeMC: %v", err)
	}
	if ri.Std >= res.Std {
		t.Fatalf("independent λ std %v >= fully correlated std %v; correlation should widen λ on a single cycle",
			ri.Std, res.Std)
	}
}
