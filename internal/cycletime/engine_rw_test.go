package cycletime

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"tsg/internal/gen"
	"tsg/internal/stat"
)

// TestEngineConcurrentReadersWithWriters is the session-lock stress
// test: parallel Analyze/Slacks/SensitivitySweep/AnalyzeBounds and
// Monte-Carlo readers interleaved with SetDelay writers on one engine.
// Every answer must match the serial oracle for one of the committed
// delay states — a sweep vector or a bounds pair in particular must be
// consistent with a SINGLE state, proving queries see committed
// baselines atomically and never a half-applied edit. Run under -race
// (the CI race step covers this package).
func TestEngineConcurrentReadersWithWriters(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g, err := gen.RandomLive(rng, gen.RandomOptions{Events: 120, Border: 6, ExtraArcs: 120, MaxDelay: 8})
	if err != nil {
		t.Fatalf("RandomLive: %v", err)
	}
	base, err := Analyze(g)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	// The writer toggles the delay of an arc lying on a critical cycle,
	// so the committed state genuinely moves λ.
	hot := base.Critical[0].Arcs[0]
	d0 := g.Arc(hot).Delay
	states := []float64{d0, d0*2 + 1, d0*4 + 3}

	// Candidate set for the sweeps: a spread of increases (fast path /
	// what-if rows) plus a decrease on the hot arc, which runs a λ-only
	// analysis at private delays. The decrease-only sweep takes the
	// decrease on every arc of the critical cycle, so it simulates
	// under the shared lock once the certificate exists.
	var cands []WhatIf
	for a := 0; a < g.NumArcs() && len(cands) < 10; a += g.NumArcs() / 10 {
		cands = append(cands, WhatIf{Arc: a, Delay: g.Arc(a).Delay * 1.5})
	}
	cands = append(cands, WhatIf{Arc: hot, Delay: d0 * 0.5})
	var decs []WhatIf
	for _, a := range base.Critical[0].Arcs {
		decs = append(decs, WhatIf{Arc: a, Delay: g.Arc(a).Delay * 0.5})
	}
	lo, hi := Jitter(0.1)

	// Serial oracle per committed state: λ, the full sweep vectors and
	// the bounds.
	oracleLam := make([]stat.Ratio, len(states))
	oracleSweep := make([][]stat.Ratio, len(states))
	oracleDecs := make([][]stat.Ratio, len(states))
	oracleBounds := make([][2]stat.Ratio, len(states))
	for si, d := range states {
		gs, err := g.WithArcDelay(hot, d)
		if err != nil {
			t.Fatalf("WithArcDelay: %v", err)
		}
		res, err := Analyze(gs)
		if err != nil {
			t.Fatalf("oracle Analyze state %d: %v", si, err)
		}
		oracleLam[si] = res.CycleTime
		vec := make([]stat.Ratio, len(cands))
		for ci, cd := range cands {
			lam, err := Sensitivity(gs, cd.Arc, cd.Delay)
			if err != nil {
				t.Fatalf("oracle Sensitivity state %d cand %d: %v", si, ci, err)
			}
			vec[ci] = lam
		}
		oracleSweep[si] = vec
		for _, cd := range decs {
			lam, err := Sensitivity(gs, cd.Arc, cd.Delay)
			if err != nil {
				t.Fatalf("oracle decrease state %d arc %d: %v", si, cd.Arc, err)
			}
			oracleDecs[si] = append(oracleDecs[si], lam)
		}
		bd, err := AnalyzeBounds(gs, lo, hi)
		if err != nil {
			t.Fatalf("oracle AnalyzeBounds state %d: %v", si, err)
		}
		oracleBounds[si] = [2]stat.Ratio{bd.Min, bd.Max}
	}
	// The delay model fixes every arc's distribution, so Monte-Carlo
	// answers the same in every committed state: one oracle each.
	model, err := gen.UniformJitter(g, 0.1)
	if err != nil {
		t.Fatalf("UniformJitter: %v", err)
	}
	mcOpts := MCOptions{Samples: 48, Seed: 4, Workers: 2, Criticality: true}
	oracleMC, err := AnalyzeMC(g, model, mcOpts)
	if err != nil {
		t.Fatalf("oracle AnalyzeMC: %v", err)
	}
	slackOpts := MCOptions{Samples: 32, Seed: 4, Workers: 2}
	oracleSlackRows, oracleSlackMC, err := SlacksMC(g, model, slackOpts)
	if err != nil {
		t.Fatalf("oracle SlacksMC: %v", err)
	}
	if oracleLam[0].Equal(oracleLam[1]) || oracleLam[1].Equal(oracleLam[2]) {
		t.Fatalf("fixture broken: states do not separate λ: %v", oracleLam)
	}

	e, err := NewEngine(g)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}

	const writes = 40
	done := make(chan struct{})
	var wg sync.WaitGroup
	fail := func(format string, args ...interface{}) {
		t.Helper()
		t.Errorf(format, args...)
	}

	// Writer: commit each state in turn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < writes; i++ {
			if err := e.SetDelay(hot, states[i%len(states)]); err != nil {
				fail("SetDelay: %v", err)
				return
			}
		}
	}()

	matchLam := func(lam stat.Ratio) bool {
		for _, o := range oracleLam {
			if lam.Equal(o) {
				return true
			}
		}
		return false
	}

	// Analyze readers.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				res, err := e.Analyze()
				if err != nil {
					fail("Analyze: %v", err)
					return
				}
				if !matchLam(res.CycleTime) {
					fail("Analyze λ = %v matches no committed state %v", res.CycleTime, oracleLam)
					return
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}

	// Slacks reader: the certificate is state-dependent and not unique,
	// so assert its invariants — feasibility (no negative slack) and a
	// non-empty tight set.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			sl, err := e.Slacks()
			if err != nil {
				fail("Slacks: %v", err)
				return
			}
			tight := 0
			for _, s := range sl {
				if s.Slack < 0 {
					fail("negative slack %g on arc %d", s.Slack, s.Arc)
					return
				}
				if s.Tight {
					tight++
				}
			}
			if len(sl) == 0 || tight == 0 {
				fail("slack certificate degenerate: %d slacks, %d tight", len(sl), tight)
				return
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()

	// Sweep readers: the whole vector must match one committed state.
	// Two sweep the mixed candidates, one the decreases alone.
	matchVec := func(lams []stat.Ratio, oracle [][]stat.Ratio) bool {
		for _, vec := range oracle {
			all := true
			for i := range vec {
				if !lams[i].Equal(vec[i]) {
					all = false
					break
				}
			}
			if all {
				return true
			}
		}
		return false
	}
	for r := 0; r < 3; r++ {
		sweep, oracle := cands, oracleSweep
		if r == 2 {
			sweep, oracle = decs, oracleDecs
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lams, err := e.SensitivitySweep(sweep)
				if err != nil {
					fail("SensitivitySweep: %v", err)
					return
				}
				if !matchVec(lams, oracle) {
					fail("sweep vector %v matches no single committed state", lams)
					return
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}

	// Bounds reader: both extremes must come from one committed state.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			bd, err := e.AnalyzeBounds(lo, hi)
			if err != nil {
				fail("AnalyzeBounds: %v", err)
				return
			}
			if !matchVec([]stat.Ratio{bd.Min, bd.Max}, [][]stat.Ratio{
				oracleBounds[0][:], oracleBounds[1][:], oracleBounds[2][:],
			}) {
				fail("bounds [%v, %v] match no single committed state", bd.Min, bd.Max)
				return
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()

	// Monte-Carlo readers: criticality and slack distributions.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if r == 0 {
					res, err := e.AnalyzeMC(model, mcOpts)
					if err != nil {
						fail("AnalyzeMC: %v", err)
						return
					}
					if !reflect.DeepEqual(res, oracleMC) {
						fail("AnalyzeMC = %+v, oracle %+v", res, oracleMC)
						return
					}
				} else {
					rows, res, err := e.SlacksMC(model, slackOpts)
					if err != nil {
						fail("SlacksMC: %v", err)
						return
					}
					if !reflect.DeepEqual(rows, oracleSlackRows) || !reflect.DeepEqual(res, oracleSlackMC) {
						fail("SlacksMC differs from its oracle")
						return
					}
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}

	wg.Wait()
	if t.Failed() {
		return
	}

	// After the last commit the engine must agree with the serial
	// oracle of the final state exactly.
	final := (writes - 1) % len(states)
	res, err := e.Analyze()
	if err != nil {
		t.Fatalf("final Analyze: %v", err)
	}
	if !res.CycleTime.Equal(oracleLam[final]) {
		t.Fatalf("final λ = %v, oracle %v", res.CycleTime, oracleLam[final])
	}
	lams, err := e.SensitivitySweep(cands)
	if err != nil {
		t.Fatalf("final sweep: %v", err)
	}
	for i, lam := range lams {
		if !lam.Equal(oracleSweep[final][i]) {
			t.Fatalf("final sweep cand %d: λ = %v, oracle %v", i, lam, oracleSweep[final][i])
		}
	}
}

// TestEngineSizeHint pins the cost-accounting hook the serving cache
// uses: the hint is positive, grows with the workload, and grows again
// once the certificate and what-if rows are built.
func TestEngineSizeHint(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	small, err := gen.RandomLive(rng, gen.RandomOptions{Events: 50, Border: 4, ExtraArcs: 50, MaxDelay: 8})
	if err != nil {
		t.Fatalf("RandomLive: %v", err)
	}
	big, err := gen.RandomLive(rng, gen.RandomOptions{Events: 1000, Border: 8, ExtraArcs: 1000, MaxDelay: 8})
	if err != nil {
		t.Fatalf("RandomLive: %v", err)
	}
	es, err := NewEngine(small)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	eb, err := NewEngine(big)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	hs, hb := es.SizeHint(), eb.SizeHint()
	if hs <= 0 || hb <= 0 {
		t.Fatalf("non-positive size hints: %d, %d", hs, hb)
	}
	if hb <= hs {
		t.Fatalf("big workload hint %d not above small workload hint %d", hb, hs)
	}
	cold := eb.SizeHint()
	if _, err := eb.Slacks(); err != nil {
		t.Fatalf("Slacks: %v", err)
	}
	if _, err := eb.Sensitivity(0, big.Arc(0).Delay*3); err != nil {
		t.Fatalf("Sensitivity: %v", err)
	}
	if warm := eb.SizeHint(); warm <= cold {
		t.Fatalf("hint did not grow with the certificate: cold %d, warm %d", cold, warm)
	}
}
