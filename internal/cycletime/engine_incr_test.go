package cycletime

import (
	"math"
	"math/rand"
	"testing"

	"tsg/internal/gen"
	"tsg/internal/sg"
)

// sameResult fails unless two analysis results agree bitwise: λ as an
// exact ratio, every distance series entry, the best indices, the
// on-critical flags, and the critical cycles (events, arcs, length,
// period — so the parents derived for the backtracking agree too).
func sameResult(t *testing.T, got, want *Result, label string) {
	t.Helper()
	if !got.CycleTime.Equal(want.CycleTime) {
		t.Fatalf("%s: λ = %v, want %v", label, got.CycleTime, want.CycleTime)
	}
	if len(got.Series) != len(want.Series) {
		t.Fatalf("%s: %d series, want %d", label, len(got.Series), len(want.Series))
	}
	for i := range got.Series {
		gs, ws := &got.Series[i], &want.Series[i]
		if gs.Event != ws.Event || gs.BestIndex != ws.BestIndex ||
			!gs.Best.Equal(ws.Best) || gs.OnCritical != ws.OnCritical {
			t.Fatalf("%s: series %d header (%v,%d,%v,%v), want (%v,%d,%v,%v)", label, i,
				gs.Event, gs.BestIndex, gs.Best, gs.OnCritical,
				ws.Event, ws.BestIndex, ws.Best, ws.OnCritical)
		}
		for j := range gs.Distances {
			g, w := gs.Distances[j], ws.Distances[j]
			if g != w && !(math.IsNaN(g) && math.IsNaN(w)) {
				t.Fatalf("%s: series %d distance %d = %v, want %v", label, i, j, g, w)
			}
		}
	}
	if len(got.Critical) != len(want.Critical) {
		t.Fatalf("%s: %d critical cycles, want %d", label, len(got.Critical), len(want.Critical))
	}
	for k := range got.Critical {
		gc, wc := &got.Critical[k], &want.Critical[k]
		if gc.Length != wc.Length || gc.Period != wc.Period ||
			len(gc.Events) != len(wc.Events) || len(gc.Arcs) != len(wc.Arcs) {
			t.Fatalf("%s: cycle %d shape differs: %+v vs %+v", label, k, gc, wc)
		}
		for i := range gc.Arcs {
			if gc.Events[i] != wc.Events[i] || gc.Arcs[i] != wc.Arcs[i] {
				t.Fatalf("%s: cycle %d step %d (%v,%d), want (%v,%d)",
					label, k, i, gc.Events[i], gc.Arcs[i], wc.Events[i], wc.Arcs[i])
			}
		}
	}
}

// sameSlacks fails unless two slack certificates agree exactly.
func sameSlacks(t *testing.T, got, want []ArcSlack, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d slacks, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: slack %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// editWalk drives one random edit walk over a graph, comparing the
// incremental session against a from-scratch engine after every edit.
func editWalk(t *testing.T, rng *rand.Rand, g *sg.Graph, edits int, checkEvery int) {
	t.Helper()
	eng, err := NewEngine(g)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	m := g.NumArcs()
	delays := make([]float64, m)
	for i := range delays {
		delays[i] = g.Arc(i).Delay
	}
	for step := 0; step < edits; step++ {
		arc := rng.Intn(m)
		var d float64
		switch rng.Intn(4) {
		case 0:
			d = float64(rng.Intn(10))
		case 1:
			d = delays[arc] * (0.5 + rng.Float64())
		case 2:
			d = delays[arc] // no-op commit
		default:
			d = delays[arc] + rng.Float64()*3
		}
		if err := eng.SetDelay(arc, d); err != nil {
			t.Fatalf("step %d: SetDelay(%d, %g): %v", step, arc, d, err)
		}
		delays[arc] = d

		got, err := eng.Analyze()
		if err != nil {
			t.Fatalf("step %d: incremental Analyze: %v", step, err)
		}
		if step%checkEvery != 0 && step != edits-1 {
			continue
		}
		// The from-scratch oracle: a fresh engine over a fresh graph at
		// exactly the committed delays.
		fg, err := g.WithDelays(func(i int, _ float64) float64 { return delays[i] })
		if err != nil {
			t.Fatalf("step %d: WithDelays: %v", step, err)
		}
		fresh, err := NewEngine(fg)
		if err != nil {
			t.Fatalf("step %d: fresh NewEngine: %v", step, err)
		}
		want, err := fresh.Analyze()
		if err != nil {
			t.Fatalf("step %d: fresh Analyze: %v", step, err)
		}
		sameResult(t, got, want, "edit step")
		gs, err := eng.Slacks()
		if err != nil {
			t.Fatalf("step %d: incremental Slacks: %v", step, err)
		}
		ws, err := fresh.Slacks()
		if err != nil {
			t.Fatalf("step %d: fresh Slacks: %v", step, err)
		}
		sameSlacks(t, gs, ws, "edit step")
	}
	st := eng.Stats()
	if st.IncrementalAnalyses == 0 {
		t.Errorf("edit walk of %d edits ran %d incremental analyses; the patch path never engaged (%d full analyses)",
			edits, st.IncrementalAnalyses, st.Analyses)
	}
}

// TestIncrementalCommitDifferential: random graphs, random edit walks —
// the incremental session must stay bit-identical to a from-scratch
// engine after every committed edit: λ, series, critical cycles (which
// pin the parents derived from patched times) and slack certificates.
func TestIncrementalCommitDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 8; trial++ {
		n := 4 + rng.Intn(14)
		b := 1 + rng.Intn(n/2+1)
		g, err := gen.RandomLive(rng, gen.RandomOptions{
			Events: n, Border: b, ExtraArcs: rng.Intn(2 * n), MaxDelay: 9,
		})
		if err != nil {
			t.Fatalf("RandomLive: %v", err)
		}
		editWalk(t, rng, g, 25, 1)
	}
}

// TestIncrementalCommitLongWalk is the acceptance-shaped walk: one
// random graph, one 200-edit random sequence, bit-identical against
// the from-scratch oracle at every fourth step (and the last).
func TestIncrementalCommitLongWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	g, err := gen.RandomLive(rng, gen.RandomOptions{
		Events: 60, Border: 5, ExtraArcs: 60, MaxDelay: 16,
	})
	if err != nil {
		t.Fatalf("RandomLive: %v", err)
	}
	editWalk(t, rng, g, 200, 4)
}

// TestIncrementalMatchesNoIncremental: the NoIncremental ablation
// engine and the default engine answer identically along an edit walk,
// and only the default one uses the patch path.
func TestIncrementalMatchesNoIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	g, err := gen.RandomLive(rng, gen.RandomOptions{
		Events: 30, Border: 4, ExtraArcs: 30, MaxDelay: 9,
	})
	if err != nil {
		t.Fatalf("RandomLive: %v", err)
	}
	inc, err := NewEngine(g)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	full, err := NewEngineOpts(g, Options{NoIncremental: true})
	if err != nil {
		t.Fatalf("NewEngineOpts: %v", err)
	}
	for step := 0; step < 40; step++ {
		arc := rng.Intn(g.NumArcs())
		d := float64(rng.Intn(12))
		if err := inc.SetDelay(arc, d); err != nil {
			t.Fatalf("SetDelay: %v", err)
		}
		if err := full.SetDelay(arc, d); err != nil {
			t.Fatalf("SetDelay: %v", err)
		}
		ri, err := inc.Analyze()
		if err != nil {
			t.Fatalf("incremental Analyze: %v", err)
		}
		rf, err := full.Analyze()
		if err != nil {
			t.Fatalf("full Analyze: %v", err)
		}
		sameResult(t, ri, rf, "vs NoIncremental")
	}
	if st := full.Stats(); st.IncrementalAnalyses != 0 {
		t.Errorf("NoIncremental engine ran %d incremental analyses", st.IncrementalAnalyses)
	}
	if st := inc.Stats(); st.IncrementalAnalyses == 0 {
		t.Error("default engine never used the incremental path")
	}
}

// TestIncrementalResetDelays: ResetDelays is an incremental commit and
// restores the exact compile-time baseline.
func TestIncrementalResetDelays(t *testing.T) {
	g, err := gen.Stack(7)
	if err != nil {
		t.Fatalf("Stack: %v", err)
	}
	eng, err := NewEngine(g)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	base, err := eng.Analyze()
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	rng := rand.New(rand.NewSource(53))
	for k := 0; k < 10; k++ {
		if err := eng.SetDelay(rng.Intn(g.NumArcs()), float64(rng.Intn(9))); err != nil {
			t.Fatalf("SetDelay: %v", err)
		}
	}
	if _, err := eng.Analyze(); err != nil {
		t.Fatalf("edited Analyze: %v", err)
	}
	eng.ResetDelays()
	back, err := eng.Analyze()
	if err != nil {
		t.Fatalf("reset Analyze: %v", err)
	}
	sameResult(t, back, base, "after ResetDelays")

	// A reset with nothing to restore keeps the warm certificate.
	a := eng.Stats().Analyses + eng.Stats().IncrementalAnalyses
	eng.ResetDelays()
	if _, err := eng.Analyze(); err != nil {
		t.Fatalf("noop-reset Analyze: %v", err)
	}
	if got := eng.Stats().Analyses + eng.Stats().IncrementalAnalyses; got != a {
		t.Errorf("no-op ResetDelays re-analysed (%d -> %d)", a, got)
	}
}

// TestIncrementalRowInvalidation: what-if rows built before a commit
// keep answering exactly after it — arcs outside the edit's forward
// cone keep their rows, arcs inside are rebuilt — by comparing every
// sweep answer against the independent one-shot Sensitivity oracle.
func TestIncrementalRowInvalidation(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	g, err := gen.RandomLive(rng, gen.RandomOptions{
		Events: 25, Border: 3, ExtraArcs: 25, MaxDelay: 9,
	})
	if err != nil {
		t.Fatalf("RandomLive: %v", err)
	}
	eng, err := NewEngine(g)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	sweep := func(cur *sg.Graph) {
		t.Helper()
		cands := make([]WhatIf, cur.NumArcs())
		for i := range cands {
			cands[i] = WhatIf{Arc: i, Delay: cur.Arc(i).Delay*1.5 + 1}
		}
		got, err := eng.SensitivitySweep(cands)
		if err != nil {
			t.Fatalf("SensitivitySweep: %v", err)
		}
		for i, cd := range cands {
			want, err := Sensitivity(cur, cd.Arc, cd.Delay)
			if err != nil {
				t.Fatalf("oracle Sensitivity(%d): %v", cd.Arc, err)
			}
			if !got[i].Equal(want) {
				t.Fatalf("sweep arc %d: λ = %v, oracle %v", cd.Arc, got[i], want)
			}
		}
	}
	cur := g
	sweep(cur) // builds rows for every arc
	for step := 0; step < 6; step++ {
		arc := rng.Intn(g.NumArcs())
		d := float64(1 + rng.Intn(9))
		if err := eng.SetDelay(arc, d); err != nil {
			t.Fatalf("SetDelay: %v", err)
		}
		var err error
		if cur, err = cur.WithArcDelay(arc, d); err != nil {
			t.Fatalf("WithArcDelay: %v", err)
		}
		sweep(cur)
	}
}
