package cycletime_test

import (
	"math/rand"
	"testing"

	"tsg/internal/cycletime"
	"tsg/internal/gen"
	"tsg/internal/sg"
)

// TestQueriesPinNoMemory: queries at delays other than the session's —
// Monte-Carlo with criticality on four workers, slack distributions,
// bounds and a sweep of uncertified decreases — keep nothing once they
// answer, so a warm session's SizeHint is the same after each of them.
func TestQueriesPinNoMemory(t *testing.T) {
	random, err := gen.RandomLive(rand.New(rand.NewSource(5)), gen.RandomOptions{
		Events: 2000, Border: 8, ExtraArcs: 2000, MaxDelay: 16,
	})
	if err != nil {
		t.Fatalf("RandomLive: %v", err)
	}
	grid, err := gen.PipeGrid(gen.PipeGridOptions{Sites: 16, Depth: 2, Width: 2, Seed: 1})
	if err != nil {
		t.Fatalf("PipeGrid: %v", err)
	}
	for _, c := range []struct {
		name string
		g    *sg.Graph
	}{{"random2000", random}, {"pipegrid16", grid}} {
		t.Run(c.name, func(t *testing.T) {
			e, err := cycletime.NewEngine(c.g)
			if err != nil {
				t.Fatalf("NewEngine: %v", err)
			}
			res, err := e.Analyze()
			if err != nil {
				t.Fatalf("Analyze: %v", err)
			}
			if _, err := e.Slacks(); err != nil {
				t.Fatalf("Slacks: %v", err)
			}
			warm := e.SizeHint()
			model, err := gen.UniformJitter(c.g, 0.1)
			if err != nil {
				t.Fatalf("UniformJitter: %v", err)
			}
			var decreases []cycletime.WhatIf
			for _, a := range res.Critical[0].Arcs[:4] {
				decreases = append(decreases, cycletime.WhatIf{Arc: a, Delay: c.g.Arc(a).Delay / 2})
			}
			lo, hi := cycletime.Jitter(0.1)
			for _, q := range []struct {
				name string
				run  func() error
			}{
				{"AnalyzeMC", func() error {
					_, err := e.AnalyzeMC(model, cycletime.MCOptions{Samples: 64, Seed: 3, Workers: 4, Criticality: true})
					return err
				}},
				{"SlacksMC", func() error {
					_, _, err := e.SlacksMC(model, cycletime.MCOptions{Samples: 32, Seed: 3, Workers: 2})
					return err
				}},
				{"AnalyzeBounds", func() error {
					_, err := e.AnalyzeBounds(lo, hi)
					return err
				}},
				{"decrease sweep", func() error {
					_, err := e.SensitivitySweep(decreases)
					return err
				}},
			} {
				if err := q.run(); err != nil {
					t.Fatalf("%s: %v", q.name, err)
				}
				if got := e.SizeHint(); got != warm {
					t.Fatalf("SizeHint after %s = %d, warm session %d", q.name, got, warm)
				}
			}
			if s := e.Stats(); s.FastPathHits+s.TableAnswers >= int64(len(decreases)) {
				t.Fatalf("decrease sweep answered without simulating (stats %+v): fixture broken", s)
			}
		})
	}
}
