package cycletime_test

import (
	"math/rand"
	"runtime"
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

// liveHeap returns the live heap after a full collection. Two cycles
// drop what pools keep for one cycle more.
func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestSizeHintTracksHeap pins SizeHint, the cost the serve cache
// bounds engines by, to the live-heap growth a session causes, within
// a factor of sizeHintSlack either way, in every state whose memory
// the hint models: fresh, analysed (critical cycles), slack-certified
// (certificate and what-if rows) and retained (lane traces after a
// commit).
func TestSizeHintTracksHeap(t *testing.T) {
	const sizeHintSlack = 1.5
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
			base := liveHeap()
			e, err := cycletime.NewEngine(c.g)
			if err != nil {
				t.Fatalf("NewEngine: %v", err)
			}
			arc := 0
			for _, s := range []struct {
				name string
				run  func() error
			}{
				{"fresh", func() error { return nil }},
				{"analysed", func() error { _, err := e.Analyze(); return err }},
				{"slack-certified", func() error {
					if _, err := e.Slacks(); err != nil {
						return err
					}
					_, err := e.Sensitivity(arc, c.g.Arc(arc).Delay*4+1)
					return err
				}},
				{"retained", func() error {
					if err := e.SetDelay(arc, c.g.Arc(arc).Delay+1); err != nil {
						return err
					}
					_, err := e.Slacks()
					return err
				}},
			} {
				if err := s.run(); err != nil {
					t.Fatalf("%s: %v", s.name, err)
				}
				heap, hint := liveHeap()-base, e.SizeHint()
				t.Logf("%s: SizeHint %d B, live heap +%d B", s.name, hint, heap)
				if r := float64(hint) / float64(heap); r > sizeHintSlack || r < 1/sizeHintSlack {
					t.Errorf("%s: SizeHint %d B is %.2f× the live heap growth %d B", s.name, hint, r, heap)
				}
			}
			runtime.KeepAlive(e)
		})
	}
}
