package hier_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"tsg/internal/cycletime"
	"tsg/internal/gen"
	"tsg/internal/hier"
	"tsg/internal/netlist"
	"tsg/internal/sg"
)

// fixtures returns every graph the hierarchical analysis is tested on:
// the generator families, the .tsg testdata corpus, seeded random live
// graphs, and the huge-graph families at mid size.
func fixtures(t testing.TB) map[string]*sg.Graph {
	t.Helper()
	fx := map[string]*sg.Graph{"oscillator": gen.Oscillator()}
	ring, err := gen.MullerRing(5)
	if err != nil {
		t.Fatalf("MullerRing: %v", err)
	}
	fx["ring5"] = ring
	for _, cells := range []int{3, 13} {
		st, err := gen.Stack(cells)
		if err != nil {
			t.Fatalf("Stack(%d): %v", cells, err)
		}
		fx[fmt.Sprintf("stack%d", cells)] = st
	}
	pipe, err := gen.MullerPipeline(8, 3, 2, 3)
	if err != nil {
		t.Fatalf("MullerPipeline: %v", err)
	}
	fx["pipeline8"] = pipe
	for _, name := range []string{"oscillator.tsg", "ring5.tsg", "stack31.tsg"} {
		f, err := os.Open(filepath.Join("..", "..", "testdata", name))
		if err != nil {
			t.Fatalf("open %s: %v", name, err)
		}
		g, err := netlist.ReadTSG(f)
		f.Close()
		if err != nil {
			t.Fatalf("ReadTSG(%s): %v", name, err)
		}
		fx["tsg:"+name] = g
	}
	rng := rand.New(rand.NewSource(4242))
	for seed := 0; seed < 6; seed++ {
		g, err := gen.RandomLive(rng, gen.RandomOptions{
			Events: 80 + 50*seed, Border: 3 + seed, ExtraArcs: 150 + 20*seed, MaxDelay: 16,
		})
		if err != nil {
			t.Fatalf("RandomLive: %v", err)
		}
		fx[fmt.Sprintf("random%d", seed)] = g
	}
	pg, err := gen.PipeGrid(gen.PipeGridOptions{Sites: 6, Depth: 11, Width: 4, Seed: 31})
	if err != nil {
		t.Fatalf("PipeGrid: %v", err)
	}
	fx["pipegrid"] = pg
	mesh, err := gen.Mesh(gen.MeshOptions{W: 12, H: 5, Seed: 32})
	if err != nil {
		t.Fatalf("Mesh: %v", err)
	}
	fx["mesh"] = mesh
	tor, err := gen.TreeOfRings(gen.TreeRingOptions{Sites: 5, Levels: 4, Fanout: 2, Seed: 33})
	if err != nil {
		t.Fatalf("TreeOfRings: %v", err)
	}
	fx["treering"] = tor
	return fx
}

// TestHierMatchesFlat is the central differential test: hierarchical
// λ, border series, expanded critical cycles, and slack validity
// against the flat engine, on every fixture.
func TestHierMatchesFlat(t *testing.T) {
	for name, g := range fixtures(t) {
		g := g
		t.Run(name, func(t *testing.T) {
			flat, err := cycletime.Analyze(g)
			if err != nil {
				t.Fatalf("flat Analyze: %v", err)
			}
			hres, err := hier.Analyze(g)
			if err != nil {
				t.Fatalf("hier Analyze: %v", err)
			}

			// λ: exact rationals, and for these integral-delay graphs the
			// float components must agree bit for bit.
			if !hres.CycleTime.Equal(flat.CycleTime) {
				t.Fatalf("λ: hier %v, flat %v", hres.CycleTime, flat.CycleTime)
			}
			hn, fn := hres.CycleTime.Normalize(), flat.CycleTime.Normalize()
			if hn.Num != fn.Num || hn.Den != fn.Den {
				t.Fatalf("λ bits: hier %v/%d, flat %v/%d", hn.Num, hn.Den, fn.Num, fn.Den)
			}

			// Border series: same events in the same order, identical
			// winners. (Fallback results are flat results verbatim.)
			if len(hres.Series) != len(flat.Series) {
				t.Fatalf("series count: hier %d, flat %d", len(hres.Series), len(flat.Series))
			}
			for i := range flat.Series {
				hs, fs := hres.Series[i], flat.Series[i]
				if hs.Event != fs.Event {
					t.Fatalf("series[%d] event: hier %d (%s), flat %d (%s)", i,
						hs.Event, g.Event(hs.Event).Name, fs.Event, g.Event(fs.Event).Name)
				}
				if !hs.Best.Equal(fs.Best) || hs.BestIndex != fs.BestIndex {
					t.Fatalf("series[%d] best: hier %v@%d, flat %v@%d", i,
						hs.Best, hs.BestIndex, fs.Best, fs.BestIndex)
				}
				if hs.OnCritical != fs.OnCritical {
					t.Fatalf("series[%d] OnCritical: hier %v, flat %v", i, hs.OnCritical, fs.OnCritical)
				}
			}

			// Expanded critical cycles: real simple flat cycles attaining λ.
			if len(hres.Critical) == 0 {
				t.Fatal("hier returned no critical cycle")
			}
			for ci := range hres.Critical {
				c := &hres.Critical[ci]
				if len(c.Arcs) != len(c.Events) {
					t.Fatalf("critical[%d]: %d arcs vs %d events", ci, len(c.Arcs), len(c.Events))
				}
				seen := make(map[sg.EventID]bool)
				length, period := 0.0, 0
				for k, ai := range c.Arcs {
					a := g.Arc(ai)
					from, to := c.Events[k], c.Events[(k+1)%len(c.Events)]
					if a.From != from || a.To != to {
						t.Fatalf("critical[%d] arc %d: flat arc %d is %d->%d, cycle says %d->%d",
							ci, k, ai, a.From, a.To, from, to)
					}
					if seen[from] {
						t.Fatalf("critical[%d]: event %s repeats — not simple", ci, g.Event(from).Name)
					}
					seen[from] = true
					length += a.Delay
					if a.Marked {
						period++
					}
				}
				if length != c.Length || period != c.Period {
					t.Fatalf("critical[%d]: recomputed %g/%d, stored %g/%d", ci, length, period, c.Length, c.Period)
				}
				if !c.Ratio().Equal(flat.CycleTime) {
					t.Fatalf("critical[%d] ratio %v != λ %v", ci, c.Ratio(), flat.CycleTime)
				}
			}
		})
	}
}

// TestHierSlacks checks the extended potential: every flat arc's slack
// is non-negative (the certificate is feasible) and every arc of every
// expanded critical cycle is tight.
func TestHierSlacks(t *testing.T) {
	for name, g := range fixtures(t) {
		g := g
		t.Run(name, func(t *testing.T) {
			c, err := hier.Compress(g)
			if err != nil {
				t.Skipf("no compression gain: %v", err)
			}
			res, err := c.Analyze(hier.Options{})
			if err != nil {
				t.Fatalf("hier Analyze: %v", err)
			}
			slacks, err := c.Slacks(res.CycleTime)
			if err != nil {
				t.Fatalf("Slacks: %v", err)
			}
			byArc := make(map[int]float64, len(slacks))
			for _, s := range slacks {
				if s.Slack < -1e-6 {
					t.Fatalf("arc %d has negative slack %g — potential infeasible", s.Arc, s.Slack)
				}
				byArc[s.Arc] = s.Slack
			}
			for ci := range res.Critical {
				for _, ai := range res.Critical[ci].Arcs {
					s, ok := byArc[ai]
					if !ok {
						t.Fatalf("critical arc %d missing from slack report", ai)
					}
					if s != 0 {
						t.Fatalf("critical arc %d has slack %g, want tight", ai, s)
					}
				}
			}
		})
	}
}

// TestHierCompressionShape pins the structural contract of Compress:
// the compressed graph validates, its border matches the flat border
// under the event mapping, and the stats add up.
func TestHierCompressionShape(t *testing.T) {
	for name, g := range fixtures(t) {
		g := g
		t.Run(name, func(t *testing.T) {
			c, err := hier.Compress(g)
			if err != nil {
				t.Skipf("no compression gain: %v", err)
			}
			comp := c.Graph()
			st := c.Stats()
			if st.FlatEvents != g.NumEvents() || st.FlatArcs != g.NumArcs() {
				t.Fatalf("flat stats %d/%d, graph %d/%d", st.FlatEvents, st.FlatArcs, g.NumEvents(), g.NumArcs())
			}
			if st.CompressedEvents != comp.NumEvents() || st.CompressedArcs != comp.NumArcs() {
				t.Fatalf("compressed stats %d/%d, graph %d/%d",
					st.CompressedEvents, st.CompressedArcs, comp.NumEvents(), comp.NumArcs())
			}
			if st.Boundary+st.Interior != st.FlatEvents {
				t.Fatalf("boundary %d + interior %d != flat %d", st.Boundary, st.Interior, st.FlatEvents)
			}
			if st.CompressedEvents >= st.FlatEvents {
				t.Fatalf("no event compression: %d >= %d", st.CompressedEvents, st.FlatEvents)
			}
			// The compressed border must be the flat border, in order.
			fb := g.BorderEvents()
			cb := comp.BorderEvents()
			if len(fb) != len(cb) {
				t.Fatalf("border size: flat %d, compressed %d", len(fb), len(cb))
			}
			for i := range cb {
				if c.ToFlat(cb[i]) != fb[i] {
					t.Fatalf("border[%d]: compressed maps to %d, flat has %d", i, c.ToFlat(cb[i]), fb[i])
				}
			}
			// Event names survive the mapping.
			for ci := 0; ci < comp.NumEvents(); ci++ {
				if comp.Event(sg.EventID(ci)).Name != g.Event(c.ToFlat(sg.EventID(ci))).Name {
					t.Fatalf("event %d renamed: %s vs %s", ci,
						comp.Event(sg.EventID(ci)).Name, g.Event(c.ToFlat(sg.EventID(ci))).Name)
				}
			}
		})
	}
}

// TestHierFallback pins the ErrNoGain path: a graph with no interior
// (every event on the border) analyses flat, transparently, with the
// Fallback stat set.
func TestHierFallback(t *testing.T) {
	// A 2-ring where both events head marked arcs: no interior at all.
	g, err := sg.NewBuilder("allborder").
		Events("a", "b").
		Arc("a", "b", 3, sg.Marked()).
		Arc("b", "a", 4, sg.Marked()).
		Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if _, err := hier.Compress(g); err == nil {
		t.Fatal("Compress succeeded on an incompressible graph")
	}
	res, err := hier.Analyze(g)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if !res.Stats.Fallback {
		t.Fatal("Fallback stat not set")
	}
	flat, err := cycletime.Analyze(g)
	if err != nil {
		t.Fatalf("flat Analyze: %v", err)
	}
	if !res.CycleTime.Equal(flat.CycleTime) {
		t.Fatalf("fallback λ %v != flat λ %v", res.CycleTime, flat.CycleTime)
	}
}

// TestHierDeterminism pins that compression and analysis are
// deterministic: two runs produce identical compressed fingerprints
// and identical results.
func TestHierDeterminism(t *testing.T) {
	g, err := gen.PipeGrid(gen.PipeGridOptions{Sites: 5, Depth: 9, Width: 3, Seed: 55})
	if err != nil {
		t.Fatalf("PipeGrid: %v", err)
	}
	c1, err := hier.Compress(g)
	if err != nil {
		t.Fatalf("Compress: %v", err)
	}
	c2, err := hier.Compress(g)
	if err != nil {
		t.Fatalf("Compress: %v", err)
	}
	if sg.Fingerprint(c1.Graph()) != sg.Fingerprint(c2.Graph()) {
		t.Fatal("compressed fingerprints differ between runs")
	}
	r1, err := c1.Analyze(hier.Options{})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	r2, err := c2.Analyze(hier.Options{})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if !r1.CycleTime.Equal(r2.CycleTime) || len(r1.Critical) != len(r2.Critical) {
		t.Fatal("hier results differ between runs")
	}
}

// TestHierCompressionRatioHuge pins that the huge families actually
// compress hard — the property the scale experiment banks on.
func TestHierCompressionRatioHuge(t *testing.T) {
	g, err := gen.PipeGridSized(50000, 8, 4, 66)
	if err != nil {
		t.Fatalf("PipeGridSized: %v", err)
	}
	c, err := hier.Compress(g)
	if err != nil {
		t.Fatalf("Compress: %v", err)
	}
	st := c.Stats()
	if ratio := st.EventRatio(); ratio > 0.01 {
		t.Fatalf("compressed/flat event ratio %.4f, want <= 0.01 on a 50k pipegrid", ratio)
	}
	res, err := c.Analyze(hier.Options{})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	flat, err := cycletime.Analyze(g)
	if err != nil {
		t.Fatalf("flat Analyze: %v", err)
	}
	if !res.CycleTime.Equal(flat.CycleTime) {
		t.Fatalf("λ: hier %v, flat %v", res.CycleTime, flat.CycleTime)
	}
}
