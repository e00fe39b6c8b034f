package exp

import (
	"fmt"
	"io"
	"runtime"

	"tsg/internal/cycletime"
	"tsg/internal/gen"
	"tsg/internal/sg"
	"tsg/internal/textio"
)

func init() {
	register(Experiment{ID: "ABLATE", Title: "ablations: border set vs minimum cut set; serial vs parallel simulations", Run: runABLATE})
}

// runABLATE quantifies the two implementation choices the ABLATE
// section of EXPERIMENTS.md describes. First, §VI.B: the paper skips the (NP-hard) minimum-cut-set
// search and uses the border set; for the oscillator it notes that the
// minimum cut set {c+} would need one period instead of two. We compare
// simulated work (cut-set size × periods) and check both give the same
// λ. Second, the b event-initiated simulations are independent; the
// Parallel option distributes them over goroutines.
func mustMinCut(g *sg.Graph) []sg.EventID {
	min, err := g.MinimumCutSet()
	if err != nil {
		panic(err) // workloads here are small; unreachable
	}
	return min
}

func runABLATE(w io.Writer) error {
	type workload struct {
		name string
		g    *sg.Graph
	}
	osc := gen.Oscillator()
	ring, err := gen.MullerRing(5)
	if err != nil {
		return err
	}
	stack, err := gen.Stack(31)
	if err != nil {
		return err
	}
	// The exact minimum-cut-set search is exponential; use a smaller
	// stack for that half of the ablation.
	smallStack, err := gen.Stack(13)
	if err != nil {
		return err
	}
	loads := []workload{{"oscillator", osc}, {"muller-ring-5", ring}, {"stack-13", smallStack}}

	tab := textio.New("border set vs exact minimum cut set",
		"workload", "b (border)", "k (minimum)", "sims x periods (border)", "sims x periods (minimum)", "λ agree")
	for _, l := range loads {
		border := l.g.BorderEvents()
		min, err := l.g.MinimumCutSet()
		if err != nil {
			return err
		}
		resB, err := cycletime.Analyze(l.g)
		if err != nil {
			return err
		}
		resM, err := cycletime.AnalyzeOpts(l.g, cycletime.Options{CutSet: min})
		if err != nil {
			return err
		}
		agree := resB.CycleTime.Equal(resM.CycleTime)
		tab.AddRow(l.name, len(border), len(min),
			fmt.Sprintf("%d x %d = %d", len(border), resB.Periods, len(border)*resB.Periods),
			fmt.Sprintf("%d x %d = %d", len(min), resM.Periods, len(min)*resM.Periods),
			agree)
		if !agree {
			return fmt.Errorf("exp: %s: border-set λ %v != minimum-cut-set λ %v",
				l.name, resB.CycleTime, resM.CycleTime)
		}
		if l.name == "oscillator" && len(min) != 1 {
			return fmt.Errorf("exp: oscillator minimum cut set = %d events, want 1 (§VI.B)", len(min))
		}
	}
	if err := tab.Render(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "note: custom cut sets default to b simulated periods — Prop. 6's k_min bound")
	fmt.Fprintln(w, "fails on general graphs (see the erratum note in BENCHMARKS.md); the saving is in")
	fmt.Fprintln(w, "the number of simulations. The paper's oscillator remark (one period from")
	fmt.Fprintln(w, "{c+}) still holds with an explicit override, since all its cycles have ε = 1:")
	res1, err := cycletime.AnalyzeOpts(osc, cycletime.Options{
		CutSet: mustMinCut(osc), Periods: 1,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  oscillator, cut {c+}, 1 period: λ = %v (1 x 1 = 1 simulated period)\n\n", res1.CycleTime)
	if res1.CycleTime.Float() != 10 {
		return fmt.Errorf("exp: 1-period oscillator analysis λ = %v, want 10", res1.CycleTime)
	}

	// Serial vs parallel on the b ≈ n worst case. The engine sizes its
	// worker pool from GOMAXPROCS, so the serial row runs with one.
	tabP := textio.New("\nserial vs parallel simulations (stack-31, b = 63)",
		"mode", "time", "λ")
	serial := func() (*cycletime.Result, error) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		return cycletime.Analyze(stack)
	}
	ts, err := timeRuns(
		func() error { _, err := serial(); return err },
		func() error { _, err := cycletime.Analyze(stack); return err },
	)
	if err != nil {
		return err
	}
	tSer, tPar := ts[0], ts[1]
	resSer, err := serial()
	if err != nil {
		return err
	}
	resPar, err := cycletime.Analyze(stack)
	if err != nil {
		return err
	}
	tabP.AddRow("serial", fmt.Sprintf("%.3gms", tSer*1e3), resSer.CycleTime.String())
	tabP.AddRow("parallel", fmt.Sprintf("%.3gms", tPar*1e3), resPar.CycleTime.String())
	if err := tabP.Render(w); err != nil {
		return err
	}
	if !resSer.CycleTime.Equal(resPar.CycleTime) {
		return fmt.Errorf("exp: parallel λ %v != serial λ %v", resPar.CycleTime, resSer.CycleTime)
	}
	fmt.Fprintf(w, "speedup: %.2fx on %d CPUs (the simulations are allocation-heavy; gains need many cores)\n", tSer/tPar, runtime.NumCPU())
	return nil
}
