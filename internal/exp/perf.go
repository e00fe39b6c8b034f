package exp

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"time"

	"tsg/internal/cycles"
	"tsg/internal/cycletime"
	"tsg/internal/gen"
	"tsg/internal/maxplus"
	"tsg/internal/mcr"
	"tsg/internal/sg"
	"tsg/internal/stat"
	"tsg/internal/textio"
)

func init() {
	register(Experiment{ID: "PERF8B", Title: "§VIII.B: asynchronous-stack analysis performance (66 events)", Run: runPERF8B})
	register(Experiment{ID: "COMPLX", Title: "§VII: O(b²m) complexity verification", Run: runCOMPLX})
	register(Experiment{ID: "BASE", Title: "§I: baseline algorithms (Karp, Lawler/Burns LP, Howard, oracle)", Run: runBASE})
}

func runPERF8B(w io.Writer) error {
	// The paper: "a Signal Graph with 66 events and 112 arcs, which
	// describes the gate level behavior of an asynchronous stack with
	// constant response time, takes 74 CPU milliseconds on a DEC 5000."
	g, err := gen.Stack(31)
	if err != nil {
		return err
	}
	if err := expect("stack events", g.NumEvents(), 66); err != nil {
		return err
	}
	res, err := cycletime.Analyze(g)
	if err != nil {
		return err
	}
	if err := expect("stack λ (constant response)", res.CycleTime.Float(), 4.0); err != nil {
		return err
	}
	const runs = 25
	start := time.Now()
	for i := 0; i < runs; i++ {
		if _, err := cycletime.Analyze(g); err != nil {
			return err
		}
	}
	per := time.Since(start) / runs
	tab := textio.New("§VIII.B: stack analysis", "metric", "this implementation", "paper (DEC 5000, 1994)")
	tab.AddRow("events", g.NumEvents(), 66)
	tab.AddRow("arcs", g.NumArcs(), "112 (synthetic model; see gen.Stack)")
	tab.AddRow("border events", len(g.BorderEvents()), "n/a")
	tab.AddRow("cycle time", res.CycleTime.Float(), "n/a (constant response)")
	tab.AddRow("analysis time", per.String(), "74 ms")
	if err := tab.Render(w); err != nil {
		return err
	}
	if per > 500*time.Millisecond {
		return fmt.Errorf("exp: stack analysis took %v; expected well under the paper's 74 ms on modern hardware", per)
	}
	return nil
}

// timeRuns measures each f in seconds of clock (wallSeconds or
// cpuSeconds): after a GC, so no earlier garbage is collected during
// the runs, the fastest of three consecutive runs. The fits need each
// point's undisturbed cost, and on a shared 2-vCPU host the fastest
// run estimates it best: a median of five failed COMPLX's R² bounds in
// about a third of uncached `go test ./...` runs, with other packages'
// tests on the second core.
func timeRuns(clock func() float64, fs ...func() error) ([]float64, error) {
	secs := make([]float64, len(fs))
	for i, f := range fs {
		runtime.GC()
		secs[i] = math.Inf(1)
		for r := 0; r < 3; r++ {
			start := clock()
			if err := f(); err != nil {
				return nil, err
			}
			secs[i] = min(secs[i], clock()-start)
		}
	}
	return secs, nil
}

// clockStart anchors wallSeconds.
var clockStart = time.Now()

// wallSeconds returns the monotonic wall-clock seconds since the
// package was initialised.
func wallSeconds() float64 { return time.Since(clockStart).Seconds() }

// analyzeRuns returns one Analyze run per graph, for timeRuns.
func analyzeRuns(gs []*sg.Graph) []func() error {
	fs := make([]func() error, len(gs))
	for i, g := range gs {
		fs[i] = func() error { _, err := cycletime.Analyze(g); return err }
	}
	return fs
}

// runCOMPLX fits the analysis time against m and b. Times are process
// CPU seconds: the fits bound the work the analysis does, which a
// loaded host does not change, while its wall time swings with what
// else runs; CPU time also charges every worker of a pooled pass 1.
func runCOMPLX(w io.Writer) error {
	rng := rand.New(rand.NewSource(7))

	// Sweep 1: m grows at fixed b -> runtime must be linear in m.
	tabM := textio.New("CPU time vs m at fixed b = 4 (random live graphs)", "events", "arcs m", "time")
	var gm []*sg.Graph
	for _, n := range []int{500, 1000, 2000, 4000, 8000} {
		g, err := gen.RandomLive(rng, gen.RandomOptions{Events: n, Border: 4, ExtraArcs: n, MaxDelay: 16})
		if err != nil {
			return err
		}
		gm = append(gm, g)
	}
	ts, err := timeRuns(cpuSeconds, analyzeRuns(gm)...)
	if err != nil {
		return err
	}
	var ms []float64
	for i, g := range gm {
		tabM.AddRow(g.NumEvents(), g.NumArcs(), fmt.Sprintf("%.3gms", ts[i]*1e3))
		ms = append(ms, float64(g.NumArcs()))
	}
	if err := tabM.Render(w); err != nil {
		return err
	}
	slope, intercept := stat.LinFit(ms, ts)
	r2 := stat.R2(ms, ts, slope, intercept)
	fmt.Fprintf(w, "linear fit of time vs m: R² = %.4f (O(b²m) predicts linear; want R² near 1)\n\n", r2)
	if r2 < 0.95 {
		return fmt.Errorf("exp: time vs m fits a line with R² = %.3f < 0.95; linearity in m not confirmed", r2)
	}

	// Sweep 2: b grows at fixed n, m -> runtime must be quadratic in b.
	tabB := textio.New("CPU time vs b at fixed n = 3000, m = 6000", "border b", "time", "time/b²")
	var gb []*sg.Graph
	bs := []float64{2, 4, 8, 16, 32}
	for _, b := range bs {
		g, err := gen.RandomLive(rng, gen.RandomOptions{Events: 3000, Border: int(b), ExtraArcs: 3000, MaxDelay: 16})
		if err != nil {
			return err
		}
		gb = append(gb, g)
	}
	tb, err := timeRuns(cpuSeconds, analyzeRuns(gb)...)
	if err != nil {
		return err
	}
	for i, b := range bs {
		tabB.AddRow(int(b), fmt.Sprintf("%.3gms", tb[i]*1e3), fmt.Sprintf("%.3gus", tb[i]/(b*b)*1e6))
	}
	if err := tabB.Render(w); err != nil {
		return err
	}
	// sqrt(time) versus b should be linear for a quadratic law.
	roots := make([]float64, len(tb))
	for i, v := range tb {
		roots[i] = math.Sqrt(v)
	}
	slopeB, interceptB := stat.LinFit(bs, roots)
	r2b := stat.R2(bs, roots, slopeB, interceptB)
	fmt.Fprintf(w, "linear fit of sqrt(time) vs b: R² = %.4f (O(b²m) predicts quadratic in b)\n", r2b)
	if r2b < 0.9 {
		return fmt.Errorf("exp: sqrt(time) vs b fits with R² = %.3f < 0.9; quadratic law not confirmed", r2b)
	}
	return nil
}

func runBASE(w io.Writer) error {
	rng := rand.New(rand.NewSource(31))
	tab := textio.New("baseline agreement and runtime",
		"workload", "n/m/b", "Nielsen-Kishinevsky", "Karp", "Howard", "Lawler(1e-9)", "oracle")

	run := func(name string, build func() (*sg.Graph, error)) error {
		g, err := build()
		if err != nil {
			return err
		}
		ts, err := timeRuns(wallSeconds,
			func() error { _, err := cycletime.Analyze(g); return err },
			func() error { _, err := mcr.Karp(g); return err },
			func() error { _, err := mcr.Howard(g); return err },
			func() error { _, err := mcr.Lawler(g, 1e-9); return err },
		)
		if err != nil {
			return err
		}
		tNK, tK, tH, tL := ts[0], ts[1], ts[2], ts[3]
		resNK, err := cycletime.Analyze(g)
		if err != nil {
			return err
		}
		rK, err := mcr.Karp(g)
		if err != nil {
			return err
		}
		rH, err := mcr.Howard(g)
		if err != nil {
			return err
		}
		rL, err := mcr.Lawler(g, 1e-9)
		if err != nil {
			return err
		}
		oracleCell := "skipped"
		var rO stat.Ratio
		haveOracle := false
		if g.NumEvents() <= 64 {
			var err error
			rO, _, err = cycles.MaxRatio(g, 1<<18)
			if err == nil {
				haveOracle = true
				oracleCell = rO.String()
			} else {
				oracleCell = "exp. blowup"
			}
		}
		cell := func(v stat.Ratio, t float64) string {
			return fmt.Sprintf("%s (%.3gms)", v, t*1e3)
		}
		tab.AddRow(name,
			fmt.Sprintf("%d/%d/%d", g.NumEvents(), g.NumArcs(), len(g.BorderEvents())),
			cell(resNK.CycleTime, tNK), cell(rK, tK), cell(rH, tH),
			fmt.Sprintf("%.6g (%.3gms)", rL, tL*1e3), oracleCell)
		if !resNK.CycleTime.Equal(rK) || !resNK.CycleTime.Equal(rH) {
			return fmt.Errorf("exp: %s: algorithms disagree: NK=%v Karp=%v Howard=%v", name, resNK.CycleTime, rK, rH)
		}
		if math.Abs(rL-resNK.CycleTime.Float()) > 1e-6 {
			return fmt.Errorf("exp: %s: Lawler=%g vs NK=%v", name, rL, resNK.CycleTime)
		}
		if haveOracle && !resNK.CycleTime.Equal(rO) {
			return fmt.Errorf("exp: %s: oracle=%v vs NK=%v", name, rO, resNK.CycleTime)
		}
		// Fifth independent route: the max-plus eigenvalue of the token
		// matrix (§I refs [1], [7]) must agree as well.
		mpM, _, err := maxplus.FromGraph(g)
		if err != nil {
			return err
		}
		rMP, err := mpM.Eigenvalue()
		if err != nil {
			return err
		}
		if !resNK.CycleTime.Equal(rMP) {
			return fmt.Errorf("exp: %s: max-plus eigenvalue %v vs NK=%v", name, rMP, resNK.CycleTime)
		}
		return nil
	}

	if err := run("oscillator", func() (*sg.Graph, error) { return gen.Oscillator(), nil }); err != nil {
		return err
	}
	if err := run("muller-ring-5", func() (*sg.Graph, error) { return gen.MullerRing(5) }); err != nil {
		return err
	}
	if err := run("stack-31", func() (*sg.Graph, error) { return gen.Stack(31) }); err != nil {
		return err
	}
	for _, sz := range []struct{ n, b, extra int }{
		{200, 4, 200}, {2000, 8, 2000},
	} {
		name := fmt.Sprintf("random-n%d-b%d", sz.n, sz.b)
		if err := run(name, func() (*sg.Graph, error) {
			return gen.RandomLive(rng, gen.RandomOptions{Events: sz.n, Border: sz.b, ExtraArcs: sz.extra, MaxDelay: 16})
		}); err != nil {
			return err
		}
	}
	return tab.Render(w)
}
