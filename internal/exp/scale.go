package exp

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"tsg/internal/cycletime"
	"tsg/internal/gen"
	"tsg/internal/hier"
	"tsg/internal/sg"
	"tsg/internal/stat"
	"tsg/internal/textio"
)

func init() {
	register(Experiment{
		ID:    "SCALE",
		Title: "scalability wall: 10^3..10^6-event graphs under hierarchical macro-compression and the memory-bounded kernel",
		Run:   runSCALE,
	})
}

// scaleRow is one point of the scalability sweep.
type scaleRow struct {
	name  string
	build func() (*sg.Graph, error)
	// heapBudgetMB gates the sampled peak Go heap occupancy of the whole
	// row (build + hierarchical + flat analysis). Sampled heap is used
	// rather than VmHWM so the gate stays attributable when other
	// experiments share the process; the standalone CI smoke step also
	// watches VmHWM. Enforced in full and quick runs alike — the budgets
	// are sizes, not speeds, so they cannot flake on loaded runners.
	heapBudgetMB uint64
	// timeBoxSec bounds the row's wall time in quick mode only (CI smoke:
	// catch accidental O(n·b) memory or O(n²) time regressions without
	// gating full-run performance numbers, which BENCH_pr7.json records).
	timeBoxSec float64
}

// scaleRows returns the sweep: the pipegrid family from 10^3 to 10^6
// events (10^6 full mode only), plus one mesh and one tree-of-rings
// point so the compression is exercised on fabrics with very different
// interior shapes.
func scaleRows() []scaleRow {
	rows := []scaleRow{
		{name: "pipegrid-1e3", heapBudgetMB: 256, timeBoxSec: 60,
			build: func() (*sg.Graph, error) { return gen.PipeGridSized(1_000, 16, 4, 7001) }},
		{name: "pipegrid-1e4", heapBudgetMB: 256, timeBoxSec: 60,
			build: func() (*sg.Graph, error) { return gen.PipeGridSized(10_000, 16, 4, 7002) }},
		{name: "pipegrid-1e5", heapBudgetMB: 512, timeBoxSec: 120,
			build: func() (*sg.Graph, error) { return gen.PipeGridSized(100_000, 16, 4, 7003) }},
	}
	if Quick {
		rows = append(rows,
			scaleRow{name: "mesh-1e4", heapBudgetMB: 256, timeBoxSec: 60,
				build: func() (*sg.Graph, error) { return gen.Mesh(gen.MeshOptions{W: 625, H: 16, Seed: 7004}) }},
			scaleRow{name: "treering-1e4", heapBudgetMB: 256, timeBoxSec: 60,
				build: func() (*sg.Graph, error) {
					return gen.TreeOfRings(gen.TreeRingOptions{Sites: 5, Levels: 9, Fanout: 2, Seed: 7005})
				}},
		)
		return rows
	}
	rows = append(rows,
		scaleRow{name: "pipegrid-1e6", heapBudgetMB: 1024,
			build: func() (*sg.Graph, error) { return gen.PipeGridSized(1_000_000, 16, 4, 7006) }},
		scaleRow{name: "mesh-1e5", heapBudgetMB: 512,
			build: func() (*sg.Graph, error) { return gen.Mesh(gen.MeshOptions{W: 6250, H: 16, Seed: 7007}) }},
		scaleRow{name: "treering-1e5", heapBudgetMB: 512,
			build: func() (*sg.Graph, error) {
				return gen.TreeOfRings(gen.TreeRingOptions{Sites: 6, Levels: 12, Fanout: 2, Seed: 7008})
			}},
	)
	return rows
}

// runSCALE sweeps graph sizes from 10^3 to 10^6 events and, per size,
// (a) runs the hierarchical analysis (macro-compression + paper
// algorithm on the compressed graph + winner expansion), (b) runs the
// flat analysis with the memory-bounded windowed kernel, (c) gates
// that the two λ are bit-identical — all delays are integral, so exact
// equality is the correct expectation, not a tolerance — and (d) gates
// the sampled peak heap of the row against a hard byte budget. The
// 10^6-event point is the headline: pre-PR, pass 1 alone would have
// needed (b+2)·n·9 bytes per in-flight simulation slab (~162 MB each,
// one per worker); the windowed kernel needs two rows (~18 MB total
// across 16 workers), and the hierarchical path analyses a
// few-dozen-event compressed core instead.
func runSCALE(w io.Writer) error {
	tab := textio.New("scalability wall: hierarchical vs flat (windowed) analysis",
		"workload", "n/m/b", "build", "compress ev", "hier λ", "flat λ", "hier ns/ev", "heap peak", "λ bit-eq")
	for _, row := range scaleRows() {
		// Collect the previous row's graph before sampling so each row's
		// peak is attributable to that row alone. Twice: the dead
		// schedule's patch scratch and the hierarchy's sweep scratch sit
		// in sync.Pool victim caches for one extra GC cycle.
		runtime.GC()
		runtime.GC()
		start := time.Now()
		sampler := StartHeapSampler(5 * time.Millisecond)

		g, err := row.build()
		if err != nil {
			sampler.Stop()
			return fmt.Errorf("exp: SCALE %s: build: %w", row.name, err)
		}
		buildT := time.Since(start)

		hierStart := time.Now()
		hres, err := hier.Analyze(g)
		if err != nil {
			sampler.Stop()
			return fmt.Errorf("exp: SCALE %s: hier analyze: %w", row.name, err)
		}
		hierT := time.Since(hierStart)
		if hres.Stats.Fallback {
			sampler.Stop()
			return fmt.Errorf("exp: SCALE %s: compression fell back to flat — family should compress", row.name)
		}
		if len(hres.Critical) == 0 {
			sampler.Stop()
			return fmt.Errorf("exp: SCALE %s: no critical cycle expanded", row.name)
		}

		// Flat differential: auto-windowed pass 1 everywhere; pass 2
		// (critical-cycle extraction) only while its per-winner parent
		// slabs fit the row budget — past that, λ-only is what "flat is
		// feasible" means, and the expanded hierarchical winners stand in
		// for pass 2 (acceptance 2 checks them against flat λ).
		flatStart := time.Now()
		flatLam, err := flatCycleTime(g, g.NumEvents() > 200_000)
		if err != nil {
			sampler.Stop()
			return fmt.Errorf("exp: SCALE %s: flat analyze: %w", row.name, err)
		}
		flatT := time.Since(flatStart)

		heapPeak := sampler.Stop()
		elapsed := time.Since(start)

		// Hard acceptance 1: bit-identical λ, flat vs hierarchical.
		hn, fn := hres.CycleTime.Normalize(), flatLam.Normalize()
		if hn.Num != fn.Num || hn.Den != fn.Den {
			return fmt.Errorf("exp: SCALE %s: λ mismatch: hier %v, flat %v", row.name, hres.CycleTime, flatLam)
		}
		// Hard acceptance 2: every expanded winner attains λ on the flat graph.
		for ci := range hres.Critical {
			if !hres.Critical[ci].Ratio().Equal(flatLam) {
				return fmt.Errorf("exp: SCALE %s: expanded cycle %d ratio %v != λ %v",
					row.name, ci, hres.Critical[ci].Ratio(), flatLam)
			}
		}
		// Hard acceptance 3: the row stayed inside its heap budget.
		if budget := row.heapBudgetMB << 20; heapPeak > uint64(budget) {
			return fmt.Errorf("exp: SCALE %s: peak heap %d MB exceeds budget %d MB",
				row.name, heapPeak>>20, row.heapBudgetMB)
		}
		// Quick-mode time box (CI smoke; full-run timings go to BENCH_pr7.json).
		if Quick && row.timeBoxSec > 0 && elapsed.Seconds() > row.timeBoxSec {
			return fmt.Errorf("exp: SCALE %s: row took %.1fs, time box %.0fs", row.name, elapsed.Seconds(), row.timeBoxSec)
		}

		tab.AddRow(row.name,
			fmt.Sprintf("%d/%d/%d", g.NumEvents(), g.NumArcs(), len(g.BorderEvents())),
			fmt.Sprintf("%.0fms", float64(buildT.Nanoseconds())/1e6),
			fmt.Sprintf("%d (%.5f)", hres.Stats.CompressedEvents, hres.Stats.EventRatio()),
			fmt.Sprintf("%.0fms", float64(hierT.Nanoseconds())/1e6),
			fmt.Sprintf("%.0fms", float64(flatT.Nanoseconds())/1e6),
			fmt.Sprintf("%.1f", float64(hierT.Nanoseconds())/float64(g.NumEvents())),
			fmt.Sprintf("%dMB", heapPeak>>20),
			"yes")
	}
	if err := tab.Render(w); err != nil {
		return err
	}
	if hwm := VmHWMBytes(); hwm > 0 {
		fmt.Fprintf(w, "process VmHWM: %d MB (whole process, all experiments; gated per row on sampled heap)\n", hwm>>20)
	}
	mode := "full"
	if Quick {
		mode = "quick"
	}
	fmt.Fprintf(w, "%s sweep done on %d CPU(s); λ bit-equality and heap budgets held on every row\n",
		mode, runtime.NumCPU())
	return nil
}

// flatCycleTime is SCALE's flat reference λ: a full two-pass analysis,
// or with lambdaOnly an engine's CycleTime, which stops after the
// windowed pass 1.
func flatCycleTime(g *sg.Graph, lambdaOnly bool) (stat.Ratio, error) {
	if lambdaOnly {
		e, err := cycletime.NewEngine(g)
		if err != nil {
			return stat.Ratio{}, err
		}
		return e.CycleTime()
	}
	res, err := cycletime.Analyze(g)
	if err != nil {
		return stat.Ratio{}, err
	}
	return res.CycleTime, nil
}
