package cycletime_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"tsg/internal/cycletime"
	"tsg/internal/gen"
	"tsg/internal/sg"
)

// whatIfGoldenFile pins the what-if and bounds answers of the benchmark
// graphs bit for bit. It was written by whatIfGoldenReport while
// uncertified what-if decreases and the bounds extremes still ran by
// perturbing the session schedule or a cloned engine; any change to
// those paths that moves a single bit shows up as a diff against it. A
// change meant to move them replaces the file with the report
// TestWhatIfMatchesGolden prints.
const whatIfGoldenFile = "testdata/whatif_golden.txt"

// whatIfGoldenReport runs, on the 66-event stack, the 2000-event random
// graph and that graph with every delay scaled by 0.1, one session
// each: SensitivitySweep of every arc at ×0, ×0.5 and ×0.9 (which
// includes uncertified decreases), then AnalyzeBounds(Jitter(0.1)),
// then λ again. Every ratio prints as the bit pattern of its numerator
// and its denominator. A sweep prints how many candidates' λ differs
// from the session's, a SHA-256 digest over all of them and the
// engine counters after it; bounds print both extremes' λ, per-series
// Best and critical arc lists. With stackOnly set it covers the stack
// alone.
func whatIfGoldenReport(t testing.TB, stackOnly bool) string {
	stack, err := gen.Stack(31)
	if err != nil {
		t.Fatalf("Stack: %v", err)
	}
	random, err := gen.RandomLive(rand.New(rand.NewSource(5)), gen.RandomOptions{
		Events: 2000, Border: 8, ExtraArcs: 2000, MaxDelay: 16,
	})
	if err != nil {
		t.Fatalf("RandomLive: %v", err)
	}
	scaled, err := random.Scaled(0.1)
	if err != nil {
		t.Fatalf("Scaled: %v", err)
	}
	var b strings.Builder
	ratio := func(num float64, den int) string {
		return fmt.Sprintf("%016x/%d", math.Float64bits(num), den)
	}
	stats := func(e *cycletime.Engine) string {
		s := e.Stats()
		return fmt.Sprintf("analyses=%d fast=%d table=%d windowed=%d slab=%d pass2=%d",
			s.Analyses, s.FastPathHits, s.TableAnswers, s.WindowedPass1, s.SlabPass1, s.Pass2Runs)
	}
	result := func(name string, r *cycletime.Result) {
		fmt.Fprintf(&b, "  %s lambda=%s\n", name, ratio(r.CycleTime.Num, r.CycleTime.Den))
		for _, s := range r.Series {
			fmt.Fprintf(&b, "    series %d best=%s k=%d critical=%v\n", s.Event, ratio(s.Best.Num, s.Best.Den), s.BestIndex, s.OnCritical)
		}
		for _, c := range r.Critical {
			fmt.Fprintf(&b, "    cycle period=%d arcs=%v\n", c.Period, c.Arcs)
		}
	}
	graphs := []struct {
		name string
		g    *sg.Graph
	}{{"stack66", stack}, {"random2000", random}, {"random2000x0.1", scaled}}
	if stackOnly {
		graphs = graphs[:1]
	}
	for _, c := range graphs {
		e, err := cycletime.NewEngine(c.g)
		if err != nil {
			t.Fatalf("%s NewEngine: %v", c.name, err)
		}
		lam, err := e.CycleTime()
		if err != nil {
			t.Fatalf("%s CycleTime: %v", c.name, err)
		}
		fmt.Fprintf(&b, "%s lambda=%s\n", c.name, ratio(lam.Num, lam.Den))
		for _, f := range []float64{0, 0.5, 0.9} {
			cands := make([]cycletime.WhatIf, c.g.NumArcs())
			for i := range cands {
				cands[i] = cycletime.WhatIf{Arc: i, Delay: c.g.Arc(i).Delay * f}
			}
			out, err := e.SensitivitySweep(cands)
			if err != nil {
				fmt.Fprintf(&b, "  sweep x%g error: %v\n", f, err)
				continue
			}
			h := sha256.New()
			moved := 0
			for _, r := range out {
				binary.Write(h, binary.LittleEndian, math.Float64bits(r.Num))
				binary.Write(h, binary.LittleEndian, int64(r.Den))
				if r != lam {
					moved++
				}
			}
			fmt.Fprintf(&b, "  sweep x%g moved=%d digest=%x %s\n", f, moved, h.Sum(nil), stats(e))
		}
		lo, hi := cycletime.Jitter(0.1)
		bd, err := e.AnalyzeBounds(lo, hi)
		if err != nil {
			fmt.Fprintf(&b, "  bounds error: %v\n", err)
		} else {
			result("min", bd.MinResult)
			result("max", bd.MaxResult)
			fmt.Fprintf(&b, "  bounds min=%s max=%s %s\n", ratio(bd.Min.Num, bd.Min.Den), ratio(bd.Max.Num, bd.Max.Den), stats(e))
		}
		after, err := e.CycleTime()
		if err != nil {
			t.Fatalf("%s CycleTime after queries: %v", c.name, err)
		}
		fmt.Fprintf(&b, "  after lambda=%s\n", ratio(after.Num, after.Den))
	}
	return b.String()
}

// TestWhatIfMatchesGolden: sweeps (uncertified decreases included) and
// bounds on the benchmark graphs are bit-identical to the pinned
// report, and so are the engine counters they leave. The random graphs
// put about 1600 arcs on every critical cycle, so their sweeps run
// about 9600 λ-only analyses: under the race detector, which only
// slows that sequential arithmetic (about 8 minutes per -cpu value),
// the test checks the stack's section of the report alone.
func TestWhatIfMatchesGolden(t *testing.T) {
	raw, err := os.ReadFile(whatIfGoldenFile)
	if err != nil {
		t.Fatalf("reading %s: %v", whatIfGoldenFile, err)
	}
	want := string(raw)
	if raceEnabled {
		want = want[:strings.Index(want, "\nrandom2000 ")+1]
	}
	if got := whatIfGoldenReport(t, raceEnabled); got != want {
		t.Fatalf("what-if outputs moved:\ngot:\n%s\nwant:\n%s", got, want)
	}
}
