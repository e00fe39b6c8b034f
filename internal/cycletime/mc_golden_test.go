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

// mcGoldenFile pins the Monte-Carlo outputs of the benchmark graphs bit
// for bit. It was written by mcGoldenReport before the Monte-Carlo
// layer took one λ path; any change to the sampling, the pruning, the
// kernels or the merge order that moves a single bit shows up as a
// diff against it. A change meant to move them replaces the file with
// the report TestMCMatchesGolden prints.
const mcGoldenFile = "testdata/mc_golden.txt"

// mcGoldenReport runs AnalyzeMC (λ only and with criticality) and
// SlacksMC on the 66-event stack and the 2000-event random graph under
// ±10% uniform jitter, with a fixed seed and worker count, and prints
// every float as its bit pattern: λ statistics and quantiles in full,
// the per-arc criticality and slack rows as SHA-256 digests.
func mcGoldenReport(t testing.TB) string {
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
	bits := func(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }
	digest := func(vals []float64) string {
		h := sha256.New()
		for _, v := range vals {
			binary.Write(h, binary.LittleEndian, math.Float64bits(v))
		}
		return fmt.Sprintf("%x", h.Sum(nil))
	}
	stats := func(res *cycletime.MCResult) string {
		s := fmt.Sprintf("n=%d mean=%s var=%s min=%s max=%s meanci=%s",
			res.Samples, bits(res.Mean), bits(res.Variance), bits(res.Min), bits(res.Max), bits(res.MeanCIHalf))
		for _, q := range res.Quantiles {
			s += fmt.Sprintf(" q%g=%s/%s", q.P, bits(q.Value), bits(q.CIHalf))
		}
		return s
	}
	var b strings.Builder
	for _, c := range []struct {
		name string
		g    *sg.Graph
	}{{"stack66", stack}, {"random2000", random}} {
		model, err := gen.UniformJitter(c.g, 0.1)
		if err != nil {
			t.Fatalf("UniformJitter: %v", err)
		}
		opts := cycletime.MCOptions{Samples: 40, Seed: 9, Quantiles: []float64{0.05, 0.5, 0.95}, Workers: 2}
		for _, crit := range []bool{false, true} {
			o := opts
			o.Criticality = crit
			res, err := cycletime.AnalyzeMC(c.g, model, o)
			if err != nil {
				t.Fatalf("%s AnalyzeMC: %v", c.name, err)
			}
			fmt.Fprintf(&b, "%s analyze criticality=%v %s crit=%s\n", c.name, crit, stats(res), digest(res.Criticality))
		}
		rows, res, err := cycletime.SlacksMC(c.g, model, opts)
		if err != nil {
			t.Fatalf("%s SlacksMC: %v", c.name, err)
		}
		var flat []float64
		for _, r := range rows {
			flat = append(flat, float64(r.Arc), r.Mean, r.Std, r.Min, r.Max, r.TightFrac)
		}
		fmt.Fprintf(&b, "%s slacks %s rows=%d slack=%s\n", c.name, stats(res), len(rows), digest(flat))
	}
	return b.String()
}

// TestMCMatchesGolden: the Monte-Carlo outputs of the benchmark graphs
// are bit-identical to the pinned report.
func TestMCMatchesGolden(t *testing.T) {
	want, err := os.ReadFile(mcGoldenFile)
	if err != nil {
		t.Fatalf("reading %s: %v", mcGoldenFile, err)
	}
	if got := mcGoldenReport(t); got != string(want) {
		t.Fatalf("Monte-Carlo outputs moved:\ngot:\n%s\nwant:\n%s", got, want)
	}
}
