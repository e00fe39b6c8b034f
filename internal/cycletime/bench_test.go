package cycletime_test

import (
	"math/rand"
	"testing"

	"tsg/internal/cycletime"
	"tsg/internal/gen"
	"tsg/internal/sg"
)

// BenchmarkPass1 times a fresh session's λ: NewEngine (compile) plus
// CycleTime, which stops after pass 1, on the three graph shapes of
// the repository benchmark's batch workload — the 66-event stack
// (b = 63), a 2000-event random graph (b = 8) and a 10^5-event
// pipegrid (b = 16).
func BenchmarkPass1(b *testing.B) {
	stack, err := gen.Stack(31)
	if err != nil {
		b.Fatalf("Stack: %v", err)
	}
	random, err := gen.RandomLive(rand.New(rand.NewSource(5)), gen.RandomOptions{
		Events: 2000, Border: 8, ExtraArcs: 2000, MaxDelay: 16,
	})
	if err != nil {
		b.Fatalf("RandomLive: %v", err)
	}
	grid, err := gen.PipeGridSized(100_000, 16, 4, 7003)
	if err != nil {
		b.Fatalf("PipeGridSized: %v", err)
	}
	for _, c := range []struct {
		name string
		g    *sg.Graph
	}{{"stack66", stack}, {"random2000", random}, {"pipegrid1e5", grid}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e, err := cycletime.NewEngine(c.g)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := e.CycleTime(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
