// Package exp implements the reproduction of every table and figure of
// the paper's evaluation (EXPERIMENTS.md is the index). Each
// experiment prints the paper's expected numbers next to the measured
// ones and returns an error when a hard expectation fails, so the
// harness doubles as an acceptance test. cmd/tsgbench runs experiments
// from the command line; bench_test.go wraps each in a testing.B.
package exp

import (
	"fmt"
	"io"
	"sort"
)

// Experiment is one reproducible artefact of the paper.
type Experiment struct {
	// ID is the short handle used by cmd/tsgbench -run (e.g. "TAB8D").
	ID string
	// Title describes the paper artefact being regenerated.
	Title string
	// Run regenerates the artefact, writing tables to w.
	Run func(w io.Writer) error
}

// Quick trims experiments to smoke-test size: fewer iterations and no
// timing gates, keeping only the correctness assertions. CI sets it
// (tsgbench -quick) so the experiment harness can run on loaded shared
// runners without flaking on wall-clock expectations; the recorded
// BENCH numbers always come from full (non-quick) runs. Set before
// running experiments; experiments read it, never write it.
var Quick bool

var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("exp: duplicate experiment " + e.ID)
	}
	registry[e.ID] = e
}

// All returns every experiment in ID order.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID looks an experiment up.
func ByID(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// expect compares a measured value against the paper's and returns an
// error on mismatch; experiments use it for every hard number.
func expect(what string, got, want interface{}) error {
	if fmt.Sprint(got) != fmt.Sprint(want) {
		return fmt.Errorf("exp: %s = %v, paper says %v", what, got, want)
	}
	return nil
}
