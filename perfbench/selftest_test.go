package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"
)

// TestBenchmarkJSON checks that BENCHMARK.json lists only workloads this
// program runs and exactly the metrics it reports, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	for _, w := range bench.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		var g []metricDef
		for _, m := range got {
			g = append(g, metricDef{m.Name, m.Unit})
		}
		if !reflect.DeepEqual(g, want) {
			t.Errorf("BENCHMARK.json %s\n got %v\nwant %v", what, g, want)
		}
	}
	same("end_to_end", bench.EndToEnd, endToEnd)
	same("per_layer", bench.PerLayer, perLayer)
}

// TestSeeds checks that the seed alone fixes the inputs: the same seed
// gives the same graphs, arrival schedule and op sequence, and another
// seed changes them.
func TestSeeds(t *testing.T) {
	for _, spec := range []*mixSpec{&readMix, &editMix} {
		stream := func(seed int64) string {
			graphs, err := spec.graphs(rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			for _, mg := range graphs {
				b.WriteString(mg.fp)
			}
			for s := 0; s < 2; s++ {
				g := newOpGen(seed, s, 2, spec, graphs)
				for i := 0; i < 300; i++ {
					gap, o := g.next()
					fmt.Fprintf(&b, "%v %+v;", gap, o)
				}
			}
			return b.String()
		}
		if a, b := stream(7), stream(7); a != b {
			t.Errorf("rate %v: seed 7 gave two different input streams", spec.rate)
		}
		if a, b := stream(7), stream(8); a == b {
			t.Errorf("rate %v: seeds 7 and 8 gave the same input stream", spec.rate)
		}
	}
	batchInputs := func(seed int64) string {
		b, err := setupBatch(seed, &tally{})
		if err != nil {
			t.Fatal(err)
		}
		var s strings.Builder
		for _, g := range b.graphs {
			s.Write(g.text)
		}
		return fmt.Sprint(s.String(), b.rng.Perm(100))
	}
	if a, b := batchInputs(3), batchInputs(3); a != b {
		t.Error("batch: seed 3 gave two different inputs")
	}
	if a, b := batchInputs(3), batchInputs(4); a == b {
		t.Error("batch: seeds 3 and 4 gave the same inputs")
	}
}

// TestBriefRuns runs every workload briefly, untraced and traced, and
// checks that every metric is printed with its unit, that end-to-end
// metrics are non-zero, and that every oracle of the workload ran.
func TestBriefRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	wantOracles := map[string][]string{
		"read-mix": {"howard", "sweep"},
		"edit-mix": {"final-replicas"},
		"batch":    {"howard", "hier-flat", "mc-bounds"},
	}
	for name := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := run([]string{"--workload", name, "--seed", "5", "--seconds", "2", "--trace", trace,
					"--data-root", t.TempDir()}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var env struct {
					Host    hostInfo       `json:"host"`
					Oracles map[string]int `json:"oracles"`
				}
				var res result
				if len(lines) != 2 || !strings.HasPrefix(lines[0], "env ") {
					t.Fatalf("want an env line and a result line, got %q", stdout.String())
				}
				if err := json.Unmarshal([]byte(lines[0][4:]), &env); err != nil {
					t.Fatal(err)
				}
				if err := json.Unmarshal([]byte(lines[1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if env.Host.NProc < 1 || env.Host.GOMAXPROCS < 1 || env.Host.GoVersion == "" || env.Host.CPUModel == "" {
					t.Errorf("env line lacks host facts: %+v", env.Host)
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics printed, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", d.Name)
					case m.Unit != d.Unit:
						t.Errorf("metric %s unit %q, want %q", d.Name, m.Unit, d.Unit)
					case trace == "0" && m.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, m.Value)
					}
				}
				for _, o := range wantOracles[name] {
					if env.Oracles[o] == 0 {
						t.Errorf("oracle %s never ran (oracles: %v)", o, env.Oracles)
					}
				}
			})
		}
	}
}
