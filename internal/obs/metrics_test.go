package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeExposition(t *testing.T) {
	r := NewRegistry()
	c := NewCounter("test_requests_total", "Requests seen.")
	c.Inc()
	c.Add(4)
	fn := Func{
		D: Desc{Name: "test_info", Help: "Build info.", Type: "gauge", Labels: []string{"version"}},
		Fn: func(emit func([]string, float64)) {
			emit([]string{`v1 with "quotes" and \slash`}, 1)
		},
	}
	r.MustRegister(c, fn)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP test_requests_total Requests seen.",
		"# TYPE test_requests_total counter",
		"test_requests_total 5",
		`test_info{version="v1 with \"quotes\" and \\slash"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// The whole output must pass our own linter.
	problems, err := Lint(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 0 {
		t.Fatalf("linter problems in registry output: %v", problems)
	}
}

func TestHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := NewHistogram("test_latency_seconds", "Latency.", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	hv := NewHistogramVec("test_phase_seconds", "Phase durations.", []float64{0.001, 1}, "phase")
	hv.With("pass1").Observe(0.0005)
	hv.With("pass2").Observe(2)
	r.MustRegister(h, hv)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE test_latency_seconds histogram",
		`test_latency_seconds_bucket{le="0.01"} 1`,
		`test_latency_seconds_bucket{le="0.1"} 3`,
		`test_latency_seconds_bucket{le="1"} 4`,
		`test_latency_seconds_bucket{le="+Inf"} 5`,
		"test_latency_seconds_count 5",
		`test_phase_seconds_bucket{phase="pass1",le="0.001"} 1`,
		`test_phase_seconds_bucket{phase="pass2",le="+Inf"} 1`,
		`test_phase_seconds_count{phase="pass1"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if h.Count() != 5 {
		t.Fatalf("histogram count %d, want 5", h.Count())
	}
	problems, err := Lint(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 0 {
		t.Fatalf("linter problems: %v", problems)
	}
	// Parse the output back and check sums survive the round trip.
	fams, _, err := Parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	sum, ok := FindSample(fams, "test_latency_seconds_sum", nil)
	if !ok || math.Abs(sum-5.605) > 1e-9 {
		t.Fatalf("sum round trip: got %v ok=%v", sum, ok)
	}
}

func TestConcurrentMetricUpdates(t *testing.T) {
	c := NewCounter("c_total", "c")
	h := NewHistogram("h_seconds", "h", LatencyBuckets)
	hv := NewHistogramVec("hv_seconds", "hv", LatencyBuckets, "k")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(float64(i%100) / 1000)
				hv.With("shared").Observe(0) // the labelled-series map path
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter %d, want 8000", c.Value())
	}
	if h.Count() != 8000 {
		t.Fatalf("histogram count %d, want 8000", h.Count())
	}
	if n := hv.With("shared").Count(); n != 8000 {
		t.Fatalf("labelled histogram count %d, want 8000", n)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.MustRegister(NewCounter("dup_total", "a"))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate family")
		}
	}()
	r.MustRegister(NewCounter("dup_total", "b"))
}
