package sg_test

import (
	"errors"
	"math"
	"strings"
	"testing"

	"tsg/internal/sg"
)

// buildOscillator constructs the Timed Signal Graph of Fig. 1b / Fig. 2c
// of the paper: the C-element oscillator. Delays were cross-checked
// against the timing-simulation table of Example 3.
func buildOscillator(t testing.TB) *sg.Graph {
	t.Helper()
	g, err := oscillatorBuilder().Build()
	if err != nil {
		t.Fatalf("oscillator build: %v", err)
	}
	return g
}

func oscillatorBuilder() *sg.Builder {
	return sg.NewBuilder("oscillator").
		Event("e-", sg.NonRepetitive()).
		Event("f-", sg.NonRepetitive()).
		Events("a+", "a-", "b+", "b-", "c+", "c-").
		Arc("e-", "a+", 2, sg.Once()).
		Arc("e-", "f-", 3).
		Arc("f-", "b+", 1, sg.Once()).
		Arc("a+", "c+", 3).
		Arc("b+", "c+", 2).
		Arc("c+", "a-", 2).
		Arc("c+", "b-", 1).
		Arc("a-", "c-", 3).
		Arc("b-", "c-", 2).
		Arc("c-", "a+", 2, sg.Marked()).
		Arc("c-", "b+", 1, sg.Marked())
}

func TestOscillatorStructure(t *testing.T) {
	g := buildOscillator(t)
	if got, want := g.NumEvents(), 8; got != want {
		t.Errorf("NumEvents = %d, want %d", got, want)
	}
	if got, want := g.NumArcs(), 11; got != want {
		t.Errorf("NumArcs = %d, want %d", got, want)
	}
	if got, want := g.TotalMarking(), 2; got != want {
		t.Errorf("TotalMarking = %d, want %d", got, want)
	}
	if got := g.EventNames(g.BorderEvents()); strings.Join(got, ",") != "a+,b+" {
		t.Errorf("border set = %v, want [a+ b+] (Example 7)", got)
	}
	init := g.EventNames(g.InitialEvents())
	if len(init) != 1 || init[0] != "e-" {
		t.Errorf("initial events = %v, want [e-]", init)
	}
	if got, want := len(g.RepetitiveEvents()), 6; got != want {
		t.Errorf("repetitive events = %d, want %d", got, want)
	}
	ev := g.Event(g.MustEvent("a+"))
	if ev.Signal != "a" || ev.Dir != sg.DirRise {
		t.Errorf("a+ parsed as signal=%q dir=%v", ev.Signal, ev.Dir)
	}
	ev = g.Event(g.MustEvent("c-"))
	if ev.Signal != "c" || ev.Dir != sg.DirFall {
		t.Errorf("c- parsed as signal=%q dir=%v", ev.Signal, ev.Dir)
	}
}

func TestEventByName(t *testing.T) {
	g := buildOscillator(t)
	if id, ok := g.EventByName("a+"); !ok || g.Event(id).Name != "a+" {
		t.Errorf("EventByName(a+) = %v, %v", id, ok)
	}
	if _, ok := g.EventByName("zz+"); ok {
		t.Error("EventByName(zz+) unexpectedly found")
	}
}

func TestMustEventPanics(t *testing.T) {
	g := buildOscillator(t)
	defer func() {
		if recover() == nil {
			t.Error("MustEvent on unknown name did not panic")
		}
	}()
	g.MustEvent("nope")
}

func TestBuilderErrors(t *testing.T) {
	cases := []struct {
		name string
		b    *sg.Builder
		want string
	}{
		{"duplicate event", sg.NewBuilder("g").Events("a+", "a+"), "duplicate"},
		{"empty name", sg.NewBuilder("g").Event(""), "empty event name"},
		{"unknown from", sg.NewBuilder("g").Events("a+").Arc("x", "a+", 1), "unknown event"},
		{"unknown to", sg.NewBuilder("g").Events("a+").Arc("a+", "x", 1), "unknown event"},
		{"negative delay", sg.NewBuilder("g").Events("a+", "b+").Arc("a+", "b+", -1), "negative delay"},
		{"NaN delay", sg.NewBuilder("g").Events("a+", "b+").Arc("a+", "b+", math.NaN()), "want a non-negative delay"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.b.Build(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Build() error = %v, want containing %q", err, tc.want)
			}
		})
	}
}

func TestValidationKinds(t *testing.T) {
	cases := []struct {
		name string
		b    *sg.Builder
		kind sg.ValidationKind
	}{
		{
			"empty graph",
			sg.NewBuilder("g"),
			sg.ErrEmpty,
		},
		{
			"repetitive source",
			sg.NewBuilder("g").Events("a+"),
			sg.ErrRepetitiveSource,
		},
		{
			"unmarked cycle",
			sg.NewBuilder("g").Events("a+", "b+").
				Arc("a+", "b+", 1).Arc("b+", "a+", 1),
			sg.ErrUnmarkedCycle,
		},
		{
			"once from repetitive",
			sg.NewBuilder("g").Events("a+", "b+").
				Arc("a+", "b+", 1, sg.Once()).Arc("b+", "a+", 1, sg.Marked()),
			sg.ErrOnceFromRepetitive,
		},
		{
			"plain arc from non-repetitive to repetitive",
			sg.NewBuilder("g").Event("e-", sg.NonRepetitive()).Events("a+").
				Arc("e-", "a+", 1).Arc("a+", "a+", 1, sg.Marked()),
			sg.ErrNotOnceFromNonRepetitive,
		},
		{
			"repetitive to non-repetitive",
			sg.NewBuilder("g").Events("a+").Event("f-", sg.NonRepetitive()).
				Arc("a+", "a+", 1, sg.Marked()).Arc("a+", "f-", 1),
			sg.ErrRepToNonRep,
		},
		{
			"marked and once",
			sg.NewBuilder("g").Event("e-", sg.NonRepetitive()).Events("a+").
				Arc("e-", "a+", 1, sg.Marked(), sg.Once()).
				Arc("a+", "a+", 1, sg.Marked()),
			sg.ErrMarkedOnce,
		},
		{
			"core not strongly connected",
			sg.NewBuilder("g").Events("a+", "b+").
				Arc("a+", "a+", 1, sg.Marked()).
				Arc("b+", "b+", 1, sg.Marked()),
			sg.ErrCoreNotStronglyConnected,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.b.Build()
			var verr *sg.ValidationError
			if !errors.As(err, &verr) {
				t.Fatalf("Build() error = %v, want *ValidationError", err)
			}
			if verr.Kind != tc.kind {
				t.Errorf("validation kind = %v, want %v", verr.Kind, tc.kind)
			}
			if verr.Error() == "" {
				t.Error("empty error message")
			}
		})
	}
}

func TestBuildUncheckedSkipsSemantics(t *testing.T) {
	// An unmarked two-cycle fails Build but not BuildUnchecked.
	b := sg.NewBuilder("g").Events("a+", "b+").
		Arc("a+", "b+", 1).Arc("b+", "a+", 1)
	if _, err := b.Build(); err == nil {
		t.Fatal("Build() succeeded on unmarked cycle")
	}
	b2 := sg.NewBuilder("g").Events("a+", "b+").
		Arc("a+", "b+", 1).Arc("b+", "a+", 1)
	g, err := b2.BuildUnchecked()
	if err != nil {
		t.Fatalf("BuildUnchecked() error: %v", err)
	}
	if g.NumArcs() != 2 {
		t.Errorf("NumArcs = %d, want 2", g.NumArcs())
	}
}

func TestCutSets(t *testing.T) {
	g := buildOscillator(t)
	ids := func(names ...string) []sg.EventID {
		out := make([]sg.EventID, len(names))
		for i, n := range names {
			out[i] = g.MustEvent(n)
		}
		return out
	}
	// Example 7 of the paper.
	for _, set := range [][]string{{"a+", "b+"}, {"c+"}, {"c-"}, {"a-", "b-"}} {
		if !g.IsCutSet(ids(set...)) {
			t.Errorf("IsCutSet(%v) = false, want true (Example 7)", set)
		}
	}
	for _, set := range [][]string{{"a+"}, {"b-"}, {}} {
		if g.IsCutSet(ids(set...)) {
			t.Errorf("IsCutSet(%v) = true, want false", set)
		}
	}
	min, err := g.MinimumCutSet()
	if err != nil {
		t.Fatalf("MinimumCutSet: %v", err)
	}
	if len(min) != 1 {
		t.Fatalf("minimum cut set = %v, want size 1", g.EventNames(min))
	}
	all, err := g.AllMinimumCutSets(0)
	if err != nil {
		t.Fatalf("AllMinimumCutSets: %v", err)
	}
	var names []string
	for _, set := range all {
		names = append(names, strings.Join(g.EventNames(set), "+"))
	}
	got := strings.Join(names, " ")
	if !strings.Contains(got, "c+") || !strings.Contains(got, "c-") || len(all) != 2 {
		t.Errorf("minimum cut sets = %v, want exactly {c+} and {c-} (Example 7)", names)
	}
	if g.MinimumCutSetSize() != 1 {
		t.Errorf("MinimumCutSetSize = %d, want 1", g.MinimumCutSetSize())
	}
}

func TestMarkingTokenGame(t *testing.T) {
	g := buildOscillator(t)
	m := sg.NewMarking(g)

	// Initially only e- is enabled: a+ and b+ wait on unfired
	// disengageable arcs even though their marked in-arcs carry tokens.
	enabled := g.EventNames(m.EnabledEvents())
	if strings.Join(enabled, ",") != "e-" {
		t.Fatalf("initially enabled = %v, want [e-]", enabled)
	}
	if err := m.Fire(g.MustEvent("e-")); err != nil {
		t.Fatalf("Fire(e-): %v", err)
	}
	// Now a+ (marked arc + token from e-) and f- are enabled.
	enabled = g.EventNames(m.EnabledEvents())
	if strings.Join(enabled, ",") != "f-,a+" {
		t.Fatalf("after e-: enabled = %v, want [f- a+]", enabled)
	}
	// e- must not fire twice.
	if err := m.Fire(g.MustEvent("e-")); err == nil {
		t.Error("Fire(e-) twice succeeded, want error")
	}
	if err := m.Fire(g.MustEvent("c-")); err == nil {
		t.Error("Fire(c-) while disabled succeeded, want error")
	}

	// The full token game must complete several periods.
	m2 := sg.NewMarking(g)
	if _, ok := m2.RunPeriods(5, 10_000); !ok {
		t.Error("RunPeriods(5) did not complete on a live graph")
	}
	for _, r := range g.RepetitiveEvents() {
		if m2.Fired(r) < 5 {
			t.Errorf("event %s fired %d times, want >= 5", g.Event(r).Name, m2.Fired(r))
		}
	}
	// Initially-safe oscillator stays safe during execution.
	if m2.MaxTokens() > 1 {
		t.Errorf("MaxTokens = %d after execution, want <= 1", m2.MaxTokens())
	}
}

func TestMarkingClone(t *testing.T) {
	g := buildOscillator(t)
	m := sg.NewMarking(g)
	c := m.Clone()
	if err := m.Fire(g.MustEvent("e-")); err != nil {
		t.Fatalf("Fire: %v", err)
	}
	if c.Fired(g.MustEvent("e-")) != 0 {
		t.Error("Clone shares state with original")
	}
}

func TestWriteDot(t *testing.T) {
	g := buildOscillator(t)
	var sb strings.Builder
	if err := g.WriteDot(&sb); err != nil {
		t.Fatalf("WriteDot: %v", err)
	}
	out := sb.String()
	for _, want := range []string{"digraph", "● 2", "style=dashed", "label=\"a+\""} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
}

func TestGraphString(t *testing.T) {
	g := buildOscillator(t)
	s := g.String()
	for _, want := range []string{"oscillator", "8 events", "11 arcs", "2 tokens"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestTotalDelay(t *testing.T) {
	g := buildOscillator(t)
	if got, want := g.TotalDelay(), 22.0; got != want {
		t.Errorf("TotalDelay = %g, want %g", got, want)
	}
}
