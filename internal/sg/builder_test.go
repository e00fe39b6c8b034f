package sg_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"tsg/internal/sg"
)

// builderCases cover every builder-level error and every validation
// kind, plus valid graphs whose derived sets (initial, repetitive,
// border, period order) the summary records.
var builderCases = []struct {
	name string
	b    func() *sg.Builder
}{
	{"empty name", func() *sg.Builder { return sg.NewBuilder("g").Events("a+").Event("") }},
	{"duplicate", func() *sg.Builder { return sg.NewBuilder("g").Events("a+", "b+", "a+") }},
	{"duplicate then unknown", func() *sg.Builder {
		return sg.NewBuilder("g").Events("a+", "a+").Arc("a+", "z", 1)
	}},
	{"unknown from", func() *sg.Builder { return sg.NewBuilder("g").Events("a+").Arc("z", "a+", 1) }},
	{"unknown to", func() *sg.Builder { return sg.NewBuilder("g").Events("a+").Arc("a+", "z", 1) }},
	{"unknown both", func() *sg.Builder { return sg.NewBuilder("g").Events("a+").Arc("y", "z", 1) }},
	{"negative delay", func() *sg.Builder { return sg.NewBuilder("g").Events("a+", "b+").Arc("a+", "b+", -1.5) }},
	{"NaN delay", func() *sg.Builder { return sg.NewBuilder("g").Events("a+", "b+").Arc("a+", "b+", math.NaN()) }},
	{"negative then unknown", func() *sg.Builder {
		return sg.NewBuilder("g").Events("a+", "b+").Arc("a+", "b+", -1).Arc("a+", "z", 1)
	}},
	{"empty graph", func() *sg.Builder { return sg.NewBuilder("g") }},
	{"repetitive source", func() *sg.Builder {
		return sg.NewBuilder("g").Events("a+", "b+").Arc("b+", "b+", 1, sg.Marked())
	}},
	{"unmarked cycle", func() *sg.Builder {
		return sg.NewBuilder("g").Events("a+", "b+", "c+").
			Arc("a+", "b+", 1).Arc("b+", "c+", 1).Arc("c+", "b+", 1).Arc("c+", "a+", 1, sg.Marked())
	}},
	{"once from repetitive", func() *sg.Builder {
		return sg.NewBuilder("g").Events("a+", "b+").
			Arc("a+", "b+", 1, sg.Once()).Arc("b+", "a+", 1, sg.Marked())
	}},
	{"plain from non-repetitive", func() *sg.Builder {
		return sg.NewBuilder("g").Event("e-", sg.NonRepetitive()).Events("a+").
			Arc("e-", "a+", 1).Arc("a+", "a+", 1, sg.Marked())
	}},
	{"repetitive to non-repetitive", func() *sg.Builder {
		return sg.NewBuilder("g").Events("a+").Event("f-", sg.NonRepetitive()).
			Arc("a+", "a+", 1, sg.Marked()).Arc("a+", "f-", 1)
	}},
	{"marked and once", func() *sg.Builder {
		return sg.NewBuilder("g").Event("e-", sg.NonRepetitive()).Events("a+").
			Arc("e-", "a+", 1, sg.Marked(), sg.Once()).Arc("a+", "a+", 1, sg.Marked())
	}},
	{"core not strongly connected", func() *sg.Builder {
		return sg.NewBuilder("g").Events("a+", "b+", "c+").
			Arc("a+", "a+", 1, sg.Marked()).Arc("b+", "c+", 1).Arc("c+", "b+", 1, sg.Marked())
	}},
	{"oscillator", oscillatorBuilder},
	{"two rings and a chain", func() *sg.Builder {
		return sg.NewBuilder("rings").
			Event("s", sg.NonRepetitive()).Event("t", sg.NonRepetitive()).
			Events("x+", "x-", "y+", "y-", "z").
			Arc("s", "t", 1).
			Arc("t", "y+", 2, sg.Once()).
			Arc("s", "x-", 1, sg.Once()).
			Arc("x+", "x-", 1).Arc("x-", "y+", 2).Arc("y+", "y-", 3).
			Arc("y-", "x+", 1, sg.Marked()).Arc("y-", "z", 1).Arc("z", "x+", 4, sg.Marked()).
			Arc("x+", "z", 0.5).Arc("z", "y-", 2, sg.Marked())
	}},
}

// describe summarises what Build and BuildUnchecked make of a builder:
// the error strings, or the derived event sets of the graph.
func describe(b func() *sg.Builder) string {
	var s strings.Builder
	if _, err := b().Build(); err != nil {
		fmt.Fprintf(&s, "Build: %v\n", err)
	}
	g, err := b().BuildUnchecked()
	if err != nil {
		fmt.Fprintf(&s, "BuildUnchecked: %v\n", err)
		return s.String()
	}
	order, err := g.PeriodOrder()
	fmt.Fprintf(&s, "initial %v repetitive %v border %v order %v %v\n",
		g.EventNames(g.InitialEvents()), g.EventNames(g.RepetitiveEvents()),
		g.EventNames(g.BorderEvents()), g.EventNames(order), err)
	return s.String()
}

// TestBuilderBehaviourPinned pins what the chaining Builder reports —
// error strings and their precedence, and the derived sets — to the
// answers of the standalone Builder it was rebuilt from. The .tsg
// reader's differential test goes through this Builder, so it cannot
// catch a change here.
func TestBuilderBehaviourPinned(t *testing.T) {
	for _, c := range builderCases {
		got := describe(c.b)
		if want := builderWant[c.name]; got != want {
			t.Errorf("%s:\n got %q\nwant %q", c.name, got, want)
		}
	}
}

var builderWant = map[string]string{
	"empty name":                   "Build: sg: empty event name in graph \"g\"\nBuildUnchecked: sg: empty event name in graph \"g\"\n",
	"duplicate":                    "Build: sg: duplicate event \"a+\" in graph \"g\"\nBuildUnchecked: sg: duplicate event \"a+\" in graph \"g\"\n",
	"duplicate then unknown":       "Build: sg: duplicate event \"a+\" in graph \"g\"\nBuildUnchecked: sg: duplicate event \"a+\" in graph \"g\"\n",
	"unknown from":                 "Build: sg: arc references unknown event \"z\" in graph \"g\"\nBuildUnchecked: sg: arc references unknown event \"z\" in graph \"g\"\n",
	"unknown to":                   "Build: sg: arc references unknown event \"z\" in graph \"g\"\nBuildUnchecked: sg: arc references unknown event \"z\" in graph \"g\"\n",
	"unknown both":                 "Build: sg: arc references unknown event \"y\" in graph \"g\"\nBuildUnchecked: sg: arc references unknown event \"y\" in graph \"g\"\n",
	"negative delay":               "Build: sg: delay -1.5 on arc a+ -> b+ in graph \"g\": want a non-negative delay\nBuildUnchecked: sg: delay -1.5 on arc a+ -> b+ in graph \"g\": want a non-negative delay\n",
	"NaN delay":                    "Build: sg: delay NaN on arc a+ -> b+ in graph \"g\": want a non-negative delay\nBuildUnchecked: sg: delay NaN on arc a+ -> b+ in graph \"g\": want a non-negative delay\n",
	"negative then unknown":        "Build: sg: delay -1 on arc a+ -> b+ in graph \"g\": want a non-negative delay\nBuildUnchecked: sg: delay -1 on arc a+ -> b+ in graph \"g\": want a non-negative delay\n",
	"empty graph":                  "Build: sg: graph \"g\": empty graph\ninitial [] repetitive [] border [] order [] <nil>\n",
	"repetitive source":            "Build: sg: graph \"g\": repetitive event without in-arcs: a+\ninitial [] repetitive [a+ b+] border [b+] order [a+ b+] <nil>\n",
	"unmarked cycle":               "Build: sg: graph \"g\": cycle without initial marking (graph not live): c+ -> b+\ninitial [] repetitive [a+ b+ c+] border [a+] order [] sg: graph \"g\" has an unmarked cycle; no period order exists\n",
	"once from repetitive":         "Build: sg: graph \"g\": disengageable arc from repetitive event: a+ -> b+\ninitial [] repetitive [a+ b+] border [a+] order [a+ b+] <nil>\n",
	"plain from non-repetitive":    "Build: sg: graph \"g\": non-disengageable arc from non-repetitive to repetitive event: e- -> a+\ninitial [e-] repetitive [a+] border [a+] order [e- a+] <nil>\n",
	"repetitive to non-repetitive": "Build: sg: graph \"g\": arc from repetitive to non-repetitive event (unbounded): a+ -> f-\ninitial [] repetitive [a+] border [a+] order [a+ f-] <nil>\n",
	"marked and once":              "Build: sg: graph \"g\": arc both marked and disengageable: e- -> a+\ninitial [e-] repetitive [a+] border [a+] order [e- a+] <nil>\n",
	"core not strongly connected":  "Build: sg: graph \"g\": repetitive events not strongly connected: a+ (2 components)\ninitial [] repetitive [a+ b+ c+] border [a+ b+] order [a+ b+ c+] <nil>\n",
	"oscillator":                   "initial [e-] repetitive [a+ a- b+ b- c+ c-] border [a+ b+] order [e- f- a+ b+ c+ a- b- c-] <nil>\n",
	"two rings and a chain":        "initial [s] repetitive [x+ x- y+ y- z] border [x+ y-] order [s t x+ x- y+ y- z] <nil>\n",
}
