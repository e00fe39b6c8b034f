package timesim

import (
	"fmt"
	"math"

	"tsg/internal/sg"
)

// CriticalPath performs the PERT-style analysis the paper relates the
// timing simulation to (§II: "for the acyclic graphs timing simulation
// is analogous to the PERT-analysis"): for a Signal Graph whose events
// are all non-repetitive (a project network), it returns the makespan —
// the latest completion time over all events — and one chain of events
// realising it, in execution order.
//
// Graphs with repetitive events have no finite makespan; analyse them
// with package cycletime instead.
func CriticalPath(g *sg.Graph) (makespan float64, path []sg.EventID, err error) {
	if len(g.RepetitiveEvents()) > 0 {
		return 0, nil, fmt.Errorf("timesim: graph %q has repetitive events; PERT analysis needs an acyclic project network", g.Name())
	}
	tr, err := Run(g, Options{Periods: 1})
	if err != nil {
		return 0, nil, err
	}
	last := sg.None
	makespan = math.Inf(-1)
	for e := 0; e < g.NumEvents(); e++ {
		if v, ok := tr.Time(sg.EventID(e), 0); ok && v > makespan {
			makespan = v
			last = sg.EventID(e)
		}
	}
	if last == sg.None {
		return 0, nil, fmt.Errorf("timesim: graph %q has no events", g.Name())
	}
	// Walk the max-predecessor chain back to a source.
	for e := last; ; {
		path = append(path, e)
		pe, _, _, ok := tr.Parent(e, 0)
		if !ok {
			break
		}
		e = pe
	}
	for l, r := 0, len(path)-1; l < r; l, r = l+1, r-1 {
		path[l], path[r] = path[r], path[l]
	}
	return makespan, path, nil
}
