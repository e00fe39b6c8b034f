package sg

import (
	"fmt"
	"slices"
	"strings"
)

// ValidationKind classifies the structural problems Validate can report.
type ValidationKind int

// The validation failure classes. They encode the restrictions of §III.A
// of the paper plus the well-formedness conditions of [9] referenced
// there ("there are no repetitive events before disengageable arcs").
const (
	// ErrEmpty: the graph has no events.
	ErrEmpty ValidationKind = iota
	// ErrRepetitiveSource: a repetitive event has no in-arcs; it would
	// have to fire infinitely often at time zero.
	ErrRepetitiveSource
	// ErrUnmarkedCycle: a cycle carries no initial token, so the graph
	// is not live (Commoner et al.: a marked graph is live iff every
	// cycle is marked) and the per-period evaluation order would not
	// exist.
	ErrUnmarkedCycle
	// ErrOnceFromRepetitive: a disengageable arc leaves a repetitive
	// event, violating well-formedness (§III.A).
	ErrOnceFromRepetitive
	// ErrNotOnceFromNonRepetitive: a plain arc leads from a
	// non-repetitive event to a repetitive one; the repetitive target
	// would starve after one token.
	ErrNotOnceFromNonRepetitive
	// ErrRepToNonRep: an arc leads from a repetitive event to a
	// non-repetitive one; the arc would accumulate unboundedly many
	// tokens, violating boundedness (§III.A).
	ErrRepToNonRep
	// ErrMarkedOnce: an arc is both initially marked and disengageable;
	// it would influence the execution twice, contradicting
	// disengageability.
	ErrMarkedOnce
	// ErrCoreNotStronglyConnected: the repetitive events do not form a
	// single strongly connected component (§III.A requires the cyclic
	// part to be connected).
	ErrCoreNotStronglyConnected
)

func (k ValidationKind) String() string {
	switch k {
	case ErrEmpty:
		return "empty graph"
	case ErrRepetitiveSource:
		return "repetitive event without in-arcs"
	case ErrUnmarkedCycle:
		return "cycle without initial marking (graph not live)"
	case ErrOnceFromRepetitive:
		return "disengageable arc from repetitive event"
	case ErrNotOnceFromNonRepetitive:
		return "non-disengageable arc from non-repetitive to repetitive event"
	case ErrRepToNonRep:
		return "arc from repetitive to non-repetitive event (unbounded)"
	case ErrMarkedOnce:
		return "arc both marked and disengageable"
	case ErrCoreNotStronglyConnected:
		return "repetitive events not strongly connected"
	default:
		return fmt.Sprintf("validation kind %d", int(k))
	}
}

// ValidationError describes a structural problem found by Validate.
type ValidationError struct {
	Graph  string
	Kind   ValidationKind
	Events []string // offending events (cycle members, component, arc ends)
	Detail string
}

// Error implements the error interface.
func (e *ValidationError) Error() string {
	msg := fmt.Sprintf("sg: graph %q: %s", e.Graph, e.Kind)
	if len(e.Events) > 0 {
		msg += ": " + strings.Join(e.Events, " -> ")
	}
	if e.Detail != "" {
		msg += " (" + e.Detail + ")"
	}
	return msg
}

// Validate checks the restrictions the paper places on Signal Graphs
// (§III.A) and returns the first violation found, as a *ValidationError.
//
// The checks, in order:
//  1. the graph is non-empty;
//  2. every repetitive event has at least one in-arc;
//  3. per-arc well-formedness (disengageable arcs leave only
//     non-repetitive events; non-repetitive -> repetitive arcs are
//     disengageable; no repetitive -> non-repetitive arcs; no arc is both
//     marked and disengageable);
//  4. the subgraph of unmarked arcs is acyclic (equivalently: every cycle
//     carries a token, so the graph is live and a per-period topological
//     evaluation order exists);
//  5. the repetitive events form one strongly connected component.
func (g *Graph) Validate() error { return g.validate(nil) }

// validate is Validate working in g's workspace, or in a new one if
// work is nil.
func (g *Graph) validate(work []int32) error {
	if len(g.events) == 0 {
		return &ValidationError{Graph: g.name, Kind: ErrEmpty}
	}
	for i, ev := range g.events {
		if ev.Repetitive && len(g.InArcs(EventID(i))) == 0 {
			return &ValidationError{Graph: g.name, Kind: ErrRepetitiveSource,
				Events: []string{ev.Name}}
		}
	}
	for _, a := range g.arcs {
		from, to := &g.events[a.From], &g.events[a.To]
		var kind ValidationKind
		switch {
		case a.Once && from.Repetitive:
			kind = ErrOnceFromRepetitive
		case !a.Once && !from.Repetitive && to.Repetitive:
			kind = ErrNotOnceFromNonRepetitive
		case from.Repetitive && !to.Repetitive:
			kind = ErrRepToNonRep
		case a.Marked && a.Once:
			kind = ErrMarkedOnce
		default:
			continue
		}
		return &ValidationError{Graph: g.name, Kind: kind, Events: []string{from.Name, to.Name}}
	}
	// The period order (Kahn's sort at assemble time) exists exactly
	// when the unmarked subgraph is acyclic; the DFS only names a cycle.
	if g.topoErr != nil {
		return &ValidationError{Graph: g.name, Kind: ErrUnmarkedCycle,
			Events: g.EventNames(g.findCycle(func(a *Arc) bool { return !a.Marked }))}
	}
	// Reachability proves the core connected; Tarjan only names the
	// component the error reports.
	if len(g.repetitive) > 0 && !g.coreConnected(work) {
		comps := g.coreSCCs()
		return &ValidationError{Graph: g.name, Kind: ErrCoreNotStronglyConnected,
			Events: g.EventNames(comps[0]),
			Detail: fmt.Sprintf("%d components", len(comps))}
	}
	return nil
}

// coreConnected reports whether the repetitive events form one strongly
// connected component: whether the first of them reaches every other
// and is reached from every other along arcs between repetitive events.
// It searches forward over the workspace's out-arc targets, then
// backward over the in-arc records, keeping a mark per event and the
// search stack in the workspace (a new one if work is nil).
func (g *Graph) coreConnected(work []int32) bool {
	n := len(g.events)
	if work == nil {
		work = g.workspace()
	}
	const (
		unseen  = iota
		ahead   // reached forward
		behind  // reached forward and backward
		outside // not repetitive
	)
	mark, stack, outTo := work[:n], work[n:n:2*n], work[2*n:]
	for i := range g.events {
		mark[i] = unseen
		if !g.events[i].Repetitive {
			mark[i] = outside
		}
	}
	root := g.repetitive[0]
	mark[root] = ahead
	stack = append(stack, int32(root))
	reached := 1
	for len(stack) > 0 {
		e := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, to := range outTo[g.outOff[e]:g.outOff[e+1]] {
			if to < 0 { // marked
				to = ^to
			}
			if mark[to] == unseen {
				mark[to] = ahead
				stack = append(stack, to)
				reached++
			}
		}
	}
	if reached < len(g.repetitive) {
		return false
	}
	mark[root] = behind
	stack = append(stack, int32(root))
	reached = 1
	for len(stack) > 0 {
		e := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, src := range g.inSrc[g.inOff[e]:g.inOff[e+1]] {
			if mark[src] == ahead {
				mark[src] = behind
				stack = append(stack, int32(src))
				reached++
			}
		}
	}
	return reached == len(g.repetitive)
}

// findCycle returns the events of some cycle made of arcs keep accepts,
// in arc order, or nil if there is none. The depth-first search takes
// start events and out-arcs in ID order, so the cycle it names is
// deterministic.
func (g *Graph) findCycle(keep func(a *Arc) bool) []EventID {
	const (
		white = iota
		gray
		black
	)
	color := make([]int8, len(g.events))
	parent := make([]EventID, len(g.events))
	type frame struct {
		node EventID
		next int // index into the out-arc list
	}
	var stack []frame
	for start := range g.events {
		if color[start] != white {
			continue
		}
		color[start] = gray
		stack = append(stack[:0], frame{EventID(start), 0})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			out := g.OutArcs(f.node)
			if f.next == len(out) {
				color[f.node] = black
				stack = stack[:len(stack)-1]
				continue
			}
			a := &g.arcs[out[f.next]]
			f.next++
			if !keep(a) {
				continue
			}
			switch color[a.To] {
			case white:
				color[a.To] = gray
				parent[a.To] = f.node
				stack = append(stack, frame{a.To, 0})
			case gray:
				// a.To is on the stack: walk the tree back to it.
				cyc := []EventID{a.To}
				for v := f.node; v != a.To; v = parent[v] {
					cyc = append(cyc, v)
				}
				slices.Reverse(cyc)
				return cyc
			}
		}
	}
	return nil
}

// coreSCCs returns the strongly connected components of the repetitive
// subgraph (repetitive events and the arcs between them) in the order
// Tarjan's algorithm, run iteratively, completes them. Validate runs it
// only to name a component of a core that is not connected.
func (g *Graph) coreSCCs() [][]EventID {
	n := len(g.events)
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var (
		comps   [][]EventID
		sccStk  []EventID
		counter int
	)
	type frame struct {
		node EventID
		next int
	}
	var stack []frame
	visit := func(v EventID) {
		index[v], low[v] = counter, counter
		counter++
		sccStk = append(sccStk, v)
		onStack[v] = true
		stack = append(stack, frame{v, 0})
	}
	for _, r := range g.repetitive {
		if index[r] != -1 {
			continue
		}
		visit(r)
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if out := g.OutArcs(f.node); f.next < len(out) {
				to := g.arcs[out[f.next]].To
				f.next++
				switch {
				case !g.events[to].Repetitive:
				case index[to] == -1:
					visit(to)
				case onStack[to]:
					low[f.node] = min(low[f.node], index[to])
				}
				continue
			}
			v := f.node
			stack = stack[:len(stack)-1]
			if len(stack) > 0 {
				p := stack[len(stack)-1].node
				low[p] = min(low[p], low[v])
			}
			if low[v] == index[v] {
				i := len(sccStk) - 1
				for sccStk[i] != v {
					i--
				}
				comp := slices.Clone(sccStk[i:])
				slices.Reverse(comp) // popping order
				for _, w := range comp {
					onStack[w] = false
				}
				sccStk = sccStk[:i]
				comps = append(comps, comp)
			}
		}
	}
	return comps
}
