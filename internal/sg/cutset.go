package sg

import (
	"fmt"
	"sort"
)

// This file implements the cut-set machinery of §VI.A: a cut set is a set
// of events containing at least one event from every cycle of the Signal
// Graph. The border set (events with a marked in-arc) is always a cut set
// for a live graph and is what the paper's algorithm uses; minimum cut
// sets bound the occurrence period of any simple cycle (Prop. 6) and are
// computed here exactly for small graphs (minimum feedback vertex set).

// IsCutSet reports whether the given events form a cut set: removing them
// from the repetitive subgraph must leave it acyclic. Cycles involve only
// repetitive events, so non-repetitive members are ignored.
func (g *Graph) IsCutSet(set []EventID) bool {
	removed := make([]bool, len(g.events))
	for _, e := range set {
		removed[e] = true
	}
	inCore := func(e EventID) bool { return g.events[e].Repetitive && !removed[e] }
	return g.findCycle(func(a *Arc) bool { return inCore(a.From) && inCore(a.To) }) == nil
}

// findCoreCycle returns a minimum-length (by arc count) cycle of the
// repetitive subgraph avoiding removed events, or nil if none exists.
// The branch-and-bound searches branch over the returned cycle's
// members, so a short cycle keeps the branching factor small.
func (g *Graph) findCoreCycle(removed []bool) []EventID {
	n := len(g.events)
	dist := make([]int, n)
	parent := make([]EventID, n)
	queue := make([]EventID, 0, n)
	var best []EventID
	for _, start := range g.repetitive {
		if removed[start] {
			continue
		}
		// BFS from start; the first arc closing back to start yields
		// the shortest cycle through it.
		for i := range dist {
			dist[i] = -1
			parent[i] = None
		}
		dist[start] = 0
		queue = append(queue[:0], start)
		found := false
		for qi := 0; qi < len(queue) && !found; qi++ {
			v := queue[qi]
			if best != nil && dist[v]+1 >= len(best) {
				continue // cannot beat the best cycle found so far
			}
			for _, ai := range g.OutArcs(v) {
				to := g.arcs[ai].To
				if !g.events[to].Repetitive || removed[to] {
					continue
				}
				if to == start {
					cyc := []EventID{}
					for u := v; u != None; u = parent[u] {
						cyc = append(cyc, u)
					}
					for l, r := 0, len(cyc)-1; l < r; l, r = l+1, r-1 {
						cyc[l], cyc[r] = cyc[r], cyc[l]
					}
					best = cyc
					found = true
					break
				}
				if dist[to] == -1 {
					dist[to] = dist[v] + 1
					parent[to] = v
					queue = append(queue, to)
				}
			}
		}
		if best != nil && len(best) == 1 {
			break // a self-loop cannot be beaten
		}
	}
	return best
}

// MaxCutSetNodes bounds the exact minimum-cut-set search; graphs with
// more repetitive events fall back to the border set (see
// MinimumCutSetSize). Minimum feedback vertex set is NP-hard, and the
// paper itself notes (§VI.B) that its implementation skips the search and
// uses the border set directly.
const MaxCutSetNodes = 64

// MinimumCutSet returns one minimum cut set, found by branch and bound on
// cycles (every cycle must contribute a member). It returns an error when
// the repetitive subgraph exceeds MaxCutSetNodes events.
func (g *Graph) MinimumCutSet() ([]EventID, error) {
	if len(g.repetitive) > MaxCutSetNodes {
		return nil, fmt.Errorf("sg: graph %q has %d repetitive events; exact minimum cut set limited to %d",
			g.name, len(g.repetitive), MaxCutSetNodes)
	}
	best := append([]EventID(nil), g.border...) // valid cut set upper bound
	removed := make([]bool, len(g.events))
	var cur []EventID
	var search func()
	search = func() {
		if len(cur) >= len(best) {
			return
		}
		cyc := g.findCoreCycle(removed)
		if cyc == nil {
			best = append(best[:0:0], cur...)
			return
		}
		for _, v := range cyc {
			removed[v] = true
			cur = append(cur, v)
			search()
			cur = cur[:len(cur)-1]
			removed[v] = false
		}
	}
	search()
	sort.Slice(best, func(i, j int) bool { return best[i] < best[j] })
	return best, nil
}

// AllMinimumCutSets enumerates every cut set of minimum size, up to the
// given cap on the number of sets returned. Example 7 of the paper lists
// {c+} and {c-} as the two minimum cut sets of the oscillator graph.
func (g *Graph) AllMinimumCutSets(cap int) ([][]EventID, error) {
	min, err := g.MinimumCutSet()
	if err != nil {
		return nil, err
	}
	k := len(min)
	var (
		result  [][]EventID
		cur     []EventID
		removed = make([]bool, len(g.events))
		seen    = map[string]bool{}
	)
	var search func(startFrom EventID)
	search = func(startFrom EventID) {
		if cap > 0 && len(result) >= cap {
			return
		}
		cyc := g.findCoreCycle(removed)
		if cyc == nil {
			set := append([]EventID(nil), cur...)
			sort.Slice(set, func(i, j int) bool { return set[i] < set[j] })
			key := fmt.Sprint(set)
			if !seen[key] {
				seen[key] = true
				result = append(result, set)
			}
			return
		}
		if len(cur) == k {
			return
		}
		for _, v := range cyc {
			removed[v] = true
			cur = append(cur, v)
			search(v)
			cur = cur[:len(cur)-1]
			removed[v] = false
		}
	}
	search(None)
	sort.Slice(result, func(i, j int) bool {
		return fmt.Sprint(result[i]) < fmt.Sprint(result[j])
	})
	return result, nil
}

// MinimumCutSetSize returns the size of a minimum cut set when the exact
// search is feasible, and the border-set size otherwise. Prop. 6 bounds
// the occurrence period of any simple cycle by this value; the paper's
// algorithm itself conservatively simulates b = |border| periods.
func (g *Graph) MinimumCutSetSize() int {
	if set, err := g.MinimumCutSet(); err == nil {
		return len(set)
	}
	return len(g.border)
}
