package sg

import "fmt"

// Marking is a mutable token configuration of a Signal Graph: the "token
// game" execution semantics of §III.A. An event is enabled when every
// live in-arc carries at least one token; firing it consumes one token
// per in-arc and produces one per out-arc. Disengageable arcs die after
// their single influence; non-repetitive events fire at most once.
//
// Marking is used by liveness and boundedness analyses and by property
// tests; the timing analysis itself works on the unfolding and never
// materialises markings.
type Marking struct {
	g      *Graph
	tokens []int  // per arc
	spent  []bool // per arc: disengageable arc already consumed
	fired  []int  // per event: occurrence count
}

// NewMarking returns the initial marking of g.
func NewMarking(g *Graph) *Marking {
	m := &Marking{
		g:      g,
		tokens: make([]int, len(g.arcs)),
		spent:  make([]bool, len(g.arcs)),
		fired:  make([]int, len(g.events)),
	}
	for i, a := range g.arcs {
		if a.Marked {
			m.tokens[i] = 1
		}
	}
	return m
}

// Graph returns the underlying graph.
func (m *Marking) Graph() *Graph { return m.g }

// Tokens returns the token count on arc i.
func (m *Marking) Tokens(i int) int { return m.tokens[i] }

// Fired returns how many times event e has fired.
func (m *Marking) Fired(e EventID) int { return m.fired[e] }

// Enabled reports whether event e may fire: e is repetitive or has not
// fired yet, and every in-arc that is still alive carries a token.
// A dead (spent) disengageable arc no longer constrains its target.
func (m *Marking) Enabled(e EventID) bool {
	if !m.g.events[e].Repetitive && m.fired[e] > 0 {
		return false
	}
	for _, ai := range m.g.InArcs(e) {
		a := m.g.arcs[ai]
		if a.Once && m.spent[ai] {
			continue
		}
		if m.tokens[ai] == 0 {
			// An unfired disengageable arc without a token still blocks:
			// its single token has not been produced yet.
			return false
		}
	}
	return true
}

// Fire fires event e, updating the marking. It returns an error if e is
// not enabled.
func (m *Marking) Fire(e EventID) error {
	if !m.Enabled(e) {
		return fmt.Errorf("sg: event %q is not enabled", m.g.events[e].Name)
	}
	for _, ai := range m.g.InArcs(e) {
		a := m.g.arcs[ai]
		if a.Once && m.spent[ai] {
			continue
		}
		m.tokens[ai]--
		if a.Once {
			m.spent[ai] = true
		}
	}
	for _, ai := range m.g.OutArcs(e) {
		m.tokens[ai]++
	}
	m.fired[e]++
	return nil
}

// EnabledEvents returns all currently enabled events in ID order.
func (m *Marking) EnabledEvents() []EventID {
	var out []EventID
	for i := range m.g.events {
		if m.Enabled(EventID(i)) {
			out = append(out, EventID(i))
		}
	}
	return out
}

// MaxTokens returns the largest token count currently on any arc.
func (m *Marking) MaxTokens() int {
	max := 0
	for _, t := range m.tokens {
		if t > max {
			max = t
		}
	}
	return max
}

// Clone returns an independent copy of the marking.
func (m *Marking) Clone() *Marking {
	c := &Marking{
		g:      m.g,
		tokens: append([]int(nil), m.tokens...),
		spent:  append([]bool(nil), m.spent...),
		fired:  append([]int(nil), m.fired...),
	}
	return c
}

// RunPeriods plays the token game greedily (firing every enabled event
// in rounds) until every repetitive event has fired at least `periods`
// times, or `maxSteps` firings have happened. It reports the number of
// firings performed and whether the target was reached. Used by liveness
// smoke tests: a validated graph must complete any number of periods.
func (m *Marking) RunPeriods(periods, maxSteps int) (steps int, ok bool) {
	for steps < maxSteps {
		done := true
		for _, r := range m.g.repetitive {
			if m.fired[r] < periods {
				done = false
				break
			}
		}
		if done {
			return steps, true
		}
		progressed := false
		for i := range m.g.events {
			e := EventID(i)
			// Avoid running far ahead: keep the execution near-periodic.
			if m.g.events[i].Repetitive && m.fired[e] >= periods {
				continue
			}
			if m.Enabled(e) {
				if err := m.Fire(e); err == nil {
					steps++
					progressed = true
				}
			}
		}
		if !progressed {
			return steps, false
		}
	}
	return steps, false
}
