package gen

import (
	"fmt"

	"tsg/internal/sg"
)

// StackOptions parameterises the asynchronous-stack control graph.
type StackOptions struct {
	// Cells is the stack depth (>= 1). 31 cells give a graph with 66
	// events, matching the size the paper reports for its stack
	// benchmark (§VIII.B).
	Cells int
	// HandshakeDelay is the delay of the four top-interface transitions
	// (default 1).
	HandshakeDelay float64
	// ShiftDelay is the per-cell shift delay (default 1).
	ShiftDelay float64
}

// Stack models the control behaviour of an asynchronous stack with
// constant response time (the structure analysed in §VIII.B; the original
// gate-level design from Kishinevsky et al. [9] is not publicly
// available, so this is a synthetic control graph with the same defining
// property, a constant response time: the cycle time does not grow
// with the number of cells).
//
// The top interface runs a four-phase handshake r+ → a+ → r- → a-; each
// push ripples a shift down the cells concurrently with the
// acknowledgement. Cell k starts its shift (sk+) after the previous cell
// and finishes (sk-) once the cell below has accepted; completion
// dependencies carry a token so that depth adds concurrency, not latency:
// the cycle time stays at the local handshake period regardless of the
// number of cells.
//
// With 31 cells (66 events) the paper's stack had 112 arcs; this model
// has 4·cells+4 = 128. The shape matches: events scale as 2·cells+4.
func Stack(cells int) (*sg.Graph, error) {
	return StackOpts(StackOptions{Cells: cells})
}

// StackOpts builds the stack control graph with explicit delays.
func StackOpts(opts StackOptions) (*sg.Graph, error) {
	n := opts.Cells
	if n < 1 {
		return nil, fmt.Errorf("gen: stack needs >= 1 cell, got %d", n)
	}
	hd, sd := opts.HandshakeDelay, opts.ShiftDelay
	if hd == 0 {
		hd = 1
	}
	if sd == 0 {
		sd = 1
	}
	if hd < 0 || sd < 0 {
		return nil, fmt.Errorf("gen: negative delays (handshake=%g, shift=%g)", hd, sd)
	}
	b := sg.NewBuilder(fmt.Sprintf("stack-%d", n))
	b.Events("r+", "a+", "r-", "a-")
	for k := 1; k <= n; k++ {
		b.Events(s(k)+"+", s(k)+"-")
	}
	// Top handshake: the environment raises the next request once the
	// previous acknowledgement has fallen (marked: a request is pending
	// initially).
	b.Arc("r+", "a+", hd).
		Arc("a+", "r-", hd).
		Arc("r-", "a-", hd).
		Arc("a-", "r+", hd, sg.Marked())
	// The acknowledgement also waits for the top cell having finished
	// its previous shift (marked: cell 1 starts empty and ready).
	b.Arc(s(1)+"-", "a+", sd, sg.Marked())
	// A push starts the shift ripple.
	b.Arc("a+", s(1)+"+", sd)
	for k := 1; k <= n; k++ {
		// Cell k is ready for the next shift once the current one is
		// done (marked: all cells idle initially).
		b.Arc(s(k)+"-", s(k)+"+", sd, sg.Marked())
		if k < n {
			// The shift ripples downward ...
			b.Arc(s(k)+"+", s(k+1)+"+", sd)
			// ... and cell k completes once cell k+1 has accepted the
			// previous item (marked: the cell below starts empty).
			b.Arc(s(k+1)+"-", s(k)+"-", sd, sg.Marked())
		}
		// Local shift work.
		b.Arc(s(k)+"+", s(k)+"-", sd)
	}
	return b.Build()
}

func s(k int) string { return fmt.Sprintf("s%d", k) }
