package cycletime

import "context"

// WhatIfRows builds the what-if rows of the given arcs (ensureRows) and
// returns them in argument order, for the tests outside the package.
func (e *Engine) WhatIfRows(arcs []int) ([][]float64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.ensureRows(context.Background(), arcs); err != nil {
		return nil, err
	}
	out := make([][]float64, len(arcs))
	for i, ai := range arcs {
		out[i] = e.rows[ai]
	}
	return out, nil
}
