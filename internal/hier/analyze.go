package hier

import (
	"errors"

	"tsg/internal/cycletime"
	"tsg/internal/sg"
	"tsg/internal/stat"
)

// Options tunes a hierarchical analysis.
type Options struct {
	// Periods overrides the unfolding periods simulated on the
	// compressed graph; 0 means its border-set size, which equals the
	// flat border-set size (compression preserves the border).
	Periods int
}

// Result is the outcome of a hierarchical analysis, in flat-graph terms.
type Result struct {
	// CycleTime is λ. Identical to flat analysis: in exact arithmetic
	// always, bit-for-bit for integral delays.
	CycleTime stat.Ratio
	// Critical holds the expanded flat critical cycles (deduplicated).
	Critical []cycletime.CriticalCycle
	// Series holds the per-border-event distance series with Event
	// remapped to flat IDs. The distances are the compressed engine's —
	// which are the flat engine's, see the package comment.
	Series []cycletime.BorderSeries
	// Periods is the number of unfolding periods simulated.
	Periods int
	// Stats summarises the compression (Fallback set when the graph was
	// analysed flat).
	Stats Stats
}

// Analyze compresses the graph and runs the paper's algorithm on the
// compressed form, expanding the winners back to flat terms. Graphs
// that do not compress (ErrNoGain) are analysed flat.
func Analyze(g *sg.Graph) (*Result, error) { return AnalyzeOpts(g, Options{}) }

// AnalyzeOpts is Analyze with explicit options.
func AnalyzeOpts(g *sg.Graph, opts Options) (*Result, error) {
	c, err := Compress(g)
	if errors.Is(err, ErrNoGain) {
		flat, ferr := cycletime.AnalyzeOpts(g, cycletime.Options{Periods: opts.Periods})
		if ferr != nil {
			return nil, ferr
		}
		return &Result{
			CycleTime: flat.CycleTime,
			Critical:  flat.Critical,
			Series:    flat.Series,
			Periods:   flat.Periods,
			Stats: Stats{FlatEvents: g.NumEvents(), FlatArcs: g.NumArcs(),
				CompressedEvents: g.NumEvents(), CompressedArcs: g.NumArcs(), Fallback: true},
		}, nil
	}
	if err != nil {
		return nil, err
	}
	return c.Analyze(opts)
}

// Analyze runs the compressed analysis and expands the winners.
func (c *Compressed) Analyze(opts Options) (*Result, error) {
	res, err := cycletime.AnalyzeOpts(c.comp, cycletime.Options{Periods: opts.Periods})
	if err != nil {
		return nil, err
	}
	out := &Result{CycleTime: res.CycleTime, Periods: res.Periods, Stats: c.Stats()}
	out.Series = make([]cycletime.BorderSeries, len(res.Series))
	for i, s := range res.Series {
		s.Event = c.toFlat[s.Event]
		out.Series[i] = s
	}
	exps := make([]*cycletime.CriticalCycle, len(res.Critical))
	for i := range res.Critical {
		if exps[i], err = c.ExpandCycle(&res.Critical[i]); err != nil {
			return nil, err
		}
	}
	// Distinct compressed cycles can fold onto the same flat cycle.
	out.Critical = cycletime.DedupeCycles(exps)
	return out, nil
}
