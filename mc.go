package tsg

import (
	"io"
	"os"

	"tsg/internal/cycletime"
	"tsg/internal/dist"
	"tsg/internal/netlist"
)

// This file exposes the statistical timing subsystem: delay
// distributions, the per-arc DelayModel, and the Monte-Carlo analyses
// (distributional λ and slack distributions) that run on an Engine's
// compiled kernel. The paper's algorithm takes fixed delays; here the
// delays become distributions — the question the statistical-timing
// literature asks — and the compile-once session layer is what makes
// sampling cheap: samples go sixteen at a time through one batch
// pass 1 over the session's compiled schedule, each reading its delays
// from a worker's private delay columns, never a re-Build, a
// re-Compile or a copy of the schedule.
//
//	model := tsg.NewDelayModel(g)                  // all-point: MC == Analyze
//	d, _ := tsg.DistUniform(0.9*nominal, 1.1*nominal)
//	model.SetArc(arc, d)                           // make one arc uncertain
//	model.Correlate(a1, a2, a3)                    // common process variation
//	res, err := e.AnalyzeMC(model, tsg.MCOptions{
//		Samples: 4096, Quantiles: []float64{0.5, 0.95, 0.99},
//		Criticality: true, Tol: 0.01,
//	})
//	// res.Mean, res.Quantiles, res.Criticality[arc] ∈ [0, 1]
//
// See examples/montecarlo for criticality-ranked bottleneck hunting
// under uncertainty, and the .tsg format's ~uniform(lo,hi) arc
// annotations (ReadGraphDist/WriteGraphDist) for persisting models.

// Dist is one arc-delay distribution (point, uniform, truncated normal,
// triangular, or discrete) with a closed-form quantile function.
type Dist = dist.Dist

// DelayModel assigns a distribution to every arc of a graph plus
// optional correlation groups; it is the input to AnalyzeMC/SlacksMC.
type DelayModel = dist.Model

// MCOptions tunes the Monte-Carlo analyses (sample budget, seed,
// quantiles, convergence tolerance, criticality, workers).
type MCOptions = cycletime.MCOptions

// MCResult is the outcome of a Monte-Carlo cycle-time analysis: λ
// mean/variance/min/max, quantile estimates, and per-arc criticality.
type MCResult = cycletime.MCResult

// QuantileEstimate is one estimated λ quantile with its confidence
// half-width.
type QuantileEstimate = cycletime.QuantileEstimate

// ArcSlackStats summarises one arc's slack distribution across the
// Monte-Carlo samples.
type ArcSlackStats = cycletime.ArcSlackStats

// DistPoint returns the degenerate distribution: a certain delay.
func DistPoint(v float64) (Dist, error) { return dist.Point(v) }

// DistUniform returns the uniform distribution on [lo, hi].
func DistUniform(lo, hi float64) (Dist, error) { return dist.Uniform(lo, hi) }

// DistNormal returns a normal distribution truncated to
// [max(0, mean−4σ), mean+4σ].
func DistNormal(mean, sigma float64) (Dist, error) { return dist.Normal(mean, sigma) }

// DistNormalTrunc returns a normal distribution truncated to [lo, hi].
func DistNormalTrunc(mean, sigma, lo, hi float64) (Dist, error) {
	return dist.NormalTrunc(mean, sigma, lo, hi)
}

// DistTriangular returns the triangular distribution on [lo, hi] with
// the given mode.
func DistTriangular(lo, mode, hi float64) (Dist, error) { return dist.Triangular(lo, mode, hi) }

// DistDiscrete returns the empirical distribution taking values[i] with
// probability weights[i]/Σweights.
func DistDiscrete(values, weights []float64) (Dist, error) { return dist.Discrete(values, weights) }

// ParseDist reads the textual distribution syntax used by the .tsg
// format's ~ annotations: uniform(lo,hi), normal(mean,sigma[,lo,hi]),
// tri(lo,mode,hi), choice(v:w,...), point(v).
func ParseDist(s string) (Dist, error) { return dist.Parse(s) }

// NewDelayModel returns the deterministic delay model of the graph:
// every arc a point distribution at its current delay. Monte-Carlo over
// it reproduces the fixed-delay analysis exactly.
func NewDelayModel(g *Graph) *DelayModel {
	m, err := dist.NewModel(nominalDelays(g))
	if err != nil {
		// Unreachable: validated graphs have non-negative delays.
		panic("tsg: delay model over validated graph: " + err.Error())
	}
	return m
}

// JitterUniformModel returns the uniform ±frac jitter model over the
// graph's delays: arc i ~ uniform((1−frac)·d, (1+frac)·d). Its supports
// match AnalyzeBounds(Jitter(frac)) exactly, so the interval analysis
// brackets every Monte-Carlo estimate under this model.
func JitterUniformModel(g *Graph, frac float64) (*DelayModel, error) {
	return dist.JitterUniform(nominalDelays(g), frac)
}

// JitterNormalModel is JitterUniformModel with truncated-normal mass
// concentrated at the nominal delay, on the same ±frac supports.
func JitterNormalModel(g *Graph, frac float64) (*DelayModel, error) {
	return dist.JitterNormal(nominalDelays(g), frac)
}

func nominalDelays(g *Graph) []float64 {
	nominal := make([]float64, g.NumArcs())
	for i := range nominal {
		nominal[i] = g.Arc(i).Delay
	}
	return nominal
}

// AnalyzeMC runs a one-shot Monte-Carlo cycle-time analysis (compile,
// sample, discard). Sessions mixing Monte-Carlo with other queries
// should hold an Engine and call Engine.AnalyzeMC.
func AnalyzeMC(g *Graph, m *DelayModel, opts MCOptions) (*MCResult, error) {
	return cycletime.AnalyzeMC(g, m, opts)
}

// SlacksMC runs a one-shot Monte-Carlo slack-distribution analysis,
// returning per-arc slack statistics over the repetitive core alongside
// the λ statistics of the same run.
func SlacksMC(g *Graph, m *DelayModel, opts MCOptions) ([]ArcSlackStats, *MCResult, error) {
	return cycletime.SlacksMC(g, m, opts)
}

// ReadGraphDist parses a .tsg file together with its optional delay
// annotations (~uniform(lo,hi)-style distributions and @group
// correlation tags on arc lines). Files without annotations yield the
// deterministic all-point model.
func ReadGraphDist(r io.Reader) (*Graph, *DelayModel, error) { return netlist.ReadTSGDist(r) }

// WriteGraphDist serialises a graph in .tsg format with the model's
// non-point distributions and correlation groups as arc annotations;
// ReadGraphDist round-trips the result.
func WriteGraphDist(w io.Writer, g *Graph, m *DelayModel) error {
	return netlist.WriteTSGDist(w, g, m)
}

// LoadGraphDist reads an annotated .tsg file from disk.
func LoadGraphDist(path string) (*Graph, *DelayModel, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return ReadGraphDist(f)
}

// SaveGraphDist writes an annotated .tsg file to disk.
func SaveGraphDist(path string, g *Graph, m *DelayModel) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteGraphDist(f, g, m); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
