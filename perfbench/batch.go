package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"tsg/internal/cycletime"
	"tsg/internal/dist"
	"tsg/internal/gen"
	"tsg/internal/hier"
	"tsg/internal/mcr"
	"tsg/internal/netlist"
	"tsg/internal/sg"
	"tsg/internal/stat"
	"tsg/internal/timesim"
)

// The batch workload calls the library directly, closed loop, one
// caller: parse + compile + analyze of three graphs, hierarchical
// analysis of the large one, Monte-Carlo on the medium one.

const (
	mcSamples = 256
	mcSeed    = 9
	mcJitter  = 0.1
)

// batchKind is one op kind of the batch.
type batchKind int

const (
	kStack66 batchKind = iota // analyze stack-66 from text
	kRandom2000
	kPipegrid
	kHier // hier.Analyze on pipegrid-1e5
	kMC   // AnalyzeMC on random-2000
	batchKinds
)

// batchRound is how many ops of each kind one round runs. The counts
// put the median op in the random-2000 block and the 90th percentile
// in the hier block, and give each kind a comparable share of time.
var batchRound = [batchKinds]int{kStack66: 10, kRandom2000: 20, kPipegrid: 1, kHier: 6, kMC: 2}

// batchGraph is one graph of the batch with its oracle.
type batchGraph struct {
	name   string
	g      *sg.Graph
	text   []byte
	lambda stat.Ratio // mcr.Howard
}

type batch struct {
	graphs  [3]*batchGraph // stack66, random2000, pipegrid1e5
	model   *dist.Model    // ±10% uniform on random-2000
	mcEng   *cycletime.Engine
	lo, hi  float64 // AnalyzeBounds bracket of the same ±10%
	rng     *rand.Rand
	oracles *tally
}

func setupBatch(seed int64, oracles *tally) (*batch, error) {
	rng := rand.New(rand.NewSource(seed))
	b := &batch{rng: rand.New(rand.NewSource(seed + 1)), oracles: oracles}
	builds := []func() (*sg.Graph, error){
		func() (*sg.Graph, error) { return gen.Stack(31) },
		func() (*sg.Graph, error) {
			return gen.RandomLive(rand.New(rand.NewSource(rng.Int63())),
				gen.RandomOptions{Events: 2000, Border: 8, ExtraArcs: 2000, MaxDelay: 16})
		},
		func() (*sg.Graph, error) { return gen.PipeGridSized(100_000, 16, 4, uint64(rng.Int63())) },
	}
	for i, build := range builds {
		g, err := build()
		if err != nil {
			return nil, fmt.Errorf("generating %s: %w", batchGraphs[i], err)
		}
		var buf bytes.Buffer
		if err := netlist.WriteTSG(&buf, g); err != nil {
			return nil, fmt.Errorf("writing %s: %w", batchGraphs[i], err)
		}
		lam, err := mcr.Howard(g)
		if err != nil {
			return nil, fmt.Errorf("Howard oracle on %s: %w", batchGraphs[i], err)
		}
		b.graphs[i] = &batchGraph{name: batchGraphs[i], g: g, text: buf.Bytes(), lambda: lam}
	}
	r2k := b.graphs[kRandom2000].g
	var err error
	if b.model, err = gen.UniformJitter(r2k, mcJitter); err != nil {
		return nil, fmt.Errorf("MC model: %w", err)
	}
	if b.mcEng, err = cycletime.NewEngine(r2k); err != nil {
		return nil, fmt.Errorf("MC engine: %w", err)
	}
	lo, hi := cycletime.Jitter(mcJitter)
	bounds, err := b.mcEng.AnalyzeBounds(lo, hi)
	if err != nil {
		return nil, fmt.Errorf("MC bounds oracle: %w", err)
	}
	b.lo, b.hi = bounds.Min.Float(), bounds.Max.Float()
	return b, nil
}

// batchTimes is what one traced op measured, by layer.
type batchTimes struct {
	parse, compile, pass1, pass2 time.Duration
	compress, hierAnalyze        time.Duration
	compressedEvents             int
}

// do runs one op; with traced set it splits the op at layer boundaries
// (same work, separately timed calls).
func (b *batch) do(k batchKind, traced bool) (batchTimes, error) {
	var bt batchTimes
	switch k {
	case kStack66, kRandom2000, kPipegrid:
		bg := b.graphs[k]
		t0 := time.Now()
		g, err := netlist.ReadTSG(bytes.NewReader(bg.text))
		if err != nil {
			return bt, fmt.Errorf("parsing %s: %w", bg.name, err)
		}
		t1 := time.Now()
		e, err := cycletime.NewEngine(g)
		if err != nil {
			return bt, fmt.Errorf("compiling %s: %w", bg.name, err)
		}
		t2 := time.Now()
		if traced {
			if _, err := e.CycleTime(); err != nil {
				return bt, fmt.Errorf("pass 1 on %s: %w", bg.name, err)
			}
		}
		t3 := time.Now()
		res, err := e.Analyze()
		if err != nil {
			return bt, fmt.Errorf("analyzing %s: %w", bg.name, err)
		}
		t4 := time.Now()
		bt.parse, bt.compile, bt.pass1, bt.pass2 = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3)
		if !res.CycleTime.Equal(bg.lambda) || len(res.Critical) == 0 {
			return bt, fmt.Errorf("%w: %s λ %s, Howard %s", errWrong, bg.name, res.CycleTime, bg.lambda)
		}
		b.oracles.add("howard")
	case kHier:
		bg := b.graphs[kPipegrid]
		t0 := time.Now()
		c, err := hier.Compress(bg.g)
		if err != nil {
			return bt, fmt.Errorf("compressing %s: %w", bg.name, err)
		}
		t1 := time.Now()
		res, err := c.Analyze(hier.Options{})
		if err != nil {
			return bt, fmt.Errorf("hierarchical analysis of %s: %w", bg.name, err)
		}
		bt.compress, bt.hierAnalyze = t1.Sub(t0), time.Since(t1)
		bt.compressedEvents = c.Stats().CompressedEvents
		if !res.CycleTime.Equal(bg.lambda) {
			return bt, fmt.Errorf("%w: hierarchical λ %s, flat %s", errWrong, res.CycleTime, bg.lambda)
		}
		b.oracles.add("hier-flat")
	case kMC:
		res, err := b.mcEng.AnalyzeMC(b.model, cycletime.MCOptions{
			Samples: mcSamples, Seed: mcSeed, Workers: runtime.GOMAXPROCS(0), Quantiles: []float64{0.05, 0.5, 0.95},
		})
		if err != nil {
			return bt, fmt.Errorf("Monte-Carlo: %w", err)
		}
		if res.Samples != mcSamples {
			return bt, fmt.Errorf("%w: Monte-Carlo drew %d samples, want %d", errWrong, res.Samples, mcSamples)
		}
		for _, v := range []float64{res.Min, res.Max, res.Quantiles[0].Value, res.Quantiles[1].Value, res.Quantiles[2].Value} {
			if v < b.lo || v > b.hi {
				return bt, fmt.Errorf("%w: Monte-Carlo λ %v outside AnalyzeBounds [%v, %v]", errWrong, v, b.lo, b.hi)
			}
		}
		b.oracles.add("mc-bounds")
	}
	return bt, nil
}

// batchOp is one completed op.
type batchOp struct {
	kind batchKind
	lat  time.Duration
	bt   batchTimes
	err  error
}

// roundStat is one round's wall and CPU time.
type roundStat struct {
	wall, cpu time.Duration
	ops       int
}

// loop runs whole rounds, in a seeded order, until dur has passed.
func (b *batch) loop(dur time.Duration, traced bool) ([]batchOp, []roundStat) {
	var round []batchKind
	for k, n := range batchRound {
		for i := 0; i < n; i++ {
			round = append(round, batchKind(k))
		}
	}
	var (
		ops    []batchOp
		rounds []roundStat
	)
	for start := time.Now(); time.Since(start) < dur; {
		b.rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
		cpu0, t0 := cpuTime(), time.Now()
		for _, k := range round {
			t := time.Now()
			bt, err := b.do(k, traced)
			ops = append(ops, batchOp{kind: k, lat: time.Since(t), bt: bt, err: err})
		}
		rounds = append(rounds, roundStat{wall: time.Since(t0), cpu: cpuTime() - cpu0, ops: len(round)})
	}
	return ops, rounds
}

// kernelLayers times the timesim kernels directly on each batch
// graph's compiled Schedule: per origin for the slab and window
// kernels, per 16-sample batch for the batch kernel.
func (b *batch) kernelLayers(vals map[string]float64) error {
	for i, bg := range b.graphs {
		sch, err := timesim.Compile(bg.g)
		if err != nil {
			return fmt.Errorf("compiling schedule of %s: %w", bg.name, err)
		}
		border := bg.g.BorderEvents()
		periods := len(border)
		out := make([]float64, periods)
		var slab, window []float64
		for _, origin := range border {
			t := time.Now()
			tr, err := sch.RunFrom(origin, timesim.Options{Periods: periods + 1})
			if err != nil {
				return fmt.Errorf("RunFrom on %s: %w", bg.name, err)
			}
			slab = append(slab, us(time.Since(t)))
			tr.Release()
			t = time.Now()
			if err := sch.RunFromWindow(origin, periods, out); err != nil {
				return fmt.Errorf("RunFromWindow on %s: %w", bg.name, err)
			}
			window = append(window, us(time.Since(t)))
		}
		vals["timesim.run_from_us."+batchGraphs[i]] = median(slab)
		vals["timesim.run_from_window_us."+batchGraphs[i]] = median(window)
		if batchKind(i) != kRandom2000 {
			continue
		}
		const lanes = 16
		bd := sch.NewBatchDelays(lanes)
		delays := make([]float64, bg.g.NumArcs())
		for s := 0; s < lanes; s++ {
			b.model.SampleInto(mcSeed, uint64(s), delays)
			bd.Set(sch, s, delays)
		}
		rows := make([][]float64, lanes)
		for s := range rows {
			rows[s] = make([]float64, periods)
		}
		var batched []float64
		for _, origin := range border {
			t := time.Now()
			if err := sch.RunFromBatch(origin, bd, periods, rows); err != nil {
				return fmt.Errorf("RunFromBatch on %s: %w", bg.name, err)
			}
			batched = append(batched, us(time.Since(t)))
		}
		vals["timesim.run_from_batch_us"] = median(batched)
	}
	return nil
}
