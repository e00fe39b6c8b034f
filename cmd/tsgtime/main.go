// Command tsgtime computes the cycle time and critical cycle of a Timed
// Signal Graph given as a .tsg file.
//
// Usage:
//
//	tsgtime [-algo nielsen|karp|howard|lawler|oracle] [-periods N]
//	        [-series] [-slacks] [-sweep factor] [-dot out.dot]
//	        [-edit arc=delay,...]
//	        [-mc N] [-quantiles p,...] [-criticality] [-mctol tol]
//	        [-mcseed s] [-jitter f] [-trace]
//	        [-serve http://host:port] graph.tsg
//
// The default algorithm is the paper's O(b²m) timing simulation
// ("nielsen"); the alternatives are the classical maximum-cycle-ratio
// baselines and the exponential simple-cycle enumeration oracle.
//
// The nielsen path runs on a tsg.Engine session, so the secondary
// reports reuse the one compiled schedule: -slacks prints the per-arc
// timing slacks certified by the engine's simulation times, and
// -sweep f answers "what is λ if this arc's delay were scaled by f"
// for every arc in one sensitivity sweep, reporting the arcs that move
// the cycle time together with the fast-path statistics.
//
// -edit "arc=delay,arc=delay,…" replays a batch of committed delay
// edits against the session, REPL-style: each edit is applied in order
// and λ is re-reported after it, exercising the paper's edit→analyze
// loop. The engine answers each re-analysis incrementally — only the
// forward cone of the edited arc is re-propagated through the retained
// simulation traces (the statistics line shows full vs incremental
// analyses). The later -slacks and -sweep reports see the edited
// baseline; -mc does NOT — the Monte-Carlo samples are drawn from the
// file's delay-distribution model, which is independent of committed
// point edits (remotely it even analyses under its own fingerprint).
// With -serve the edits commit to the shared server session for this
// graph's fingerprint.
//
// -mc N runs the statistical analysis: N Monte-Carlo samples of the
// file's delay distributions (the ~uniform(lo,hi)-style arc
// annotations; with none, -jitter f applies uniform ±f jitter to every
// delay), reporting λ mean/std/min/max and the -quantiles estimates,
// with an early stop when -mctol is positive. -criticality additionally
// ranks arcs by the fraction of samples in which they lie on a critical
// cycle — the bottleneck list under uncertainty.
//
// -trace records every analysis of the run in an in-process span ring
// and prints the resulting span tree — compile, pass 1 (tier=window,
// or tier=slab once a committed -edit makes the session retain its
// lane traces), lazy pass 2, dirty-cone patches, slack certificates, answer
// tiers — after the reports, so a slow run explains itself. It needs
// the in-process engine and is rejected with -serve (the daemon has
// /debug/trace for the same view).
//
// -serve http://host:port routes the nielsen path through a tsgserved
// daemon instead of analysing in process: the graph is uploaded once
// and every report — analysis, -slacks, -sweep, -mc — is answered by
// the server's shared engine cache. Output is identical to the
// in-process form (the parity test pins it); -series and -periods need
// session-local state and are rejected with -serve.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"tsg"
	"tsg/client"
	"tsg/internal/cycles"
	"tsg/internal/mcr"
	"tsg/internal/obs"
	"tsg/internal/textio"
)

func main() {
	algo := flag.String("algo", "nielsen", "algorithm: nielsen, karp, howard, lawler, oracle")
	periods := flag.Int("periods", 0, "override simulated periods (nielsen only; 0 = border-set size)")
	series := flag.Bool("series", false, "print the per-border-event distance series")
	slacks := flag.Bool("slacks", false, "print per-arc timing slacks (nielsen only)")
	sweep := flag.Float64("sweep", 0, "sweep every arc at delay×factor and report λ changes (nielsen only; 0 = off)")
	edit := flag.String("edit", "", "comma-separated arc=delay commits applied in order, λ re-reported after each (nielsen only)")
	dotOut := flag.String("dot", "", "write the graph in DOT format to this file")
	eps := flag.Float64("eps", 1e-9, "convergence width (lawler only)")
	mcN := flag.Int("mc", 0, "Monte-Carlo samples over the delay distributions (nielsen only; 0 = off)")
	mcSeed := flag.Uint64("mcseed", 1, "Monte-Carlo sample seed")
	mcTol := flag.Float64("mctol", 0, "early-stop tolerance on the λ quantile confidence intervals (0 = run all samples)")
	quantiles := flag.String("quantiles", "0.5,0.95", "comma-separated λ quantiles to estimate")
	criticality := flag.Bool("criticality", false, "rank arcs by Monte-Carlo criticality (fraction of samples on a critical cycle)")
	jitter := flag.Float64("jitter", 0, "apply uniform ±f delay jitter when the file has no distribution annotations")
	serveURL := flag.String("serve", "", "route the nielsen path through a tsgserved daemon at this base URL")
	trace := flag.Bool("trace", false, "print the span tree of every analysis after the reports (nielsen only, in-process)")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tsgtime [flags] graph.tsg")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if *sweep < 0 || math.IsNaN(*sweep) {
		fmt.Fprintf(os.Stderr, "tsgtime: -sweep factor must be positive, got %g\n", *sweep)
		os.Exit(2)
	}
	if *edit != "" && *algo != "nielsen" {
		fmt.Fprintf(os.Stderr, "tsgtime: -edit supports only -algo nielsen, got %q\n", *algo)
		os.Exit(2)
	}
	if *serveURL != "" {
		switch {
		case *algo != "nielsen":
			fmt.Fprintf(os.Stderr, "tsgtime: -serve supports only -algo nielsen, got %q\n", *algo)
			os.Exit(2)
		case *series:
			fmt.Fprintln(os.Stderr, "tsgtime: -series is not available with -serve (the protocol carries no distance series)")
			os.Exit(2)
		case *periods != 0:
			fmt.Fprintln(os.Stderr, "tsgtime: -periods is not available with -serve (the server owns the session options)")
			os.Exit(2)
		case *trace:
			fmt.Fprintln(os.Stderr, "tsgtime: -trace needs the in-process engine; use the daemon's /debug/trace with -serve")
			os.Exit(2)
		}
	}
	g, model, err := tsg.LoadGraphDist(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	fmt.Println(g)

	if *dotOut != "" {
		f, err := os.Create(*dotOut)
		if err != nil {
			fatal(err)
		}
		if err := g.WriteDot(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *dotOut)
	}

	switch *algo {
	case "nielsen":
		var sess session
		var tracer *obs.Tracer
		if *serveURL != "" {
			rs, err := newRemoteSession(*serveURL, g)
			if err != nil {
				fatal(err)
			}
			sess = rs
		} else {
			ctx := context.Background()
			if *trace {
				tracer = obs.NewTracer(obs.DefaultRingSize)
				ctx = obs.WithTracer(ctx, tracer)
			}
			eng, err := tsg.NewEngineOptsCtx(ctx, g, tsg.AnalysisOptions{Periods: *periods})
			if err != nil {
				fatal(err)
			}
			sess = localSession{ctx: ctx, eng: eng}
		}
		res, err := sess.Analyze()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("cycle time λ = %v\n", res.CycleTime)
		for _, c := range res.Critical {
			fmt.Printf("critical cycle (length %g, ε=%d):\n  %s\n", c.Length, c.Period, c.Format(g))
		}
		if *series {
			tab := textio.New("border-event distance series", "event", "δ series", "on critical cycle")
			for _, s := range res.Series {
				tab.AddRow(g.Event(s.Event).Name, fmt.Sprint(s.Distances), s.OnCritical)
			}
			if err := tab.Render(os.Stdout); err != nil {
				fatal(err)
			}
		}
		if *edit != "" {
			if err := runEdits(sess, g, *edit); err != nil {
				fatal(err)
			}
		}
		if *slacks {
			sl, err := sess.Slacks()
			if err != nil {
				fatal(err)
			}
			tab := textio.New("per-arc timing slacks", "arc", "from", "to", "delay", "slack", "tight")
			for _, s := range sl {
				a := g.Arc(s.Arc)
				tab.AddRow(s.Arc, g.Event(a.From).Name, g.Event(a.To).Name, a.Delay, s.Slack, s.Tight)
			}
			if err := tab.Render(os.Stdout); err != nil {
				fatal(err)
			}
		}
		if *sweep > 0 {
			if err := runSweep(sess, g, *sweep); err != nil {
				fatal(err)
			}
		}
		if *mcN > 0 {
			if model.Deterministic() && *jitter > 0 {
				model, err = tsg.JitterUniformModel(g, *jitter)
				if err != nil {
					fatal(err)
				}
			}
			if err := runMC(sess, g, model, *mcN, *mcSeed, *mcTol, *quantiles, *criticality); err != nil {
				fatal(err)
			}
		}
		if tracer != nil {
			fmt.Printf("trace (%d spans recorded):\n", tracer.Recorded())
			obs.WriteTree(os.Stdout, tracer.Snapshot())
		}
	case "karp":
		r, err := mcr.Karp(g)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("cycle time λ = %v (Karp, token-graph reduction)\n", r)
	case "howard":
		r, err := mcr.Howard(g)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("cycle time λ = %v (Howard policy iteration)\n", r)
	case "lawler":
		v, err := mcr.Lawler(g, *eps)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("cycle time λ = %.9g ± %g (Lawler binary search / Burns LP)\n", v, *eps)
	case "oracle":
		r, crit, err := cycles.MaxRatio(g, 0)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("cycle time λ = %v (simple-cycle enumeration)\n", r)
		fmt.Printf("critical cycle: %v (length %g, ε=%d)\n",
			g.EventNames(crit.Events), crit.Length, crit.Tokens)
	default:
		fmt.Fprintf(os.Stderr, "tsgtime: unknown algorithm %q\n", *algo)
		os.Exit(2)
	}
}

// runEdits parses and replays a -edit batch: each arc=delay commit is
// applied to the session in order and λ is re-reported after it, so
// the printed column is the trajectory of the edit→analyze loop. The
// statistics line then shows how many of those re-analyses were
// answered incrementally.
func runEdits(sess session, g *tsg.Graph, spec string) error {
	type delayEdit struct {
		arc   int
		delay float64
	}
	var edits []delayEdit
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		eq := strings.IndexByte(tok, '=')
		if eq < 0 {
			return fmt.Errorf("bad -edit entry %q: want arc=delay", tok)
		}
		arc, err := strconv.Atoi(strings.TrimSpace(tok[:eq]))
		if err != nil {
			return fmt.Errorf("bad -edit arc in %q: %v", tok, err)
		}
		if arc < 0 || arc >= g.NumArcs() {
			return fmt.Errorf("-edit entry %q: arc index out of range [0,%d)", tok, g.NumArcs())
		}
		d, err := strconv.ParseFloat(strings.TrimSpace(tok[eq+1:]), 64)
		if err != nil {
			return fmt.Errorf("bad -edit delay in %q: %v", tok, err)
		}
		if d < 0 || math.IsNaN(d) {
			return fmt.Errorf("-edit entry %q: invalid delay %g", tok, d)
		}
		edits = append(edits, delayEdit{arc: arc, delay: d})
	}
	if len(edits) == 0 {
		return fmt.Errorf("-edit %q contains no edits", spec)
	}
	tab := textio.New(fmt.Sprintf("edit→analyze loop: %d committed edits", len(edits)),
		"#", "arc", "from", "to", "delay", "λ after commit")
	for i, ed := range edits {
		lam, err := sess.Edit(ed.arc, ed.delay)
		if err != nil {
			return fmt.Errorf("edit %d (arc %d = %g): %w", i, ed.arc, ed.delay, err)
		}
		a := g.Arc(ed.arc)
		tab.AddRow(i, ed.arc, g.Event(a.From).Name, g.Event(a.To).Name, ed.delay, lam.String())
	}
	if err := tab.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Println(sess.StatsLine())
	return nil
}

// runSweep asks the engine "what is λ if this arc's delay were scaled
// by factor" for every arc in one sweep, then reports the arcs that
// move the cycle time, most critical first.
func runSweep(sess session, g *tsg.Graph, factor float64) error {
	base, err := sess.Analyze()
	if err != nil {
		return err
	}
	cands := make([]tsg.WhatIf, g.NumArcs())
	for i := range cands {
		cands[i] = tsg.WhatIf{Arc: i, Delay: g.Arc(i).Delay * factor}
	}
	lams, err := sess.Sweep(cands)
	if err != nil {
		return err
	}
	type hit struct {
		arc int
		lam tsg.Ratio
	}
	var moved []hit
	for i, lam := range lams {
		if !lam.Equal(base.CycleTime) {
			moved = append(moved, hit{arc: i, lam: lam})
		}
	}
	// Most interesting first: for a slow-down sweep (factor > 1) the
	// largest resulting λ, for a speed-up sweep the largest reduction.
	sort.Slice(moved, func(i, j int) bool {
		if !moved[i].lam.Equal(moved[j].lam) {
			if factor < 1 {
				return moved[i].lam.Less(moved[j].lam)
			}
			return moved[j].lam.Less(moved[i].lam)
		}
		return moved[i].arc < moved[j].arc
	})
	const maxRows = 25
	tab := textio.New(
		fmt.Sprintf("sensitivity sweep ×%g: %d of %d arcs move λ (showing up to %d)",
			factor, len(moved), len(cands), maxRows),
		"arc", "from", "to", "delay", "×factor", "λ")
	for i, h := range moved {
		if i == maxRows {
			break
		}
		a := g.Arc(h.arc)
		tab.AddRow(h.arc, g.Event(a.From).Name, g.Event(a.To).Name, a.Delay, a.Delay*factor, h.lam.String())
	}
	if err := tab.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Println(sess.StatsLine())
	return nil
}

// runMC runs the Monte-Carlo analysis on the session engine and prints
// the λ distribution summary, the quantile estimates, and (optionally)
// the criticality-ranked bottleneck arcs.
func runMC(sess session, g *tsg.Graph, model *tsg.DelayModel, samples int, seed uint64, tol float64, quantiles string, criticality bool) error {
	var qs []float64
	for _, tok := range strings.Split(quantiles, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		p, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			return fmt.Errorf("bad quantile %q: %v", tok, err)
		}
		qs = append(qs, p)
	}
	if model.Deterministic() {
		fmt.Println("note: all delays are points (no ~ annotations, no -jitter); the Monte-Carlo λ is degenerate")
	}
	res, err := sess.MC(model, tsg.MCOptions{
		Samples: samples, Seed: seed, Quantiles: qs, Tol: tol, Criticality: criticality,
	})
	if err != nil {
		return err
	}
	title := fmt.Sprintf("Monte-Carlo λ over %d samples (%d of %d arcs uncertain",
		res.Samples, model.RandomArcs(), g.NumArcs())
	if res.Converged {
		title += ", converged early"
	}
	title += ")"
	tab := textio.New(title, "statistic", "value")
	tab.AddRow("mean", fmt.Sprintf("%.6g ± %.3g", res.Mean, res.MeanCIHalf))
	tab.AddRow("std", fmt.Sprintf("%.6g", res.Std))
	tab.AddRow("min", fmt.Sprintf("%.6g", res.Min))
	tab.AddRow("max", fmt.Sprintf("%.6g", res.Max))
	for _, q := range res.Quantiles {
		tab.AddRow(fmt.Sprintf("q%.3g", q.P), fmt.Sprintf("%.6g ± %.3g", q.Value, q.CIHalf))
	}
	if err := tab.Render(os.Stdout); err != nil {
		return err
	}
	if criticality {
		type hit struct {
			arc  int
			crit float64
		}
		var hits []hit
		for i, c := range res.Criticality {
			if c > 0 {
				hits = append(hits, hit{i, c})
			}
		}
		sort.Slice(hits, func(i, j int) bool {
			if hits[i].crit != hits[j].crit {
				return hits[i].crit > hits[j].crit
			}
			return hits[i].arc < hits[j].arc
		})
		const maxRows = 25
		ctab := textio.New(
			fmt.Sprintf("arc criticality: %d arcs on a critical cycle in some sample (showing up to %d)",
				len(hits), maxRows),
			"arc", "from", "to", "delay", "criticality")
		for i, h := range hits {
			if i == maxRows {
				break
			}
			a := g.Arc(h.arc)
			delay := model.Dist(h.arc).String()
			if model.Dist(h.arc).IsPoint() {
				delay = fmt.Sprintf("%g", a.Delay)
			}
			ctab.AddRow(h.arc, g.Event(a.From).Name, g.Event(a.To).Name, delay, fmt.Sprintf("%.3f", h.crit))
		}
		if err := ctab.Render(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

func fatal(err error) {
	var unreach *client.UnreachableError
	if errors.As(err, &unreach) {
		fmt.Fprintf(os.Stderr, "tsgtime: server unreachable after %d attempts: %s — is tsgserved running at that address? (%v)\n",
			unreach.Attempts, unreach.URL, unreach.Err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "tsgtime:", err)
	os.Exit(1)
}
