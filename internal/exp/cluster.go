package exp

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	"tsg/client"
	"tsg/internal/cluster"
	"tsg/internal/gen"
	"tsg/internal/netlist"
	"tsg/internal/sg"
)

func init() {
	register(Experiment{
		ID:    "CLUSTER",
		Title: "distributed tier: fingerprint sharding + replica fan-out across 3 nodes; throughput scaling, bit-identical replicas under edits, kill -9 one node with zero failed requests",
		Run:   runCLUSTER,
	})
}

// runCLUSTER is the multi-node proof for the distributed serving tier,
// in three phases against a 3-backend + 1-router topology.
//
// Phase 1 (sharding + replica convergence): durable backends take a
// multi-graph working set through the router. Every graph must land on
// exactly its rendezvous replica set (each replica answers by
// fingerprint directly; non-replicas must not hold it), and after a
// long committed-edit sequence per graph — ≥100 edits total in a full
// run — every replica must answer a λ BIT-IDENTICAL (exact rational)
// to the router's own edit responses, after every single edit.
//
// Phase 2 (throughput scaling): the host has one core, so raw CPU
// cannot show multi-node scaling; instead each backend is wrapped in a
// capacity pacer — a serializing middleware charging a fixed service
// time per /v1 request, the standard single-core-node model — and the
// same warm read traffic is driven through a router over 1 paced node
// and over 3 paced nodes. Aggregate warm throughput over 3 nodes must
// reach ≥ 2.5× the single node (the gate is enforced in full runs and
// recorded in BENCH_pr9.json; quick mode runs the phase without the
// timing gate).
//
// Phase 3 (fault tolerance): with mixed traffic flowing through the
// router, one backend is killed abruptly (listener and store torn down
// mid-flight — the kill -9 moment), later restarted on the same data
// directory and port. Across the whole cycle not one client-visible
// request may fail: reads and writes fail over to the surviving
// replica while the victim is down, and after WAL recovery plus the
// router's journal re-warm the victim must again answer the current
// edited baseline bit-identically.
func runCLUSTER(w io.Writer) error {
	if err := clusterShardingAndConvergence(w); err != nil {
		return err
	}
	if err := clusterThroughput(w); err != nil {
		return err
	}
	return clusterKillRestart(w)
}

// --- working set ---------------------------------------------------------

// clusterGraph is one member of the working set.
type clusterGraph struct {
	name string
	text string
	fp   string
	arcs int
}

func clusterWorkingSet(count int) ([]clusterGraph, error) {
	rng := rand.New(rand.NewSource(94))
	out := make([]clusterGraph, 0, count)
	for i := 0; i < count; i++ {
		var (
			g   *sg.Graph
			err error
		)
		if i%2 == 0 {
			g, err = gen.MullerPipeline(3+i, 1, 2.0+float64(i), 1.0)
		} else {
			g, err = gen.RandomLive(rng, gen.RandomOptions{Events: 80 + 20*i, Border: 4, ExtraArcs: 60, MaxDelay: 12})
		}
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := netlist.WriteTSG(&buf, g); err != nil {
			return nil, err
		}
		out = append(out, clusterGraph{
			name: fmt.Sprintf("graph-%d", i),
			text: buf.String(),
			fp:   sg.Fingerprint(g),
			arcs: g.NumArcs(),
		})
	}
	return out, nil
}

// longHops gives the durable rigs' router a 10s hop timeout.
func longHops(c *cluster.Config) { c.HopTimeout = 10 * time.Second }

// --- phase 1: sharding + bit-identical replicas ---------------------------

func clusterShardingAndConvergence(w io.Writer) error {
	graphCount, editsPerGraph := 5, 24 // 120 edits ≥ the 100-edit bar
	if Quick {
		graphCount, editsPerGraph = 3, 7
	}
	graphs, err := clusterWorkingSet(graphCount)
	if err != nil {
		return err
	}
	rg, err := newRig(3, durableNodes)
	if err != nil {
		return err
	}
	defer rg.close()
	if err := rg.startRouter(nil, longHops); err != nil {
		return err
	}
	urls := rg.urls()
	ctx := context.Background()
	cl := client.New(rg.front.URL)

	fmt.Fprintf(w, "CLUSTER phase 1: sharding + replica convergence (3 nodes, 2 replicas, %d graphs)\n", graphCount)
	for _, g := range graphs {
		up, err := cl.UploadText(ctx, g.text)
		if err != nil {
			return fmt.Errorf("uploading %s through the router: %w", g.name, err)
		}
		if up.Fingerprint != g.fp {
			return fmt.Errorf("%s: router fingerprint %s != local %s", g.name, up.Fingerprint, g.fp)
		}
	}

	// Placement check: every replica answers directly, no non-replica
	// holds the graph (the working set genuinely shards).
	fanned := 0
	for _, g := range graphs {
		placed := cluster.Placement(g.fp, urls, 2)
		inSet := map[string]bool{}
		for _, u := range placed {
			inSet[u] = true
		}
		for _, u := range urls {
			ncl := directClient(u)
			_, err := ncl.Analyze(ctx, client.ByFingerprint(g.fp))
			if inSet[u] && err != nil {
				return fmt.Errorf("%s: replica %s cannot answer after fan-out: %w", g.name, u, err)
			}
			if !inSet[u] && err == nil {
				return fmt.Errorf("%s: non-replica %s holds the graph — no sharding happened", g.name, u)
			}
			if inSet[u] {
				fanned++
			}
		}
	}
	fmt.Fprintf(w, "  upload fan-out: %d replica copies across 3 nodes, non-replicas clean: PASS\n", fanned)

	// The edit walk: after EVERY committed edit, every replica must
	// answer the exact rational λ the router's edit response carried.
	totalEdits, identical := 0, 0
	for gi, g := range graphs {
		ref := client.ByFingerprint(g.fp)
		placed := cluster.Placement(g.fp, urls, 2)
		for e := 0; e < editsPerGraph; e++ {
			arc := (gi + e*3) % g.arcs
			res, err := cl.Edit(ctx, ref, []client.DelayEdit{{Arc: arc, Delay: 1.5 + float64((e*5)%11)}})
			if err != nil {
				return fmt.Errorf("%s edit %d: %w", g.name, e, err)
			}
			totalEdits++
			for _, u := range placed {
				nres, err := directClient(u).Analyze(ctx, ref)
				if err != nil {
					return fmt.Errorf("%s edit %d: replica %s: %w", g.name, e, u, err)
				}
				if nres.Lambda.Num != res.Lambda.Num || nres.Lambda.Den != res.Lambda.Den || nres.Lambda.Text != res.Lambda.Text {
					return fmt.Errorf("%s edit %d: replica %s diverged: λ %s, router said %s",
						g.name, e, u, nres.Lambda.Text, res.Lambda.Text)
				}
				identical++
			}
		}
	}
	fmt.Fprintf(w, "  λ bit-identical across replicas after every edit: %d edits, %d replica checks: PASS\n", totalEdits, identical)
	return nil
}

// --- phase 2: throughput scaling under a per-node capacity model ----------

func clusterThroughput(w io.Writer) error {
	graphCount, workers, totalSingle, totalCluster := 9, 12, 360, 1080
	if Quick {
		graphCount, workers, totalSingle, totalCluster = 3, 6, 60, 120
	}
	graphs, err := clusterWorkingSet(graphCount)
	if err != nil {
		return err
	}

	measure := func(nodes, total int) (float64, error) {
		rg, err := newRig(nodes, pacedNodes)
		if err != nil {
			return 0, err
		}
		defer rg.close()
		if err := rg.startRouter(nil, nil); err != nil {
			return 0, err
		}
		if err := uploadGraphs(client.New(rg.front.URL), graphs); err != nil {
			return 0, err
		}
		// One warm lap, one read per graph, outside the timed window
		// (compiles are real work the pacer does not model; the gate is
		// about WARM serving).
		if err := readLoad(rg.front.URL, graphs, 1, len(graphs), 0).run().check("in the warm lap"); err != nil {
			return 0, err
		}
		res := readLoad(rg.front.URL, graphs, workers, total/workers, 0).run()
		if err := res.check("in the timed drive"); err != nil {
			return 0, err
		}
		return float64(res.ops) / res.elapsed.Seconds(), nil
	}

	single, err := measure(1, totalSingle)
	if err != nil {
		return fmt.Errorf("single-node throughput: %w", err)
	}
	triple, err := measure(3, totalCluster)
	if err != nil {
		return fmt.Errorf("3-node throughput: %w", err)
	}
	ratio := triple / single
	fmt.Fprintf(w, "CLUSTER phase 2: warm read throughput, per-node capacity model (%.0fms service time, %d workers, %d graphs)\n",
		pacedService.Seconds()*1e3, workers, graphCount)
	fmt.Fprintf(w, "  1 node:  %7.1f req/s\n", single)
	fmt.Fprintf(w, "  3 nodes: %7.1f req/s  (%.2fx aggregate; acceptance in BENCH_pr9.json: >= 2.5x)\n", triple, ratio)
	if !Quick && ratio < 2.5 {
		return fmt.Errorf("3-node aggregate throughput %.2fx the single node, want >= 2.5x", ratio)
	}
	return nil
}

// --- phase 3: kill -9 one node under traffic ------------------------------

func clusterKillRestart(w io.Writer) error {
	graphCount := 4
	trafficFor := 2 * time.Second
	if Quick {
		graphCount = 2
		trafficFor = 800 * time.Millisecond
	}
	graphs, err := clusterWorkingSet(graphCount)
	if err != nil {
		return err
	}
	rg, err := newRig(3, durableNodes)
	if err != nil {
		return err
	}
	defer rg.close()
	if err := rg.startRouter(nil, longHops); err != nil {
		return err
	}
	urls := rg.urls()
	if err := uploadGraphs(client.New(rg.front.URL), graphs); err != nil {
		return err
	}

	// The victim is graph 0's primary, so the kill hits a write path,
	// not just a read replica.
	victimURL := cluster.Placement(graphs[0].fp, urls, 2)[0]
	var victim *expNode
	for _, n := range rg.nodes {
		if n.url() == victimURL {
			victim = n
		}
	}

	// Mixed traffic through the router with the client's default retry
	// policy — the contract under test is "zero failed requests across
	// the kill/restart cycle".
	stopAll := mixedLoad(rg.front.URL, graphs, 4, 10*time.Millisecond)
	time.Sleep(trafficFor / 4)
	victim.kill() // mid-flight, no drain
	killAt := time.Now()
	time.Sleep(trafficFor / 2)
	if err := victim.boot(); err != nil {
		stopAll()
		return fmt.Errorf("restarting victim: %w", err)
	}
	// Wait for re-admission before ending traffic, so the window covers
	// the node's return too.
	if err := awaitHealthy(rg.router, victimURL, 10*time.Second); err != nil {
		stopAll()
		return fmt.Errorf("victim never re-admitted after restart: %w", err)
	}
	time.Sleep(trafficFor / 4)
	res := stopAll()
	if err := res.check("across the kill/restart cycle"); err != nil {
		return err
	}
	// The restarted node must converge back to the current baseline:
	// every replica, the victim included, answers bit-identically to
	// the routed answer. The router's warm pass runs in the background.
	if err := convergedReplicas(rg.router, rg.front.URL, graphs, 10*time.Second); err != nil {
		return fmt.Errorf("restarted node: %w", err)
	}
	fmt.Fprintf(w, "CLUSTER phase 3: kill -9 %s %.1fs into traffic, restart on same dir/port\n", victimURL, time.Since(killAt).Seconds())
	fmt.Fprintf(w, "  %d requests through the router, 0 failed; restarted node re-admitted, every replica of the %d graphs bit-identical: PASS\n",
		res.ops, len(graphs))
	return nil
}
