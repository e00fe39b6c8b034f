package exp

import (
	"fmt"
	"io"
	"slices"
	"time"

	"tsg/client"
	"tsg/internal/cluster"
	"tsg/internal/fault"
)

func init() {
	register(Experiment{
		ID:    "CHAOS2",
		Title: "network-fault drills through the deterministic fault harness: straggler node vs hedged reads, flaky node vs circuit breaker, asymmetric partition vs request-path ejection, membership churn under load — zero failed client requests everywhere",
		Run:   runCHAOS2,
	})
}

// runCHAOS2 drives the router's resilience stack through four scripted
// network-fault scenarios, each injected by internal/fault's
// deterministic transport on the router's own backend hops (the same
// -fault-plan machinery tsgrouter exposes). The common hard gate is the
// distributed tier's contract: not one client-visible request may fail
// in any scenario, and replicas must be bit-identical after the fault
// heals.
//
// Scenario 1 (straggler node vs hedged reads): one backend serves a
// slice of its responses 120ms late — the classic tail-latency
// straggler, too slow to tolerate, too healthy for health checks or
// breakers (every hop still succeeds). Unhedged, those stragglers land
// in the p99 untouched; with hedged reads the router fires a backup
// attempt at its adaptive delay (p95 of recent hop latency) and takes
// whichever replica answers first. Full-run gate: hedged p99 ≤ 3× the
// healthy baseline p99 (floored at 2× the minimum hedge delay — below
// that the comparison measures scheduler noise, not hedging), against
// an unhedged contrast run whose worst read absorbs the full injected
// latency (p2c steering dodges most straggles, but the read that
// triggers one has no rescue without a hedge).
//
// Scenario 2 (flaky node vs circuit breaker): one backend's
// connections reset with probability 0.45 — declared through the
// fault-plan DSL, exactly as a shell drill would write it. The
// breaker's request-failure streak must trip at least once; failover
// plus the retry budget keep every client request whole; after the
// plan moves to its healed phase the replicas must converge
// bit-identically.
//
// Scenario 3 (asymmetric partition vs request-path ejection): the
// router's /v1 responses from one backend are dropped while its
// /healthz probe path stays perfect — the router-sees-failure,
// prober-sees-health split that pure probe counting can never eject.
// Only the breaker's probe-unclearable request-failure streak takes
// the node out (the gate asserts the trip); dropped-response writes
// that committed on the backend before the response vanished are
// re-sent on failover and absorbed by the (client, seq) dedupe. After
// heal, replicas must again be bit-identical.
//
// Scenario 4 (membership churn under load): with sustained edit+read
// traffic flowing, a fourth backend joins via ReloadNodes (it must
// earn admission through probe → half-open → warm-sync before taking
// reads) and then an original member is removed (its shard re-hashes
// to survivors while in-flight requests drain). Zero failed requests
// across both transitions; every graph's current replica set answers
// bit-identically afterwards.
func runCHAOS2(w io.Writer) error {
	if err := chaosStragglerHedge(w); err != nil {
		return fmt.Errorf("straggler/hedge: %w", err)
	}
	if err := chaosFlakyBreaker(w); err != nil {
		return fmt.Errorf("flaky/breaker: %w", err)
	}
	if err := chaosAsymmetricPartition(w); err != nil {
		return fmt.Errorf("asymmetric partition: %w", err)
	}
	if err := chaosMembershipChurn(w); err != nil {
		return fmt.Errorf("membership churn: %w", err)
	}
	return nil
}

// --- scenario 1: straggler node vs hedged reads ---------------------------

func chaosStragglerHedge(w io.Writer) error {
	const (
		straggle = 120 * time.Millisecond
		// Each worker pauses between reads so the router's pick-time
		// in-flight signal stays realistic instead of saturating.
		pause = 2 * time.Millisecond
	)
	graphCount, workers, warmReads, measuredReads := 5, 6, 600, 2400
	if Quick {
		graphCount, workers, warmReads, measuredReads = 3, 4, 120, 400
	}
	graphs, err := clusterWorkingSet(graphCount)
	if err != nil {
		return err
	}

	measure := func(disableHedge bool) (base, slow, slowMax time.Duration, st cluster.ClusterStatus, err error) {
		rg, err := newRig(3, memNodes)
		if err != nil {
			return 0, 0, 0, st, err
		}
		defer rg.close()
		// The straggler: graph 0's primary — hot on both read and write
		// paths — answers 8% of its /v1 responses 120ms late. Every hop
		// still SUCCEEDS: probes stay green, the breaker stays closed,
		// only the latency distribution degrades.
		victim := cluster.Placement(graphs[0].fp, rg.urls(), 2)[0]
		plan := fault.NewPlan(1071).Phases("baseline", "slow").Add(fault.Rule{
			Name: "straggle", Node: victim, Route: "/v1/*",
			Phase: "slow", Prob: 0.08, Kind: fault.KindLatency, Latency: straggle,
		})
		if err := rg.startRouter(plan, func(c *cluster.Config) { c.DisableHedge = disableHedge }); err != nil {
			return 0, 0, 0, st, err
		}
		if err := uploadGraphs(client.New(rg.front.URL), graphs); err != nil {
			return 0, 0, 0, st, err
		}

		baseRes := readLoad(rg.front.URL, graphs, workers, warmReads/workers, pause).run()
		if err := baseRes.check("in the baseline read drive"); err != nil {
			return 0, 0, 0, st, err
		}
		plan.AdvancePhase()
		slowRes := readLoad(rg.front.URL, graphs, workers, measuredReads/workers, pause).run()
		if err := slowRes.check("in the slow-phase read drive"); err != nil {
			return 0, 0, 0, st, err
		}
		return quantile(baseRes.lat, 99), quantile(slowRes.lat, 99), slices.Max(slowRes.lat), routerStatus(rg.router), nil
	}

	base, hedged, _, st, err := measure(false)
	if err != nil {
		return err
	}
	_, unhedged, unhedgedMax, _, err := measure(true)
	if err != nil {
		return fmt.Errorf("unhedged contrast: %w", err)
	}

	// Below 2× the minimum hedge delay the comparison measures
	// scheduler noise, not hedging; the floor keeps the gate meaningful
	// on in-memory backends whose healthy p99 is sub-millisecond.
	floor := 2 * time.Millisecond
	bar := 3 * max(base, floor)
	fmt.Fprintf(w, "CHAOS2 scenario 1: straggler node (8%% of hops +%v) vs hedged reads (%d reads, %d workers)\n",
		straggle, measuredReads, workers)
	fmt.Fprintf(w, "  healthy baseline p99 %v; straggler p99: hedged %v (gate <= %v), unhedged %v (max %v)\n", base, hedged, bar, unhedged, unhedgedMax)
	fmt.Fprintf(w, "  hedges launched %d, won %d, suppressed by budget %d, adaptive delay %.2fms\n",
		st.HedgeAttempts, st.HedgeWins, st.HedgeDenied, st.HedgeDelayMs)
	if st.HedgeAttempts == 0 {
		return fmt.Errorf("no hedge was ever launched against the straggler")
	}
	if !Quick {
		if hedged > bar {
			return fmt.Errorf("hedged straggler p99 %v, want <= 3x healthy baseline (%v)", hedged, bar)
		}
		// Gate the contrast on the worst read, not its p99: p2c inflight
		// steering legitimately dodges most straggles (a stalled hop parks
		// inflight on the victim, steering followers to the other replica),
		// but the read that TRIGGERS a straggle always eats the full delay
		// — and without hedging nothing rescues it.
		if unhedgedMax < straggle {
			return fmt.Errorf("unhedged contrast worst read %v never saw the straggler (want >= %v) — the scenario is not exercising the tail", unhedgedMax, straggle)
		}
	}
	fmt.Fprintf(w, "  zero failed requests, hedging holds the tail: PASS\n")
	return nil
}

// --- scenario 2: flaky node vs circuit breaker ----------------------------

func chaosFlakyBreaker(w io.Writer) error {
	graphCount, stormFor := 4, 1200*time.Millisecond
	if Quick {
		graphCount, stormFor = 3, 500*time.Millisecond
	}
	graphs, err := clusterWorkingSet(graphCount)
	if err != nil {
		return err
	}
	rg, err := newRig(3, memNodes)
	if err != nil {
		return err
	}
	defer rg.close()
	victim := cluster.Placement(graphs[0].fp, rg.urls(), 2)[0]
	// The drill is declared through the DSL — the same text a shell
	// chaos script would hand tsgrouter -fault-plan.
	plan, err := fault.ParsePlan(fmt.Sprintf(
		"seed 1094\nphases calm storm healed\nfault reset route=/v1/* prob=0.45 phase=storm node=%s\n", victim))
	if err != nil {
		return fmt.Errorf("parsing DSL plan: %w", err)
	}
	if err := rg.startRouter(plan, nil); err != nil {
		return err
	}
	if err := uploadGraphs(client.New(rg.front.URL), graphs); err != nil {
		return err
	}
	if err := plan.SetPhase("storm"); err != nil {
		return err
	}

	stopAll := mixedLoad(rg.front.URL, graphs, 3, 8*time.Millisecond)
	time.Sleep(stormFor)
	ns, ok := nodeStatus(rg.router, victim)
	if err := plan.SetPhase("healed"); err != nil {
		stopAll()
		return err
	}
	time.Sleep(stormFor / 4) // cover the heal transition under load too
	res := stopAll()

	if !ok {
		return fmt.Errorf("victim %s missing from /debug/cluster", victim)
	}
	fmt.Fprintf(w, "CHAOS2 scenario 2: flaky node (45%% connection resets, DSL plan) under %d requests of mixed load\n", res.ops)
	fmt.Fprintf(w, "  breaker trips on %s: %d (state at peak: %s); failed client requests: %d\n", victim, ns.Trips, ns.Breaker, res.failed)
	if err := res.check("in the storm"); err != nil {
		return err
	}
	if ns.Trips == 0 {
		return fmt.Errorf("breaker never tripped on the flaky node")
	}
	if err := convergedReplicas(rg.router, rg.front.URL, graphs, 10*time.Second); err != nil {
		return err
	}
	fmt.Fprintf(w, "  replicas bit-identical after heal: PASS\n")
	return nil
}

// --- scenario 3: asymmetric partition vs request-path ejection ------------

func chaosAsymmetricPartition(w io.Writer) error {
	graphCount, cutFor := 4, 1200*time.Millisecond
	if Quick {
		graphCount, cutFor = 3, 500*time.Millisecond
	}
	graphs, err := clusterWorkingSet(graphCount)
	if err != nil {
		return err
	}
	rg, err := newRig(3, memNodes)
	if err != nil {
		return err
	}
	defer rg.close()
	// The partition: every /v1 response FROM the victim is dropped on
	// the router side (the backend processed the request — writes
	// commit there) while its /healthz probe path stays untouched.
	// Pure probe counting would never eject this node.
	victim := cluster.Placement(graphs[0].fp, rg.urls(), 2)[0]
	plan := fault.NewPlan(2203).Phases("calm", "cut", "healed").Add(fault.Rule{
		Name: "partition", Node: victim, Route: "/v1/*",
		Phase: "cut", Prob: 1, Kind: fault.KindDropResponse,
	})
	if err := rg.startRouter(plan, nil); err != nil {
		return err
	}
	if err := uploadGraphs(client.New(rg.front.URL), graphs); err != nil {
		return err
	}
	if err := plan.SetPhase("cut"); err != nil {
		return err
	}

	stopAll := mixedLoad(rg.front.URL, graphs, 3, 8*time.Millisecond)
	// Watch the victim through the cut: the breaker must OPEN (request
	// failures) even though the probe path never fails.
	sawOpen := false
	var trips uint64
	cutEnd := time.Now().Add(cutFor)
	for time.Now().Before(cutEnd) {
		if ns, ok := nodeStatus(rg.router, victim); ok {
			trips = ns.Trips
			if ns.Breaker == "open" {
				sawOpen = true
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := plan.SetPhase("healed"); err != nil {
		stopAll()
		return err
	}
	time.Sleep(cutFor / 4)
	res := stopAll()

	st := routerStatus(rg.router)
	fmt.Fprintf(w, "CHAOS2 scenario 3: asymmetric partition (every /v1 response from %s dropped, probes untouched) for %v\n", victim, cutFor)
	fmt.Fprintf(w, "  %d requests, %d failed; breaker trips %d, open observed during cut: %v; router dedupe hits %d\n",
		res.ops, res.failed, trips, sawOpen, st.Dedupes)
	if err := res.check("across the partition"); err != nil {
		return err
	}
	if trips == 0 || !sawOpen {
		return fmt.Errorf("breaker never ejected the partitioned node (trips=%d, sawOpen=%v) — probe counting cannot, the request streak must", trips, sawOpen)
	}
	if err := convergedReplicas(rg.router, rg.front.URL, graphs, 10*time.Second); err != nil {
		return err
	}
	fmt.Fprintf(w, "  replicas bit-identical after heal: PASS\n")
	return nil
}

// --- scenario 4: membership churn under sustained load --------------------

func chaosMembershipChurn(w io.Writer) error {
	graphCount := 5
	if Quick {
		graphCount = 3
	}
	graphs, err := clusterWorkingSet(graphCount)
	if err != nil {
		return err
	}
	// No fault plan: the churn itself is the disturbance.
	rg, err := newRig(3, memNodes)
	if err != nil {
		return err
	}
	defer rg.close()
	if err := rg.startRouter(nil, nil); err != nil {
		return err
	}
	urls := rg.urls()
	joiner := &expNode{}
	if err := joiner.boot(); err != nil {
		return err
	}
	defer joiner.kill()
	if err := uploadGraphs(client.New(rg.front.URL), graphs); err != nil {
		return err
	}

	stopAll := mixedLoad(rg.front.URL, graphs, 3, 8*time.Millisecond)
	fail := func(err error) error {
		stopAll()
		return err
	}
	time.Sleep(150 * time.Millisecond)
	// Join: the new node must earn admission (probe → half-open →
	// warm-sync) before it serves.
	if err := rg.router.ReloadNodes(append(urls, joiner.url())); err != nil {
		return fail(fmt.Errorf("adding joiner: %w", err))
	}
	if err := awaitHealthy(rg.router, joiner.url(), 10*time.Second); err != nil {
		return fail(fmt.Errorf("joiner never admitted: %w", err))
	}
	time.Sleep(150 * time.Millisecond)
	// Leave: drop an original member; its shard re-hashes to survivors.
	if err := rg.router.ReloadNodes([]string{urls[1], urls[2], joiner.url()}); err != nil {
		return fail(fmt.Errorf("removing %s: %w", urls[0], err))
	}
	time.Sleep(300 * time.Millisecond)
	res := stopAll()

	if err := res.check("across the churn"); err != nil {
		return err
	}
	if err := convergedReplicas(rg.router, rg.front.URL, graphs, 10*time.Second); err != nil {
		return err
	}
	st := routerStatus(rg.router)
	fmt.Fprintf(w, "CHAOS2 scenario 4: membership churn (join %s, then remove %s) under %d requests of sustained load\n",
		joiner.url(), urls[0], res.ops)
	fmt.Fprintf(w, "  0 failed; membership reloads %d, warm syncs %d; current replica sets bit-identical: PASS\n",
		st.MembershipReloads, st.WarmSyncs)
	if st.MembershipReloads != 2 {
		return fmt.Errorf("membership reloads = %d, want 2", st.MembershipReloads)
	}
	return nil
}
