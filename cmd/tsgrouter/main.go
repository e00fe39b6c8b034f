// Command tsgrouter is the distributed serving front end: a stateless
// router that speaks the same /v1 protocol as one tsgserved but spreads
// graphs across a pool of backend nodes — rendezvous-hashing each
// graph's content fingerprint to an ordered replica set, fanning reads
// (analyze/slacks/whatif/mc) across the replicas by power-of-two-choices
// on in-flight counts (with an adaptive hedged backup attempt against
// the second replica), pinning writes (edit/reset) to the primary, and
// replaying its write journal to keep every replica bit-identical
// through node deaths, restarts, and membership changes.
//
// Usage:
//
//	tsgrouter -nodes URL[,URL...] | -nodes-file PATH
//	          [-addr host:port] [-replicas N]
//	          [-probe-interval d] [-fail-threshold N] [-readmit-threshold N]
//	          [-breaker-threshold N] [-breaker-cooldown d] [-breaker-close-after N]
//	          [-disable-hedge] [-hedge-frac F] [-retry-budget-frac F]
//	          [-hop-timeout d] [-max-body N]
//	          [-fault-plan PATH] [-fault-seed N]
//	          [-disable-obs] [-version]
//
// The router prints its listen URL on startup (with -addr :0 the kernel
// picks a free port), serves until SIGINT/SIGTERM, then drains.
//
// Health: each node is probed every -probe-interval; -fail-threshold
// consecutive failures eject it — its fingerprints immediately re-hash
// to the survivors — and -readmit-threshold consecutive successful
// probes re-admit it, upon which the router warms it back up by
// replaying the write journal of every graph placed on it. Each node
// also carries a circuit breaker: -breaker-threshold consecutive
// FORWARDED-REQUEST failures trip it open even while probes stay green
// (the asymmetric-partition case), it dwells -breaker-cooldown before
// clean probes move it to half-open, and -breaker-close-after
// consecutive successes close it. Hedged reads fire a backup attempt
// after an adaptive delay (p95 of recent hop latency), bounded by
// -hedge-frac of read traffic; failover retries beyond the first
// attempt are bounded by -retry-budget-frac of traffic. Clients keep
// their (client, seq) edit idempotency end to end: stamps pass through
// the router to every replica unchanged.
//
// Membership: -nodes-file names a file with one backend URL per line
// (# comments allowed). The router watches it (~1s mtime poll) and
// applies changes live; SIGHUP forces an immediate reload. Added nodes
// warm-sync before taking reads; removed nodes drain gracefully.
//
// Fault injection: -fault-plan arms a deterministic fault-injection
// transport (internal/fault) on every backend hop, for chaos drills
// against a real deployment; -fault-seed overrides the plan's seed and
// SIGUSR1 advances the plan to its next declared phase. See README.md
// "Resilience" for the plan format.
//
// Endpoints: the /v1 protocol of tsgserved, plus GET /healthz (OK while
// ≥1 node is live), GET /metrics (tsgrouter_* families), GET
// /debug/cluster (topology, breaker states + per-graph sync state), and
// GET /debug/trace (router.* span trees; ?graph=<fingerprint> keeps
// the traces of one graph, ?format=tree renders text). /metrics and
// /debug/trace are served by the same code as tsgserved's, with the
// same obs.DefaultRingSize span ring; -disable-obs turns both off.
//
// Backend hops make no transport retries: failover across the replica
// set is the router's retry policy.
//
// Run the backends durable (-data-dir) for full fault tolerance: an
// ejected node that restarts re-enters with its WAL state, and the
// router replays only what it missed. See README.md "Clustering" and
// "Resilience", and EXPERIMENTS.md (CLUSTER, CHAOS2) for the measured
// behavior.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"tsg/internal/cluster"
	"tsg/internal/fault"
)

// version identifies the build in -version output and the
// tsgrouter_build_info metric. Overridable at link time:
//
//	go build -ldflags "-X main.version=v1.2.3" ./cmd/tsgrouter
var version = "dev"

// readNodesFile parses a nodes file: one backend base URL per line,
// blank lines and #-comments ignored.
func readNodesFile(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var pool []string
	for _, line := range strings.Split(string(data), "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		if line = strings.TrimSpace(line); line != "" {
			pool = append(pool, line)
		}
	}
	if len(pool) == 0 {
		return nil, fmt.Errorf("nodes file %s lists no backends", path)
	}
	return pool, nil
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7440", "listen address (use :0 for a kernel-assigned port)")
	nodes := flag.String("nodes", "", "comma-separated backend base URLs, e.g. http://127.0.0.1:7436,http://127.0.0.1:7437")
	nodesFile := flag.String("nodes-file", "", "file with one backend URL per line; watched for changes (live membership), SIGHUP forces a reload")
	replicas := flag.Int("replicas", 2, "replica-set size per graph (clamped to the pool size)")
	probeInterval := flag.Duration("probe-interval", 250*time.Millisecond, "health-probe period per node")
	failThreshold := flag.Int("fail-threshold", 3, "consecutive failures that eject a node")
	readmitThreshold := flag.Int("readmit-threshold", 2, "consecutive successful probes that re-admit an ejected node")
	breakerThreshold := flag.Int("breaker-threshold", 0, "consecutive forwarded-request failures that trip a node's circuit breaker (0 = fail-threshold-1, min 1)")
	breakerCooldown := flag.Duration("breaker-cooldown", 0, "minimum dwell in the open state before probes can move a breaker to half-open (0 = 2×probe-interval)")
	breakerCloseAfter := flag.Int("breaker-close-after", 2, "consecutive successes that close a half-open breaker")
	disableHedge := flag.Bool("disable-hedge", false, "turn off hedged reads (pure sequential failover)")
	hedgeFrac := flag.Float64("hedge-frac", 0.05, "hedge budget: max fraction of read traffic that may launch a backup attempt")
	retryBudgetFrac := flag.Float64("retry-budget-frac", 0.1, "retry budget: max fraction of traffic that may spend failover/retry attempts")
	hopTimeout := flag.Duration("hop-timeout", 15*time.Second, "timeout per forwarded backend attempt")
	maxBody := flag.Int64("max-body", 8<<20, "maximum request body size in bytes")
	faultPlan := flag.String("fault-plan", "", "fault-plan file arming deterministic fault injection on backend hops (chaos drills; SIGUSR1 advances the phase)")
	faultSeed := flag.Int64("fault-seed", 0, "override the fault plan's seed directive")
	disableObs := flag.Bool("disable-obs", false, "strip tracing/metrics (/metrics and /debug/trace answer 404)")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *showVersion {
		fmt.Printf("tsgrouter %s %s\n", version, runtime.Version())
		return
	}
	if flag.NArg() != 0 || (*nodes == "") == (*nodesFile == "") {
		fmt.Fprintln(os.Stderr, "usage: tsgrouter -nodes URL[,URL...] | -nodes-file PATH [flags]")
		flag.PrintDefaults()
		os.Exit(2)
	}
	var pool []string
	if *nodesFile != "" {
		var err error
		if pool, err = readNodesFile(*nodesFile); err != nil {
			log.Fatalf("tsgrouter: %v", err)
		}
	} else {
		for _, u := range strings.Split(*nodes, ",") {
			if u = strings.TrimSpace(u); u != "" {
				pool = append(pool, u)
			}
		}
	}

	var plan *fault.Plan
	var httpClient *http.Client
	if *faultPlan != "" {
		var err error
		if plan, err = fault.LoadPlan(*faultPlan); err != nil {
			log.Fatalf("tsgrouter: %v", err)
		}
		seedSet := false
		flag.Visit(func(f *flag.Flag) { seedSet = seedSet || f.Name == "fault-seed" })
		if seedSet {
			plan.SetSeed(*faultSeed)
		}
		httpClient = &http.Client{Transport: fault.NewTransport(nil, plan)}
		log.Printf("tsgrouter: fault plan %s armed (phase %q)", *faultPlan, plan.Phase())
	}

	r, err := cluster.New(cluster.Config{
		Nodes:             pool,
		Replicas:          *replicas,
		ProbeInterval:     *probeInterval,
		FailThreshold:     *failThreshold,
		ReadmitThreshold:  *readmitThreshold,
		BreakerThreshold:  *breakerThreshold,
		BreakerCooldown:   *breakerCooldown,
		BreakerCloseAfter: *breakerCloseAfter,
		DisableHedge:      *disableHedge,
		HedgeFrac:         *hedgeFrac,
		RetryBudgetFrac:   *retryBudgetFrac,
		HopTimeout:        *hopTimeout,
		MaxBodyBytes:      *maxBody,
		DisableObs:        *disableObs,
		Version:           version,
		Logf:              log.Printf,
		HTTPClient:        httpClient,
	})
	if err != nil {
		log.Fatalf("tsgrouter: %v", err)
	}
	r.Start()
	defer r.Stop()

	// Membership watcher: SIGHUP reloads the nodes file immediately; a
	// ~1s mtime poll picks up edits without a signal. Reload errors are
	// logged and the previous pool stays in effect (a half-written file
	// must not empty the cluster).
	reloadCh := make(chan os.Signal, 1)
	if *nodesFile != "" {
		signal.Notify(reloadCh, syscall.SIGHUP)
		reload := func(trigger string) {
			urls, err := readNodesFile(*nodesFile)
			if err != nil {
				log.Printf("tsgrouter: %s reload: %v (keeping current pool)", trigger, err)
				return
			}
			if err := r.ReloadNodes(urls); err != nil {
				log.Printf("tsgrouter: %s reload: %v (keeping current pool)", trigger, err)
			}
		}
		go func() {
			var lastMod time.Time
			if st, err := os.Stat(*nodesFile); err == nil {
				lastMod = st.ModTime()
			}
			tick := time.NewTicker(time.Second)
			defer tick.Stop()
			for {
				select {
				case <-reloadCh:
					reload("SIGHUP")
				case <-tick.C:
					st, err := os.Stat(*nodesFile)
					if err != nil || st.ModTime().Equal(lastMod) {
						continue
					}
					lastMod = st.ModTime()
					reload("nodes-file")
				}
			}
		}()
	}

	// SIGUSR1 walks an armed fault plan through its declared phases, so
	// a chaos-drill script can stage inject → heal without restarting.
	if plan != nil {
		phaseCh := make(chan os.Signal, 1)
		signal.Notify(phaseCh, syscall.SIGUSR1)
		go func() {
			for range phaseCh {
				log.Printf("tsgrouter: fault plan phase -> %q (%d faults injected so far)", plan.AdvancePhase(), plan.Injected())
			}
		}()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("tsgrouter: listen %s: %v", *addr, err)
	}
	srv := &http.Server{Handler: r}

	// The printed URL is the contract scripts rely on (the CI smoke
	// step parses it), so it goes to stdout, unbuffered, first.
	fmt.Printf("tsgrouter listening on http://%s (%d backends, %d replicas)\n", ln.Addr(), len(pool), *replicas)

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-stop:
		log.Printf("tsgrouter: %v: draining", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("tsgrouter: shutdown: %v", err)
		}
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("tsgrouter: serve: %v", err)
		}
	}
}
