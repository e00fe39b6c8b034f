package cluster

import (
	"strconv"

	"tsg/internal/obs"
)

// Pre-interned span names and annotation keys for the router's request
// trees. The root is router.<endpoint>; router.route is the placement
// decision, router.hop one forwarded backend call, router.fanout the
// write-replication / upload fan-out stage, router.sync a journal
// replay bringing a replica up to date (a child of router.fanout when
// the fan-out runs it).
var (
	nameRoute  = obs.N("router.route")
	nameHop    = obs.N("router.hop")
	nameFanout = obs.N("router.fanout")
	nameSync   = obs.N("router.sync")

	keyNode     = obs.N("node")
	keyReplicas = obs.N("replicas")

	tierFailover = obs.N("failover")
	tierDeduped  = obs.N("deduped")
	tierNoNode   = obs.N("no_replica")
)

// telemetry is the router's share of the observability edge: the
// edge itself (tracer, registry, router.<endpoint> roots and their
// request histogram, /metrics and /debug/trace) plus the per-node hop
// histograms observed directly on the forwarding path.
type telemetry struct {
	edge   *obs.Edge
	tracer *obs.Tracer // the edge's; request roots are attributed to graphs interned here
	hopDur *obs.HistogramVec
}

func newTelemetry(r *Router, version string) *telemetry {
	e := obs.NewEdge("tsgrouter", "router", rEndpointNames[:], version)
	t := &telemetry{
		edge:   e,
		tracer: e.Tracer,
		// Per-node hop histograms live on the nodes themselves (attached
		// in newNode), so dynamically added pool members get one too.
		hopDur: obs.NewHistogramVec("tsgrouter_node_request_duration_seconds", "Latency of forwarded backend requests, by node.", obs.LatencyBuckets, "node"),
	}
	e.Registry.MustRegister(
		obs.CounterFunc("tsgrouter_http_requests_total", "Requests received at the router, by endpoint.", []string{"endpoint"}, func(emit func([]string, float64)) {
			for ep, name := range rEndpointNames {
				emit([]string{name}, float64(r.queries[ep].Load()))
			}
		}),
		obs.CounterFunc("tsgrouter_http_request_failures_total", "Router requests answered with a non-2xx status.", nil, func(emit func([]string, float64)) {
			emit(nil, float64(r.failures.Load()))
		}),
		obs.GaugeFunc("tsgrouter_node_healthy", "Health of each backend node: 1 routable, 0 ejected.", []string{"node", "url"}, func(emit func([]string, float64)) {
			for _, n := range r.poolNodes() {
				v := 0.0
				if n.healthy.Load() {
					v = 1
				}
				emit([]string{strconv.Itoa(n.id), n.url}, v)
			}
		}),
		obs.CounterFunc("tsgrouter_node_ejections_total", "Times each node was ejected after consecutive failures.", []string{"node"}, func(emit func([]string, float64)) {
			for _, n := range r.poolNodes() {
				emit([]string{strconv.Itoa(n.id)}, float64(n.ejections.Load()))
			}
		}),
		obs.CounterFunc("tsgrouter_node_requests_total", "Requests forwarded to each node that returned an answer.", []string{"node"}, func(emit func([]string, float64)) {
			for _, n := range r.poolNodes() {
				emit([]string{strconv.Itoa(n.id)}, float64(n.requests.Load()))
			}
		}),
		obs.CounterFunc("tsgrouter_node_failures_total", "Forwarded requests and probes that failed, by node.", []string{"node"}, func(emit func([]string, float64)) {
			for _, n := range r.poolNodes() {
				emit([]string{strconv.Itoa(n.id)}, float64(n.failures.Load()))
			}
		}),
		obs.GaugeFunc("tsgrouter_node_inflight_requests", "Requests currently forwarded to each node (the power-of-two-choices balancing signal).", []string{"node"}, func(emit func([]string, float64)) {
			for _, n := range r.poolNodes() {
				emit([]string{strconv.Itoa(n.id)}, float64(n.inflight.Load()))
			}
		}),
		t.hopDur,
		obs.CounterFunc("tsgrouter_failovers_total", "Requests answered by a non-first-choice replica after the preferred one failed.", nil, func(emit func([]string, float64)) {
			emit(nil, float64(r.failovers.Load()))
		}),
		obs.CounterFunc("tsgrouter_sync_replays_total", "Journal records (uploads excluded) replayed to bring replicas up to date.", nil, func(emit func([]string, float64)) {
			emit(nil, float64(r.syncReplays.Load()))
		}),
		obs.CounterFunc("tsgrouter_write_replications_total", "Secondary-replica write applications, by outcome.", []string{"outcome"}, func(emit func([]string, float64)) {
			emit([]string{"ok"}, float64(r.replOK.Load()))
			emit([]string{"failed"}, float64(r.replFail.Load()))
		}),
		obs.CounterFunc("tsgrouter_dedupe_hits_total", "Writes acknowledged from the router's own exactly-once table without touching a backend.", nil, func(emit func([]string, float64)) {
			emit(nil, float64(r.dedupes.Load()))
		}),
		obs.CounterFunc("tsgrouter_warm_syncs_total", "Background replica-warming syncs run after a node re-admission.", nil, func(emit func([]string, float64)) {
			emit(nil, float64(r.warmSyncs.Load()))
		}),
		obs.GaugeFunc("tsgrouter_breaker_state", "Each node's circuit-breaker state: 0 closed, 1 open, 2 half-open.", []string{"node", "url"}, func(emit func([]string, float64)) {
			for _, n := range r.poolNodes() {
				emit([]string{strconv.Itoa(n.id), n.url}, float64(n.state.Load()))
			}
		}),
		obs.CounterFunc("tsgrouter_breaker_trips_total", "Times each node's circuit breaker tripped open.", []string{"node"}, func(emit func([]string, float64)) {
			for _, n := range r.poolNodes() {
				emit([]string{strconv.Itoa(n.id)}, float64(n.trips.Load()))
			}
		}),
		obs.CounterFunc("tsgrouter_hedge_attempts_total", "Hedged (backup) read attempts launched after the adaptive delay.", nil, func(emit func([]string, float64)) {
			emit(nil, float64(r.hedgeAttempts.Load()))
		}),
		obs.CounterFunc("tsgrouter_hedge_wins_total", "Hedged reads where the backup replica answered first.", nil, func(emit func([]string, float64)) {
			emit(nil, float64(r.hedgeWins.Load()))
		}),
		obs.CounterFunc("tsgrouter_hedge_suppressed_total", "Hedge launches suppressed by an exhausted hedge budget.", nil, func(emit func([]string, float64)) {
			emit(nil, float64(r.hedgeDenied.Load()))
		}),
		obs.GaugeFunc("tsgrouter_hedge_delay_seconds", "Current adaptive hedge delay (p95 of recent successful hops, clamped).", nil, func(emit func([]string, float64)) {
			emit(nil, r.hedgeDelay().Seconds())
		}),
		obs.CounterFunc("tsgrouter_retry_budget_denials_total", "Failover or retry attempts suppressed by an exhausted retry budget.", nil, func(emit func([]string, float64)) {
			emit(nil, float64(r.retryDenied.Load()))
		}),
		obs.GaugeFunc("tsgrouter_retry_budget_tokens", "Tokens currently in the retry budget.", nil, func(emit func([]string, float64)) {
			emit(nil, r.retryBudget.tokens())
		}),
		obs.CounterFunc("tsgrouter_membership_reloads_total", "Node-pool membership reloads applied (nodes-file change or SIGHUP).", nil, func(emit func([]string, float64)) {
			emit(nil, float64(r.membershipReloads.Load()))
		}),
		obs.GaugeFunc("tsgrouter_pool_nodes", "Backend nodes currently in the pool (live or not).", nil, func(emit func([]string, float64)) {
			emit(nil, float64(len(r.poolNodes())))
		}),
		obs.GaugeFunc("tsgrouter_graphs", "Fingerprints the router holds journal state for.", nil, func(emit func([]string, float64)) {
			r.mu.Lock()
			n := len(r.graphs)
			r.mu.Unlock()
			emit(nil, float64(n))
		}),
		obs.GaugeFunc("tsgrouter_journal_edits", "Edit records currently journaled across all graphs.", nil, func(emit func([]string, float64)) {
			r.mu.Lock()
			states := make([]*graphState, 0, len(r.graphs))
			for _, gs := range r.graphs {
				states = append(states, gs)
			}
			r.mu.Unlock()
			total := 0
			for _, gs := range states {
				gs.mu.Lock()
				total += len(gs.edits)
				gs.mu.Unlock()
			}
			emit(nil, float64(total))
		}),
	)
	return t
}

// telSyncReplays adds replayed journal records to the counter (no-op
// tally kept on the Router so it works with telemetry disabled too).
func (r *Router) telSyncReplays(n int) {
	if n > 0 {
		r.syncReplays.Add(uint64(n))
	}
}
