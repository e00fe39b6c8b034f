package exp

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"time"

	"tsg/client"
	"tsg/internal/cluster"
	"tsg/internal/fault"
	"tsg/internal/serve"
	"tsg/internal/store"
)

// nodeKind is what a rig's backends are.
type nodeKind int

const (
	memNodes     nodeKind = iota // in-memory tsgserved equivalents
	durableNodes                 // WAL-backed, restartable on the same dir and port
	pacedNodes                   // in-memory behind a pacer (the per-node capacity model)
)

// pacedService is the serial service time a paced node charges per
// /v1 request.
const pacedService = 4 * time.Millisecond

// expNode is one in-process backend on a stable TCP address, killable
// and restartable like a real process.
type expNode struct {
	kind nodeKind
	dir  string // a durable node's data directory
	addr string // pinned after first boot so a restart reuses the URL
	hs   *http.Server
	st   *store.Store
}

func (n *expNode) url() string { return "http://" + n.addr }

// boot starts the node on its pinned address; a durable node first
// reopens its store and recovers its WAL.
func (n *expNode) boot() error {
	cfg := serve.Config{DisableObs: true}
	var h http.Handler
	switch n.kind {
	case durableNodes:
		st, s, _, err := bootDurable(n.dir, store.Options{}, cfg)
		if err != nil {
			return err
		}
		n.st, h = st, s
	case pacedNodes:
		h = &pacer{service: pacedService, h: serve.New(cfg)}
	default:
		h = serve.New(cfg)
	}
	addr := n.addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		n.kill()
		return fmt.Errorf("node listen %s: %w", addr, err)
	}
	n.addr = ln.Addr().String()
	n.hs = &http.Server{Handler: h}
	go n.hs.Serve(ln)
	return nil
}

// kill tears the node down abruptly: no drain, in-flight connections
// die mid-request. A durable node's data directory survives — that is
// the WAL's whole point.
func (n *expNode) kill() {
	if n.hs != nil {
		n.hs.Close()
	}
	if n.st != nil {
		n.st.Close()
	}
	n.hs, n.st = nil, nil
}

// bootDurable opens the store in dir, builds a server on it and replays
// whatever the log recovered.
func bootDurable(dir string, opts store.Options, cfg serve.Config) (*store.Store, *serve.Server, *store.Recovery, error) {
	st, rec, err := store.Open(dir, opts)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("opening store %s: %w", dir, err)
	}
	cfg.Store = st
	s := serve.New(cfg)
	if err := s.Recover(rec); err != nil {
		st.Close()
		return nil, nil, nil, fmt.Errorf("recovering %s: %w", dir, err)
	}
	return st, s, rec, nil
}

// pacer charges a fixed serial service time per /v1 request — the
// single-core-node capacity model that lets a 1-core host measure
// multi-node scaling: throughput becomes wait-bound, so it scales with
// the number of (paced) nodes, exactly as CPU-bound traffic scales
// with real nodes.
type pacer struct {
	mu      sync.Mutex
	service time.Duration
	h       http.Handler
}

func (p *pacer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasPrefix(r.URL.Path, "/v1/") {
		p.mu.Lock()
		time.Sleep(p.service)
		p.mu.Unlock()
	}
	p.h.ServeHTTP(w, r)
}

// rig is n backends of one kind and, once startRouter has run, a
// router in front of them.
type rig struct {
	nodes  []*expNode
	router *cluster.Router
	front  *httptest.Server
}

// newRig boots n backends of kind.
func newRig(n int, kind nodeKind) (*rig, error) {
	r := &rig{}
	for i := 0; i < n; i++ {
		node := &expNode{kind: kind}
		r.nodes = append(r.nodes, node)
		if kind == durableNodes {
			dir, err := os.MkdirTemp("", "tsg-cluster-*")
			if err != nil {
				r.close()
				return nil, err
			}
			node.dir = dir
		}
		if err := node.boot(); err != nil {
			r.close()
			return nil, err
		}
	}
	return r, nil
}

// startRouter starts a router over the rig's backends. With a plan,
// its backend hops go through a fault.Transport armed with it; build
// the plan fully first, because the transport reads its rule table
// without locks. mut adjusts the base router config.
func (r *rig) startRouter(plan *fault.Plan, mut func(*cluster.Config)) error {
	cfg := cluster.Config{
		Nodes:         r.urls(),
		ProbeInterval: 25 * time.Millisecond,
		HopTimeout:    2 * time.Second,
		DisableObs:    true,
	}
	if plan != nil {
		cfg.HTTPClient = &http.Client{Transport: fault.NewTransport(nil, plan)}
	}
	if mut != nil {
		mut(&cfg)
	}
	router, err := cluster.New(cfg)
	if err != nil {
		return err
	}
	router.Start()
	r.router = router
	r.front = httptest.NewServer(router)
	return nil
}

func (r *rig) urls() []string {
	urls := make([]string, len(r.nodes))
	for i, n := range r.nodes {
		urls[i] = n.url()
	}
	return urls
}

func (r *rig) close() {
	if r.front != nil {
		r.front.Close()
	}
	if r.router != nil {
		r.router.Stop()
	}
	for _, n := range r.nodes {
		n.kill()
		if n.dir != "" {
			os.RemoveAll(n.dir)
		}
	}
}

// routerStatus reads the router's full /debug/cluster document.
func routerStatus(r *cluster.Router) cluster.ClusterStatus {
	rec := httptest.NewRecorder()
	req, _ := http.NewRequest(http.MethodGet, "/debug/cluster", nil)
	r.ServeHTTP(rec, req)
	var st cluster.ClusterStatus
	_ = json.NewDecoder(rec.Body).Decode(&st)
	return st
}

func nodeStatus(r *cluster.Router, url string) (cluster.ClusterNodeStatus, bool) {
	for _, ns := range routerStatus(r).Nodes {
		if ns.URL == url {
			return ns, true
		}
	}
	return cluster.ClusterNodeStatus{}, false
}

// awaitHealthy polls the router until it reports the node at url
// healthy, failing at the deadline.
func awaitHealthy(r *cluster.Router, url string, within time.Duration) error {
	deadline := time.Now().Add(within)
	for {
		if ns, ok := nodeStatus(r, url); ok && ns.Healthy {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy after %v", url, within)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func directClient(url string) *client.Client {
	return client.New(url, client.WithRetryPolicy(client.RetryPolicy{}))
}

// uploadGraphs pushes the working set through the router.
func uploadGraphs(cl *client.Client, graphs []clusterGraph) error {
	ctx := context.Background()
	for _, g := range graphs {
		if _, err := cl.UploadText(ctx, g.text); err != nil {
			return fmt.Errorf("upload %s: %w", g.name, err)
		}
	}
	return nil
}

// readLoad is analyze-by-fingerprint traffic: read i of worker w asks
// for graph (w+i) mod len(graphs).
func readLoad(front string, graphs []clusterGraph, workers, per int, pause time.Duration) load {
	return load{url: front, workers: workers, per: per, pause: pause, op: func(cl *client.Client, w, i int) error {
		_, err := cl.Analyze(context.Background(), client.ByFingerprint(graphs[(w+i)%len(graphs)].fp))
		return err
	}}
}

// mixedLoad starts one serial edit walker per graph (so stamps stay
// ordered per client), editPause apart, and readWorkers read workers
// pausing half as long, all through the front; the returned stop
// function ends the traffic and returns what it did.
func mixedLoad(front string, graphs []clusterGraph, readWorkers int, editPause time.Duration) (stop func() loadResult) {
	edits := load{url: front, workers: len(graphs), pause: editPause, op: func(cl *client.Client, g, e int) error {
		ref := client.ByFingerprint(graphs[g].fp)
		_, err := cl.Edit(context.Background(), ref, []client.DelayEdit{{Arc: (g + e) % graphs[g].arcs, Delay: 1.0 + float64(e%7)}})
		return err
	}}.start()
	reads := readLoad(front, graphs, readWorkers, 0, editPause/2).start()
	return func() loadResult { return edits.stop().add(reads.stop()) }
}

// convergedReplicas polls until every replica of every graph answers a
// λ bit-identical to the routed answer (routed reads drive the resync
// of laggards), failing at the deadline.
func convergedReplicas(r *cluster.Router, front string, graphs []clusterGraph, within time.Duration) error {
	ctx := context.Background()
	cl := client.New(front)
	urls := r.Nodes()
	deadline := time.Now().Add(within)
	for _, g := range graphs {
		ref := client.ByFingerprint(g.fp)
		placed := cluster.Placement(g.fp, urls, 2)
		for {
			want, err := cl.Analyze(ctx, ref)
			if err != nil {
				return fmt.Errorf("routed analyze of %s: %w", g.name, err)
			}
			ok := true
			var mismatch error
			for _, u := range placed {
				got, err := directClient(u).Analyze(ctx, ref)
				if err != nil || got.Lambda.Text != want.Lambda.Text || got.Lambda.Num != want.Lambda.Num || got.Lambda.Den != want.Lambda.Den {
					ok = false
					mismatch = fmt.Errorf("replica %s of %s: err=%v, λ mismatch", u, g.name, err)
					break
				}
			}
			if ok {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("replicas never converged: %w", mismatch)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	return nil
}
