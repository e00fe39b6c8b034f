// Command tsgserved is the analysis service daemon: it serves the
// JSON-over-HTTP query protocol of internal/serve — cycle-time
// analyses, slack reports, batched what-ifs and Monte-Carlo runs — on
// top of a shared, LRU-bounded engine cache, so many clients asking
// about the same Timed Signal Graph share one compiled engine and its
// warm certificate.
//
// Usage:
//
//	tsgserved [-addr host:port] [-cache-bytes N] [-max-body N]
//	          [-data-dir dir] [-max-concurrent N] [-max-queue N]
//	          [-request-timeout d] [-pprof] [-disable-obs] [-version]
//
// The daemon prints its listen URL on startup (with -addr :0 the
// kernel picks a free port — the printed URL is how scripts find it),
// serves until SIGINT/SIGTERM, then drains in-flight requests and
// logs the cache statistics.
//
// -data-dir makes the daemon durable: uploaded graph bodies and
// committed edits are appended to a checksummed write-ahead log in
// that directory (fsync'd before acknowledgement), and a restart on
// the same directory replays the log — recompiling every graph,
// re-applying every edit, restoring the exactly-once edit dedupe
// table — so the node comes back with λ bit-identical to an
// uninterrupted run even after kill -9. Warm-restart work is counted
// separately in /metrics (tsgserve_warm_restart_*).
//
// -max-concurrent bounds in-flight requests per endpoint; excess
// requests wait in a bounded queue (-max-queue, default 4× the
// concurrency) and are shed with 503 + Retry-After when the queue is
// full or their deadline would expire while queued. -request-timeout
// bounds each request end to end; expiry cancels the analysis
// cooperatively and answers 503 + Retry-After.
//
// Endpoints:
//
//	POST /v1/graphs   upload a .tsg body, get its fingerprint
//	POST /v1/analyze  λ + critical cycles
//	POST /v1/slacks   per-arc timing slacks
//	POST /v1/whatif   batched what-if queries
//	POST /v1/mc       Monte-Carlo λ over delay distributions
//	GET  /healthz     liveness + resident graph count
//	GET  /metrics     Prometheus text exposition (HELP/TYPE on every
//	                  family)
//	GET  /debug/trace    recent request span trees (?graph=, ?format=tree)
//	GET  /debug/cache    engine cache stats + resident entries
//	GET  /debug/hotarcs  per-graph what-if/edit arc touch counts
//	GET  /debug/pprof/*  Go profiler (only with -pprof)
//
// Observability is on by default and costs little (lock-free span ring
// + atomic counters); -disable-obs strips it entirely, turning the
// /metrics and /debug/trace endpoints off. The span ring holds the
// newest obs.DefaultRingSize (8192) spans; older ones are overwritten.
// tsgrouter serves /metrics and /debug/trace through the same code, so
// both daemons answer ?graph= and ?format=tree alike. -version prints
// the build version and exits.
//
// See the client package for the Go client and EXPERIMENTS.md (SERVE)
// for the load harness driving the daemon.
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
	"syscall"
	"time"

	"tsg/internal/serve"
	"tsg/internal/store"
)

// version identifies the build in -version output and the
// tsgserve_build_info metric. Overridable at link time:
//
//	go build -ldflags "-X main.version=v1.2.3" ./cmd/tsgserved
var version = "dev"

func main() {
	addr := flag.String("addr", "127.0.0.1:7436", "listen address (use :0 for a kernel-assigned port)")
	cacheBytes := flag.Int64("cache-bytes", serve.DefaultCacheBytes, "engine cache budget in estimated bytes (negative disables caching)")
	maxBody := flag.Int64("max-body", 32<<20, "maximum request body size in bytes")
	dataDir := flag.String("data-dir", "", "durable state directory (write-ahead log; empty = in-memory only)")
	maxConcurrent := flag.Int("max-concurrent", 0, "max in-flight requests per endpoint (0 = unlimited)")
	maxQueue := flag.Int("max-queue", 0, "max queued requests per endpoint beyond -max-concurrent (0 = 4x concurrency)")
	requestTimeout := flag.Duration("request-timeout", 0, "per-request deadline; expiry cancels the analysis and answers 503 (0 = none)")
	enablePprof := flag.Bool("pprof", false, "mount Go profiler endpoints under /debug/pprof/")
	disableObs := flag.Bool("disable-obs", false, "strip tracing/metrics entirely (/metrics and /debug/trace answer 404)")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *showVersion {
		fmt.Printf("tsgserved %s %s\n", version, runtime.Version())
		return
	}
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: tsgserved [flags]")
		flag.PrintDefaults()
		os.Exit(2)
	}

	var (
		st  *store.Store
		rec *store.Recovery
	)
	if *dataDir != "" {
		var err error
		st, rec, err = store.Open(*dataDir, store.Options{})
		if err != nil {
			log.Fatalf("tsgserved: opening data dir %s: %v", *dataDir, err)
		}
		defer st.Close()
	}

	s := serve.New(serve.Config{
		CacheBytes:     *cacheBytes,
		MaxBodyBytes:   *maxBody,
		Store:          st,
		MaxConcurrent:  *maxConcurrent,
		MaxQueue:       *maxQueue,
		RequestTimeout: *requestTimeout,
		EnablePprof:    *enablePprof,
		DisableObs:     *disableObs,
		Version:        version,
	})
	if rec != nil {
		if err := s.Recover(rec); err != nil {
			log.Fatalf("tsgserved: recovering from %s: %v", *dataDir, err)
		}
		graphs, edits := s.WarmRestartCounts()
		if graphs > 0 || edits > 0 || rec.TruncatedBytes > 0 {
			log.Printf("tsgserved: warm restart from %s: %d graphs recompiled, %d edits re-applied (%d log records)",
				*dataDir, graphs, edits, rec.Records)
		}
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("tsgserved: listen %s: %v", *addr, err)
	}
	srv := &http.Server{Handler: s}

	// The printed URL is the contract scripts rely on (the CI smoke
	// step parses it), so it goes to stdout, unbuffered, first.
	fmt.Printf("tsgserved listening on http://%s\n", ln.Addr())

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-stop:
		log.Printf("tsgserved: %v: draining", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("tsgserved: shutdown: %v", err)
		}
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("tsgserved: serve: %v", err)
		}
	}
	cst := s.Cache().Stats()
	log.Printf("tsgserved: served %d hits / %d misses, %d compiles, %d evictions, %d graphs resident (%d bytes)",
		cst.Hits, cst.Misses, cst.Compiles, cst.Evictions, cst.Entries, cst.Bytes)
}
