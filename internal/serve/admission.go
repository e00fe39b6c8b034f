package serve

import (
	"context"
	"net/http"
	"sync/atomic"
	"time"

	"tsg/internal/obs"
)

// Admission control: the overload half of the serving layer's
// robustness story. Analysis requests are CPU-bound and long (a
// Monte-Carlo run can hold a core pool for seconds), so unbounded
// concurrency under overload means unbounded memory, collapsing
// throughput, and every request missing its deadline at once. Each
// endpoint instead gets a concurrency limit with a bounded,
// deadline-aware wait queue:
//
//   - a request that finds a free slot runs immediately;
//   - a request that finds the endpoint saturated waits — but only
//     while its own deadline lasts, and only if fewer than the queue
//     bound are already waiting;
//   - everything else is shed NOW with 503 + Retry-After, which costs
//     microseconds and tells a well-behaved client (the client
//     package's backoff retries honour Retry-After) exactly what to do.
//
// Shedding early is the point: under 2× sustained overload the
// admitted requests keep bounded latency (the queue bounds how stale a
// request can be when it starts) and the excess gets a clean, cheap,
// retryable answer instead of a timeout after holding memory for the
// full deadline. The CHAOS experiment drives this at 2× capacity and
// gates on exactly that behaviour.

// shed reasons, used as the metric label.
const (
	shedQueueFull = iota
	shedDeadline
	shedReasons
)

var shedReasonNames = [shedReasons]string{"queue_full", "deadline"}

// limiter is one endpoint's admission gate. A nil *limiter admits
// everything (the default when no concurrency limit is configured).
type limiter struct {
	sem      chan struct{} // buffered to the concurrency limit
	maxQueue int64
	waiters  atomic.Int64
}

// newLimiter builds a gate admitting maxConcurrent runners with at
// most maxQueue waiters behind them.
func newLimiter(maxConcurrent, maxQueue int) *limiter {
	return &limiter{
		sem:      make(chan struct{}, maxConcurrent),
		maxQueue: int64(maxQueue),
	}
}

// acquire claims an execution slot, waiting (deadline-aware, queue-
// bounded) when the endpoint is saturated. It returns the shed reason
// on failure; on success the caller must release().
func (l *limiter) acquire(ctx context.Context) (reason int, ok bool) {
	select {
	case l.sem <- struct{}{}:
		return 0, true
	default:
	}
	if l.waiters.Add(1) > l.maxQueue {
		l.waiters.Add(-1)
		return shedQueueFull, false
	}
	defer l.waiters.Add(-1)
	select {
	case l.sem <- struct{}{}:
		return 0, true
	case <-ctx.Done():
		return shedDeadline, false
	}
}

func (l *limiter) release() { <-l.sem }

// admit wraps an endpoint handler with its admission gate. Shed
// requests get 503 + Retry-After and are counted per endpoint and
// reason; they never reach the handler, so shedding stays cheap no
// matter how expensive the endpoint is.
//
// Handlers take the context as an argument instead of reading
// r.Context(): propagating the span-armed context through the request
// would clone the http.Request per hit (r.WithContext), and that
// allocation is the difference between tracing being free and tracing
// costing measurable warm throughput.
func (s *Server) admit(ep int, h func(ctx context.Context, w http.ResponseWriter, r *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		// Root span of the request tree: everything the request does —
		// admission wait, cache lookup, WAL appends, engine phases —
		// nests under serve.<endpoint>, and ending it observes the
		// per-endpoint request duration through the edge's OnEnd routes.
		// With observability disabled (nil edge) no tracer rides the
		// context, so every span call below (and in the engine
		// underneath) is a nil no-op.
		ctx, root := s.edge.StartRoot(r.Context(), ep)
		defer root.End()
		if lim := s.limits[ep]; lim != nil {
			start := time.Now()
			wait := obs.LeafN(ctx, nameAdmissionWait)
			reason, ok := lim.acquire(ctx)
			wait.End()
			if h := s.admWait[ep]; h != nil {
				h.Observe(time.Since(start).Seconds())
			}
			if !ok {
				root.SetTierN(tierShed)
				s.sheds[ep][reason].Add(1)
				s.failures.Add(1)
				w.Header().Set("Retry-After", retryAfterSeconds)
				s.writeErrorStatus(w, http.StatusServiceUnavailable,
					"server overloaded: "+endpointNames[ep]+" concurrency limit and queue are full; retry after backoff")
				return
			}
			defer lim.release()
		}
		h(ctx, w, r)
	}
}

// retryAfterSeconds is the Retry-After hint on every 503 this server
// sheds with. One second: long enough to drain a queue slot of typical
// interactive queries, short enough that a backoff client converges
// quickly once load drops.
const retryAfterSeconds = "1"

// withRecovery is the outermost middleware: a panicking handler must
// cost one 500, not the daemon — every other client's sessions, the
// engine cache and the WAL all live in this process. The panic is
// counted (tsgserve_panics_total) and answered with 500 if the
// response hasn't started.
func (s *Server) withRecovery(w http.ResponseWriter, r *http.Request, h http.Handler) {
	defer func() {
		if v := recover(); v != nil {
			s.panics.Add(1)
			s.failures.Add(1)
			// Best effort: if the handler already started the response
			// this write is a no-op plus a log line from net/http.
			s.writeErrorStatus(w, http.StatusInternalServerError, "internal panic (recovered)")
		}
	}()
	h.ServeHTTP(w, r)
}
