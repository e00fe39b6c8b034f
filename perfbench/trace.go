package main

import (
	"context"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The traced run times each layer from outside, at its public
// boundary: the sender's transport, the router's ServeHTTP, the
// router's backend transport (cluster.Config.HTTPClient) and each
// backend's ServeHTTP. A request carries its op id in opHeader across
// each loopback hop and in the context inside a process boundary, so
// every span lands on the op that caused it.

const opHeader = "X-Perfbench-Op"

type opKey struct{}

// opTrace is one traced request's timeline.
type opTrace struct {
	mu     sync.Mutex
	router interval
	hops   []interval
	serve  []interval
}

func (t *opTrace) add(list *[]interval, iv interval) {
	t.mu.Lock()
	*list = append(*list, iv)
	t.mu.Unlock()
}

// tracer hands out op ids and finds an op's timeline by id. It records
// nothing while off, so one rig serves the untraced and traced halves
// of a traced run.
type tracer struct {
	on   atomic.Bool
	next atomic.Uint64
	ops  sync.Map // uint64 -> *opTrace
}

// begin starts tracing one op and returns the context its request must
// be sent with.
func (t *tracer) begin(ctx context.Context) (context.Context, *opTrace) {
	id := t.next.Add(1)
	tr := &opTrace{}
	t.ops.Store(id, tr)
	return context.WithValue(ctx, opKey{}, id), tr
}

// forget drops the id table once the spans have been read.
func (t *tracer) forget() { t.ops.Clear() }

func (t *tracer) lookup(h http.Header) (uint64, *opTrace) {
	if !t.on.Load() {
		return 0, nil
	}
	id, err := strconv.ParseUint(h.Get(opHeader), 10, 64)
	if err != nil {
		return 0, nil
	}
	v, ok := t.ops.Load(id)
	if !ok {
		return 0, nil
	}
	return id, v.(*opTrace)
}

func (t *tracer) fromContext(ctx context.Context) (uint64, *opTrace) {
	if !t.on.Load() {
		return 0, nil
	}
	id, ok := ctx.Value(opKey{}).(uint64)
	if !ok {
		return 0, nil
	}
	v, ok := t.ops.Load(id)
	if !ok {
		return 0, nil
	}
	return id, v.(*opTrace)
}

// tagged returns a copy of req carrying the op id header.
func tagged(req *http.Request, id uint64) *http.Request {
	r := req.Clone(req.Context())
	r.Header.Set(opHeader, strconv.FormatUint(id, 10))
	return r
}

// senderTransport tags the load generator's requests with their op id.
type senderTransport struct {
	t    *tracer
	base http.RoundTripper
}

func (s *senderTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if id, tr := s.t.fromContext(req.Context()); tr != nil {
		req = tagged(req, id)
	}
	return s.base.RoundTrip(req)
}

// routerHandler times Router.ServeHTTP and hands the op id to the
// router's backend hops through the request context.
type routerHandler struct {
	t    *tracer
	next http.Handler
}

func (h *routerHandler) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	id, tr := h.t.lookup(req.Header)
	if tr == nil {
		h.next.ServeHTTP(w, req)
		return
	}
	start := time.Now()
	h.next.ServeHTTP(w, req.WithContext(context.WithValue(req.Context(), opKey{}, id)))
	end := time.Now()
	tr.mu.Lock()
	tr.router = interval{start, end}
	tr.mu.Unlock()
}

// hopTransport times each router→backend attempt, from the call to
// the end of its response body, and tags it for the backend.
type hopTransport struct {
	t    *tracer
	base http.RoundTripper
}

func (h *hopTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id, tr := h.t.fromContext(req.Context())
	if tr == nil {
		return h.base.RoundTrip(req)
	}
	start := time.Now()
	resp, err := h.base.RoundTrip(tagged(req, id))
	if err != nil {
		tr.add(&tr.hops, interval{start, time.Now()})
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() {
		tr.add(&tr.hops, interval{start, time.Now()})
	}}
	return resp, nil
}

// timedBody reports when its reader is closed.
type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// backendHandler times one backend's Server.ServeHTTP.
type backendHandler struct {
	t    *tracer
	next http.Handler
}

func (h *backendHandler) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	_, tr := h.t.lookup(req.Header)
	if tr == nil {
		h.next.ServeHTTP(w, req)
		return
	}
	start := time.Now()
	h.next.ServeHTTP(w, req)
	tr.add(&tr.serve, interval{start, time.Now()})
}
