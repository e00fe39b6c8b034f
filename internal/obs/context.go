package obs

import (
	"context"
	"time"
)

type ctxKey struct{}

// WithTracer arms a context with a tracer. Spans started under the
// returned context become roots of new traces.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, &Span{tr: t})
}

// FromContext returns the current span, or nil when the context
// carries no tracer (or only the WithTracer sentinel).
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	if s == nil || s.id == 0 {
		return nil
	}
	return s
}

// StartN begins a span named name as a child of the context's current
// span and returns a derived context carrying it. When the context has
// no tracer it returns (ctx, nil) — and a nil *Span makes every method
// a no-op — so callers never branch on whether tracing is on.
//
// The returned span must be finished with End (usually deferred); the
// ring append in End is lock-free and allocation-free.
func StartN(ctx context.Context, name Name) (context.Context, *Span) {
	cur, _ := ctx.Value(ctxKey{}).(*Span)
	if cur == nil || cur.tr == nil {
		return ctx, nil
	}
	s := begin(cur, name)
	return context.WithValue(ctx, ctxKey{}, s), s
}

// LeafN begins a span that will have no traced children: it skips the
// context derivation (and its allocation) entirely and returns only the
// handle. Use it for spans whose body never starts child spans on the
// hot path — cache lookups, WAL appends, warm answers; a caller that
// later takes a slow path with children can re-arm a context with
// ContextWith.
func LeafN(ctx context.Context, name Name) *Span {
	cur, _ := ctx.Value(ctxKey{}).(*Span)
	if cur == nil || cur.tr == nil {
		return nil
	}
	return begin(cur, name)
}

// ContextWith arms ctx with sp as the current span, so spans started
// under the returned context become its children. It is the deferred
// half of LeafN: leaf-start on the fast path, derive a context only on
// the slow path that actually spawns children. A nil sp returns ctx
// unchanged.
func ContextWith(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, sp)
}

// Detach returns ctx with its current span replaced by an unpooled
// copy of the span's identity: tracer, trace id, span id and graph.
// Spans started under the returned context are still children of the
// original span, but they never touch the pooled handle, so they stay
// safe after the original Ends and its handle is reused. Use it before
// handing ctx to goroutines that may outlive the span, such as the
// losing attempts of a hedged request. The copy must not be Ended.
func Detach(ctx context.Context) context.Context {
	cur, _ := ctx.Value(ctxKey{}).(*Span)
	if cur == nil || cur.tr == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, &Span{tr: cur.tr, trace: cur.trace, id: cur.id, graph: cur.graph})
}

// StartRoot begins a root span of a new trace directly on the tracer,
// fusing WithTracer+StartN into a single context value: the per-request
// entry point of the serving layer. The returned context carries the
// span; child spans nest under it.
func (t *Tracer) StartRoot(ctx context.Context, name Name) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	s := t.pool.Get().(*Span)
	s.tr = t
	s.id = t.ids.Add(1)
	s.trace = s.id
	s.name = uint32(name)
	s.start = time.Now().UnixNano()
	return context.WithValue(ctx, ctxKey{}, s), s
}

// begin allocates a child span of cur from the tracer pool.
func begin(cur *Span, name Name) *Span {
	t := cur.tr
	s := t.pool.Get().(*Span)
	s.tr = t
	s.id = t.ids.Add(1)
	if cur.id == 0 {
		s.trace = s.id // root of a new trace
	} else {
		s.trace = cur.trace
		s.parent = cur.id
	}
	s.name = uint32(name)
	s.graph = cur.graph // inherit attribution set by an ancestor
	s.start = time.Now().UnixNano()
	return s
}
