package timesim

import (
	"sync"
	"weak"
)

// memPool recycles a Schedule's simulation memory (slabs, windows)
// without keeping it alive. It holds weak pointers, so memory no run
// draws before the next GC is freed by that GC. A sync.Pool would keep
// it reachable through one more cycle, also after the Schedule itself
// is dead: one-shot analyses of large graphs (parse, compile, analyze,
// drop) then carry the previous graph's slabs into the next graph's
// peak.
type memPool[T any] struct {
	mu   sync.Mutex
	free []weak.Pointer[T]
}

// get returns pooled memory that is still live, or nil.
func (p *memPool[T]) get() *T {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.free) > 0 {
		w := p.free[len(p.free)-1]
		p.free = p.free[:len(p.free)-1]
		if v := w.Value(); v != nil {
			return v
		}
	}
	return nil
}

// put hands v back for reuse.
func (p *memPool[T]) put(v *T) {
	w := weak.Make(v)
	p.mu.Lock()
	p.free = append(p.free, w)
	p.mu.Unlock()
}
