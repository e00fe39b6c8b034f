package sg

import "fmt"

// MultiArc adds a connection carrying `tokens` initial tokens between
// two events. Signal Graphs in this package are initially-safe (§III.A:
// the marking function is boolean), and the paper notes that "any
// initially-non-safe graph can be transformed into an equivalent
// initially-safe one": this method performs that transformation inline,
// splitting the connection into a chain of marked unit arcs through
// tokens-1 dummy repetitive events named "from>to@k".
//
// The delay is carried by the first segment; the dummy segments have
// delay zero, so path lengths — and therefore every cycle's length and
// effective length — are preserved, while the chain contributes exactly
// `tokens` to the occurrence period of any cycle through it.
func (b *Builder) MultiArc(from, to string, delay float64, tokens int, opts ...ArcOption) *Builder {
	if b.d.err != nil {
		return b
	}
	if tokens < 0 {
		b.d.err = fmt.Errorf("sg: negative token count %d on arc %s -> %s in graph %q",
			tokens, from, to, b.d.name)
		return b
	}
	switch tokens {
	case 0:
		return b.Arc(from, to, delay, opts...)
	case 1:
		return b.Arc(from, to, delay, append(opts, Marked())...)
	}
	prev := from
	first := delay
	for k := 1; k < tokens; k++ {
		dummy := fmt.Sprintf("%s>%s@%d", from, to, k)
		b.Event(dummy)
		b.Arc(prev, dummy, first, Marked())
		first = 0
		prev = dummy
	}
	return b.Arc(prev, to, 0, append(opts, Marked())...)
}
