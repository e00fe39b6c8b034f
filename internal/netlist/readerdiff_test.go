package netlist

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"tsg/internal/dist"
	"tsg/internal/gen"
	"tsg/internal/sg"
)

// The one-pass reader must answer exactly as the line-at-a-time reader
// it replaced (oldreader_test.go): the same graph — fingerprint, name,
// declaration order, delay model — or the same error string, line
// number included. The one intended difference is a line over the
// length limit: the old reader returned bufio.ErrTooLong, the new one
// a *ParseError naming the line.

// diffReaders checks one input against both readers through all three
// entry points.
func diffReaders(t *testing.T, src []byte) {
	t.Helper()
	g, m, err := ReadTSGDist(bytes.NewReader(src))
	og, om, oerr := oldReadTSGDist(bytes.NewReader(src))
	if sameErr(t, "ReadTSGDist", err, oerr) {
		if a, b := graphText(t, g, m), graphText(t, og, om); a != b {
			t.Fatalf("ReadTSGDist graphs differ:\nnew:\n%s\nold:\n%s", a, b)
		}
		if a, b := sg.Fingerprint(g), sg.Fingerprint(og); a != b {
			t.Fatalf("ReadTSGDist fingerprints differ: new %s, old %s", a, b)
		}
	}
	g, err = ReadTSG(bytes.NewReader(src))
	og, oerr = oldBuild(bytes.NewReader(src), (*sg.Builder).Build)
	if sameErr(t, "ReadTSG", err, oerr) && sg.Fingerprint(g) != sg.Fingerprint(og) {
		t.Fatalf("ReadTSG fingerprints differ")
	}
	g, err = ReadTSGLax(bytes.NewReader(src))
	og, oerr = oldBuild(bytes.NewReader(src), (*sg.Builder).BuildUnchecked)
	if sameErr(t, "ReadTSGLax", err, oerr) {
		if a, b := graphText(t, g, nil), graphText(t, og, nil); a != b {
			t.Fatalf("ReadTSGLax graphs differ:\nnew:\n%s\nold:\n%s", a, b)
		}
		if sg.Fingerprint(g) != sg.Fingerprint(og) {
			t.Fatalf("ReadTSGLax fingerprints differ")
		}
	}
}

func oldBuild(r io.Reader, build func(*sg.Builder) (*sg.Graph, error)) (*sg.Graph, error) {
	b, _, err := oldReadTSG(r)
	if err != nil {
		return nil, err
	}
	return build(b)
}

// sameErr fails unless both readers failed alike or both succeeded; it
// reports whether they succeeded.
func sameErr(t *testing.T, what string, err, oerr error) bool {
	t.Helper()
	switch {
	case err == nil && oerr == nil:
		return true
	case errors.Is(oerr, bufio.ErrTooLong):
		var pe *ParseError
		if !errors.As(err, &pe) || !strings.Contains(pe.Msg, "line longer than") {
			t.Fatalf("%s: old reader hit the line limit, new reader said %v", what, err)
		}
	case err == nil || oerr == nil || err.Error() != oerr.Error():
		t.Fatalf("%s errors differ:\nnew: %v\nold: %v", what, err, oerr)
	}
	return false
}

// graphText is the graph in .tsg form: name, declaration order, flags,
// delays and annotations.
func graphText(t *testing.T, g *sg.Graph, m *dist.Model) string {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteTSGDist(&buf, g, m); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// corpus returns the FuzzTSGRoundTrip seed corpus and the repository's
// .tsg fixtures.
func corpus(t testing.TB) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	fixtures, _ := filepath.Glob(filepath.Join("..", "..", "testdata", "*.tsg"))
	for _, p := range fixtures {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out[p] = b
	}
	seeds, _ := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzTSGRoundTrip", "*"))
	for _, p := range seeds {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		// go test fuzz v1 / []byte("...")
		lines := strings.Split(strings.TrimSpace(string(b)), "\n")
		if len(lines) != 2 || !strings.HasPrefix(lines[1], "[]byte(") {
			t.Fatalf("%s: not a one-value []byte corpus file", p)
		}
		s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		out[p] = []byte(s)
	}
	if len(fixtures) == 0 || len(seeds) == 0 {
		t.Fatalf("found %d fixtures and %d corpus files", len(fixtures), len(seeds))
	}
	return out
}

// edgeCases are inputs aimed at the tokenizer and the streaming
// builder: line endings, every whitespace class, comments, quotes,
// non-ASCII bytes and builder errors.
var edgeCases = []string{
	"",
	"\n",
	"# only a comment",
	"# comment\n\n   \t# another\n",
	"tsg crlf\r\nevent a\r\nevent b\r\narc a b 1\r\narc b a 2 marked\r\n",
	"tsg nofinalnewline\nevent a\nevent b\narc a b 1\narc b a 2 marked",
	"tsg cr\revent a\n",
	"tsg tabs\n\tevent\ta\v\nevent\fb \narc a\tb 1\narc b a 2\vmarked\n",
	"tsg nbsp\nevent\u00a0a\nevent b\narc a b 1\narc b a 2 marked\n",
	"tsg nel\nevent a\u0085\nevent b\narc a\u0085b 1\narc b a 2 marked\n",
	"tsg em\u2003space\nevent a\u2003event b\n",
	"tsg utf8\nevent α+\nevent α-\narc α+ α- 1\narc α- α+ 1 marked\n",
	"tsg bad\xffutf8\nevent a\xff\nevent b\narc a\xff b 1\narc b a\xff 1 marked\n",
	"tsg nul\nevent a\x00\n",
	"tsg dup\nevent a\nevent a\n",
	"tsg dup\ntsg again\n",
	"event a\ntsg late\n",
	"arc a b 1\n",
	"tsg unknown\nevent a\narc a b 1\n",
	"tsg unknown\nevent b\narc a b 1\n",
	"tsg delays\nevent a\nevent b\narc a b NaN\n",
	"tsg delays\nevent a\nevent b\narc a b -1\n",
	"tsg delays\nevent a\nevent b\narc a b x1\n",
	"tsg delays\nevent a\nevent b\narc a b +Inf\narc b a 0x1p-2 marked\n",
	"tsg delays\nevent a\nevent b\narc a b 1e400\n",
	"tsg q\nevent a\"b\n",
	"tsg q\nevent a # it's a comment\nevent b\narc a b 1\narc b a 1 marked\n",
	"tsg q\nevent \u00a0'a\n",
	"tsg attrs\nevent a\nevent b\narc a b 1 marked once\narc b a 1 marked\n",
	"tsg attrs\nevent a\nevent b\narc a b 1 ~uniform(1,2) ~uniform(1,3)\n",
	"tsg attrs\nevent a\nevent b\narc a b 1 @\n",
	"tsg attrs\nevent a\nevent b\narc a b 1 @x @y\n",
	"tsg attrs\nevent a\nevent b\narc a b 1 ~\n",
	"tsg attrs\nevent a\nevent b\narc a b 1 bogus\n",
	"tsg attrs\nevent a\nevent b\narc a b 1 ~uniform(2,4) @g\narc b a 1 marked ~normal(1,0.1) @g\n",
	"tsg attrs\nevent a\nevent b\narc a b 1 ~uniform(4,2)\n",
	"tsg ev\nevent a nonrepetitive\nevent b bogus\n",
	"tsg ev\nevent\n",
	"tsg ev\nevent a b c\n",
	"tsg\n",
	"tsg a b\n",
	"tsg invalid\nevent a\nevent b\narc a b 1\narc b a 1\n",
	"tsg invalid\nevent a\n",
	"bogus directive\n",
	"tsg words\nevent arc\nevent event\narc arc event 1\narc event arc 2 marked\n",
}

// TestReaderMatchesOld diffs the two readers over the fixtures, the
// round-trip corpus, the edge cases and every generator family.
func TestReaderMatchesOld(t *testing.T) {
	for name, src := range corpus(t) {
		t.Run(filepath.Base(name), func(t *testing.T) { diffReaders(t, src) })
	}
	for i, src := range edgeCases {
		t.Run("edge-"+strconv.Itoa(i), func(t *testing.T) { diffReaders(t, []byte(src)) })
	}
	random := func(n, border, extra int) func() (*sg.Graph, error) {
		return func() (*sg.Graph, error) {
			return gen.RandomLive(rand.New(rand.NewSource(int64(n))),
				gen.RandomOptions{Events: n, Border: border, ExtraArcs: extra, MaxDelay: 16})
		}
	}
	families := map[string]func() (*sg.Graph, error){
		"oscillator": func() (*sg.Graph, error) { return gen.Oscillator(), nil },
		"stack31":    func() (*sg.Graph, error) { return gen.Stack(31) },
		"ring7":      func() (*sg.Graph, error) { return gen.MullerRing(7) },
		"pipeline":   func() (*sg.Graph, error) { return gen.MullerPipeline(6, 2, 2, 1) },
		"random-20":  random(20, 3, 30),
		"random-500": random(500, 12, 800),
		"random2000": random(2000, 8, 2000),
		"pipegrid":   func() (*sg.Graph, error) { return gen.PipeGridSized(3000, 8, 3, 5) },
		"mesh":       func() (*sg.Graph, error) { return gen.Mesh(gen.MeshOptions{W: 12, H: 9, Seed: 3}) },
		"treering": func() (*sg.Graph, error) {
			return gen.TreeOfRings(gen.TreeRingOptions{Sites: 4, Levels: 3, Fanout: 2, Seed: 2})
		},
	}
	for name, build := range families {
		g, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		jitter, err := gen.CorrelatedJitter(g, 0.1, 3)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, m := range []*dist.Model{nil, jitter} {
			var buf bytes.Buffer
			if err := WriteTSGDist(&buf, g, m); err != nil {
				t.Fatal(err)
			}
			t.Run(name, func(t *testing.T) { diffReaders(t, buf.Bytes()) })
		}
	}
}

// TestLongLineIsParseError: a line over the limit is a ParseError at
// its line number, and the longest allowed line still parses.
func TestLongLineIsParseError(t *testing.T) {
	head := "tsg long\nevent a\nevent b\n"
	fits := head + "#" + strings.Repeat("x", maxLine-2) + "\narc a b 1\narc b a 1 marked\n"
	if _, err := ReadTSG(strings.NewReader(fits)); err != nil {
		t.Fatalf("a %d-byte line should parse: %v", maxLine-1, err)
	}
	diffReaders(t, []byte(fits))
	long := head + "#" + strings.Repeat("x", maxLine-1) + "\narc a b 1\n"
	_, err := ReadTSG(strings.NewReader(long))
	var pe *ParseError
	if !errors.As(err, &pe) || pe.Line != 4 {
		t.Fatalf("a %d-byte line: got %v, want a ParseError at line 4", maxLine, err)
	}
	diffReaders(t, []byte(long))
	// The same limit without a final newline, and in the other readers.
	diffReaders(t, []byte(long[:len(long)-len("\narc a b 1\n")]))
	// A line of tokens at the limit, one byte past it, and past it
	// without a final newline: the tokenizer stops at the limit.
	name := strings.Repeat("n", maxLine-1-len("event "))
	for _, tail := range []string{"\n", "n\n", "n", " \t", "n # c\n"} {
		diffReaders(t, []byte(head+"event "+name+tail))
	}
	for name, read := range map[string]func(string) error{
		"ReadG":   func(s string) error { _, err := ReadG(strings.NewReader(s)); return err },
		"ReadCKT": func(s string) error { _, err := ReadCKT(strings.NewReader(s)); return err },
	} {
		if err := read("# c\n" + strings.Repeat("y", maxLine)); !errors.As(err, &pe) || pe.Line != 2 {
			t.Fatalf("%s: got %v, want a ParseError at line 2", name, err)
		}
	}
}

// TestReaderMemoryFollowsGraph: the builder's size hints come from
// directive lines only, so directive words in comments and names cost
// no memory. A two-arc graph followed by 4 MiB of comments made of
// "arc" and "event" must allocate on the order of the input's own size
// (the read buffer, twice over under the race detector, which grows a
// bytes.Buffer through a second copy), not an element per word.
func TestReaderMemoryFollowsGraph(t *testing.T) {
	var src strings.Builder
	src.WriteString("tsg words\nevent arc\nevent event\narc arc event 1\narc event arc 2 marked\n")
	for src.Len() < 4<<20 {
		src.WriteString("#" + strings.Repeat("arcevent", 128) + "\n# event arc event arc\n")
	}
	in := src.String()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g, err := ReadTSG(strings.NewReader(in))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEvents() != 2 || g.NumArcs() != 2 {
		t.Fatalf("read %d events and %d arcs, want 2 and 2", g.NumEvents(), g.NumArcs())
	}
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(2*len(in)+64<<10); got > limit {
		t.Fatalf("reading a 2-arc graph in %d bytes of text allocated %d bytes, want at most %d", len(in), got, limit)
	}
}

// TestReaderHeapFollowsNames: the graph keeps the bytes of its event
// names, not those of the lines they came on. Each event line of the
// input carries a 1 KiB trailing comment; once the graph is read and a
// collection has run, the heap it holds must be a small multiple of
// its events, arcs and name bytes, far below the input's size.
func TestReaderHeapFollowsNames(t *testing.T) {
	const events = 2000
	comment := " # " + strings.Repeat("event arc ", 100) + "\n"
	var src strings.Builder
	src.WriteString("tsg comments\n")
	nameBytes := 0
	for i := 0; i < events; i++ {
		name := "e" + strconv.Itoa(i)
		nameBytes += len(name)
		src.WriteString("event " + name + comment)
	}
	for i := 0; i < events; i++ {
		mark := ""
		if i == events-1 {
			mark = " marked"
		}
		src.WriteString("arc e" + strconv.Itoa(i) + " e" + strconv.Itoa((i+1)%events) + " 1" + mark + "\n")
	}
	in := []byte(src.String())
	g, err := ReadTSG(bytes.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	var live, dead runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&live)
	n, m := g.NumEvents(), g.NumArcs()
	g = nil
	runtime.GC()
	runtime.ReadMemStats(&dead)
	held := int64(live.HeapAlloc) - int64(dead.HeapAlloc)
	// Per event and per arc the graph holds its record, CSR entries,
	// name index slots and order entries: under 128 bytes.
	limit := int64(128*(n+m) + 2*nameBytes + 64<<10)
	if held > limit {
		t.Fatalf("a graph of %d events (%d name bytes) read from %d bytes of text holds %d heap bytes, want at most %d",
			n, nameBytes, len(in), held, limit)
	}
	if limit > int64(len(in))/2 {
		t.Fatalf("limit %d does not separate the names from the %d bytes of text", limit, len(in))
	}
}

// TestReadTSGAllocsPerGraph: reading a graph allocates a bounded number
// of objects, whatever its number of events: no string per name, no
// object per line. The bound holds for random-2000 and for a pipegrid
// of 10⁴ events alike.
func TestReadTSGAllocsPerGraph(t *testing.T) {
	const limit = 64
	for _, c := range []struct {
		name  string
		build func() (*sg.Graph, error)
	}{
		{"random2000", func() (*sg.Graph, error) {
			return gen.RandomLive(rand.New(rand.NewSource(1)),
				gen.RandomOptions{Events: 2000, Border: 8, ExtraArcs: 2000, MaxDelay: 16})
		}},
		{"pipegrid1e4", func() (*sg.Graph, error) { return gen.PipeGridSized(10_000, 16, 4, 1) }},
	} {
		g, err := c.build()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteTSG(&buf, g); err != nil {
			t.Fatal(err)
		}
		text := buf.Bytes()
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := ReadTSG(bytes.NewReader(text)); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > limit {
			t.Errorf("%s: ReadTSG allocated %.0f times for %d events and %d arcs, want at most %d",
				c.name, allocs, g.NumEvents(), g.NumArcs(), limit)
		}
	}
}

// TestReadErrorMatchesOld: when the reader fails, the lines read before
// the failure are parsed first, and the read error is reported only if
// they parse.
func TestReadErrorMatchesOld(t *testing.T) {
	boom := errors.New("boom")
	for _, src := range []string{"", "tsg x\nevent a\n", "tsg x\nevent a\narc a", "tsg x\nevent a\narc a b 1\n"} {
		failing := func() io.Reader { return io.MultiReader(strings.NewReader(src), iotest.ErrReader(boom)) }
		_, err := ReadTSG(failing())
		_, oerr := oldBuild(failing(), (*sg.Builder).Build)
		if err == nil || oerr == nil || err.Error() != oerr.Error() {
			t.Fatalf("%q: new reader said %v, old reader %v", src, err, oerr)
		}
	}
}

// FuzzTSGReaderDiff: on any input the one-pass reader and the old
// reader agree (same graph and model, or the same error).
func FuzzTSGReaderDiff(f *testing.F) {
	for _, src := range corpus(f) {
		f.Add(src)
	}
	for _, src := range edgeCases {
		f.Add([]byte(src))
	}
	f.Fuzz(diffReaders)
}
