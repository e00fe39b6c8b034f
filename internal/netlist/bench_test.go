package netlist_test

import (
	"bytes"
	"math/rand"
	"testing"

	"tsg/internal/gen"
	"tsg/internal/netlist"
	"tsg/internal/sg"
)

// BenchmarkReadTSG times ReadTSG (tokenise, build, validate) on the
// text of the batch benchmark's two larger graphs.
func BenchmarkReadTSG(b *testing.B) {
	for _, c := range []struct {
		name  string
		build func() (*sg.Graph, error)
	}{
		{"random2000", func() (*sg.Graph, error) {
			return gen.RandomLive(rand.New(rand.NewSource(1)),
				gen.RandomOptions{Events: 2000, Border: 8, ExtraArcs: 2000, MaxDelay: 16})
		}},
		{"pipegrid1e5", func() (*sg.Graph, error) { return gen.PipeGridSized(100_000, 16, 4, 1) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			g, err := c.build()
			if err != nil {
				b.Fatal(err)
			}
			var buf bytes.Buffer
			if err := netlist.WriteTSG(&buf, g); err != nil {
				b.Fatal(err)
			}
			text := buf.Bytes()
			b.SetBytes(int64(len(text)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := netlist.ReadTSG(bytes.NewReader(text)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
