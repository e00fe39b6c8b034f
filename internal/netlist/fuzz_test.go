package netlist_test

import (
	"bytes"
	"testing"

	"tsg/internal/netlist"
	"tsg/internal/sg"
)

// FuzzTSGRoundTrip: whatever ReadTSG accepts, WriteTSG writes back in a
// form ReadTSG accepts again, and the reread graph has the same
// fingerprint. No input may panic the reader or the writer. The seed
// corpus in testdata/fuzz/FuzzTSGRoundTrip holds the repository's .tsg
// fixtures plus quoted-name, marked/once and distribution-annotated
// cases.
func FuzzTSGRoundTrip(f *testing.F) {
	f.Fuzz(func(t *testing.T, src []byte) {
		g, err := netlist.ReadTSG(bytes.NewReader(src))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := netlist.WriteTSG(&buf, g); err != nil {
			t.Fatalf("WriteTSG: %v", err)
		}
		text := buf.String()
		g2, err := netlist.ReadTSG(&buf)
		if err != nil {
			t.Fatalf("ReadTSG of written graph: %v\n%s", err, text)
		}
		if a, b := sg.Fingerprint(g), sg.Fingerprint(g2); a != b {
			t.Fatalf("fingerprint changed on round trip: %s -> %s\n%s", a, b, text)
		}
	})
}
