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

// FuzzGRoundTrip: whatever ReadG accepts, WriteG writes back in a form
// ReadG accepts again, with the same name and fingerprint. The seed
// corpus in testdata/fuzz/FuzzGRoundTrip holds the fully repetitive
// fixtures of testdata/ in .g form plus a hand-written handshake.
func FuzzGRoundTrip(f *testing.F) {
	f.Fuzz(func(t *testing.T, src []byte) {
		g, err := netlist.ReadG(bytes.NewReader(src))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := netlist.WriteG(&buf, g); err != nil {
			t.Fatalf("WriteG: %v", err)
		}
		text := buf.String()
		g2, err := netlist.ReadG(&buf)
		if err != nil {
			t.Fatalf("ReadG of written graph: %v\n%s", err, text)
		}
		if g.Name() != g2.Name() || sg.Fingerprint(g) != sg.Fingerprint(g2) {
			t.Fatalf("round trip changed the graph\n%s", text)
		}
	})
}

// FuzzCKTRoundTrip: whatever ReadCKT accepts, WriteCKT writes back in a
// form ReadCKT accepts again, and writing the reread netlist reproduces
// the same text. The seed corpus in testdata/fuzz/FuzzCKTRoundTrip holds
// the .ckt fixtures of testdata/.
func FuzzCKTRoundTrip(f *testing.F) {
	f.Fuzz(func(t *testing.T, src []byte) {
		n, err := netlist.ReadCKT(bytes.NewReader(src))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := netlist.WriteCKT(&buf, n); err != nil {
			t.Fatalf("WriteCKT: %v", err)
		}
		text := buf.String()
		n2, err := netlist.ReadCKT(&buf)
		if err != nil {
			t.Fatalf("ReadCKT of written netlist: %v\n%s", err, text)
		}
		var again bytes.Buffer
		if err := netlist.WriteCKT(&again, n2); err != nil {
			t.Fatalf("WriteCKT of reread netlist: %v", err)
		}
		if again.String() != text {
			t.Fatalf("round trip changed the netlist:\n%s\nvs\n%s", text, again.String())
		}
	})
}
