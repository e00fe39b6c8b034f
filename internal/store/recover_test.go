package store

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

// walBase writes a small valid log (a graph, an unstamped and a
// stamped edit) into a fresh directory and returns its bytes and the
// Recovery a clean re-open reports.
func walBase(t testing.TB) ([]byte, *Recovery) {
	t.Helper()
	dir := t.TempDir()
	s, _, err := Open(dir, Options{NoAutoCompact: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := s.AppendGraph("fpA", []byte("tsg a\nevent x\narc x x 1 marked\n")); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendEdit(Edit{Fingerprint: "fpA", Edits: []EditDelta{{Arc: 0, Delay: 2.5}}}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendEdit(Edit{Fingerprint: "fpA", Reset: true, Client: "c1", Seq: 3}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2, rec, err := Open(dir, Options{NoAutoCompact: true})
	if err != nil {
		t.Fatalf("re-Open: %v", err)
	}
	s2.Close()
	data, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	return data, rec
}

// checksummedFrames counts the whole frames at the start of b whose
// length fits and whose checksum holds: an independent reading of the
// frame format, used to tell a torn tail from appended records.
func checksummedFrames(b []byte) int {
	n := 0
	for len(b) >= 8 {
		l := binary.LittleEndian.Uint32(b[4:8])
		if l == 0 || uint64(l) > uint64(len(b)-8) {
			break
		}
		crc := crc32.Update(crc32.Update(0, crcTable, b[4:8]), crcTable, b[8:8+l])
		if crc != binary.LittleEndian.Uint32(b[0:4]) {
			break
		}
		n++
		b = b[8+l:]
	}
	return n
}

// FuzzWALRecover appends arbitrary bytes to a valid log and opens it.
// Open must not panic. When the bytes hold no checksummed frame it must
// recover exactly the valid records and truncate the whole tail; in
// any case the log it leaves must re-open to the same Recovery with
// nothing left to truncate.
func FuzzWALRecover(f *testing.F) {
	base, want := walBase(f)
	f.Add([]byte{})
	f.Add([]byte{0x17})
	f.Add([]byte{0, 0, 0, 0, 0xff, 0xff, 0xff, 0x3f}) // torn header claiming ~1 GiB
	f.Add(base[:len(base)/2])                         // a torn copy of the log
	f.Add(base)                                       // whole records: replayed, not truncated
	f.Fuzz(func(t *testing.T, tail []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "wal.log")
		if err := os.WriteFile(path, append(append([]byte(nil), base...), tail...), 0o666); err != nil {
			t.Fatal(err)
		}
		s, rec, err := Open(dir, Options{NoAutoCompact: true})
		if err != nil {
			if checksummedFrames(tail) == 0 {
				t.Fatalf("Open with a torn tail: %v", err)
			}
			return // a checksummed frame that does not decode is an error, not a tail
		}
		s.Close()
		if checksummedFrames(tail) == 0 {
			if rec.Records != want.Records || rec.TruncatedBytes != int64(len(tail)) ||
				!reflect.DeepEqual(rec.Graphs, want.Graphs) || !reflect.DeepEqual(rec.Edits, want.Edits) {
				t.Fatalf("recovered %+v, want %+v with %d bytes truncated", rec, want, len(tail))
			}
		} else if rec.Records < want.Records || len(rec.Edits) < len(want.Edits) || !reflect.DeepEqual(rec.Edits[:len(want.Edits)], want.Edits) {
			t.Fatalf("recovered %+v, lost part of %+v", rec, want)
		}
		s2, again, err := Open(dir, Options{NoAutoCompact: true})
		if err != nil {
			t.Fatalf("re-Open: %v", err)
		}
		s2.Close()
		rec.TruncatedBytes = 0
		if !reflect.DeepEqual(again, rec) {
			t.Fatalf("re-Open recovered %+v, first Open %+v", again, rec)
		}
	})
}

// TestTornHeaderAllocatesNoPayload: a torn header whose length field
// claims far more than the file holds is a torn tail, recognised before
// any payload buffer is allocated.
func TestTornHeaderAllocatesNoPayload(t *testing.T) {
	base, want := walBase(t)
	dir := t.TempDir()
	tail := []byte{0, 0, 0, 0, 0xff, 0xff, 0xff, 0x3f}
	if err := os.WriteFile(filepath.Join(dir, "wal.log"), append(base, tail...), 0o666); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, rec, err := Open(dir, Options{NoAutoCompact: true})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	s.Close()
	if rec.Records != want.Records || rec.TruncatedBytes != int64(len(tail)) {
		t.Fatalf("recovered %+v, want %d records and %d bytes truncated", rec, want.Records, len(tail))
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("Open allocated %d bytes for a %d-byte log", got, len(base)+len(tail))
	}
}
