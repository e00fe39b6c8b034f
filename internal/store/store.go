// Package store is the durability substrate of the analysis service:
// an append-only, checksummed, fsync'd log of uploaded graph bodies
// and committed delay edits, keyed by content fingerprint. A serving
// node appends every durable mutation before applying it (write-ahead
// discipline) and replays the log on boot, so a node killed mid-traffic
// recovers its whole working set — every resident graph and every
// committed edit — and re-applies the edits to bit-identical λ.
//
// Log format. One file, dir/wal.log, holding framed records:
//
//	[crc32c uint32][length uint32][payload: type byte + fields]
//
// The checksum (Castagnoli, the storage-standard polynomial) covers
// the length and payload, so a frame whose header or body was torn by
// a crash never replays as data. Fields inside the payload are
// length-prefixed (strings, byte bodies) or fixed-width little-endian
// (counts, sequence numbers, float64 delay bits), making the encoding
// unambiguous for arbitrary fingerprints and graph text.
//
// Durability. Append returns only after the record bytes are written
// AND fsynced; the directory itself is synced when the log is created
// and after every compaction rename, so the file's existence and its
// replacement are durable too. A record the caller saw acknowledged is
// therefore on stable storage — the crash/restart experiment (exp
// CHAOS) SIGKILLs a node mid-traffic and asserts exactly that.
//
// Recovery is torn-tail tolerant: replay stops at the first frame that
// is incomplete or fails its checksum, the tail past the last good
// frame is truncated, and the store reopens for appending at that
// offset. A crash can therefore lose at most the single record whose
// Append never returned — never a previously acknowledged one, and it
// can never make the log unreadable.
//
// Compaction. The live state of a log — latest body per fingerprint,
// cumulative delay edits, highest applied sequence number per client —
// is typically far smaller than the append history. When the log grows
// past a multiple of its live size (or on explicit Compact), the store
// rewrites the live state into dir/wal.compact, fsyncs it, and renames
// it over the log: crash-atomic (rename is atomic; a crash before the
// rename leaves the old log intact, the orphaned temp file is ignored
// and removed on the next Open), and replay of the compacted log
// reconstructs the exact same state — same delays, same dedupe table.
//
// Fault injection. The writer exposes named crash points (Arm): the
// next matching operation stops exactly there — after a torn prefix of
// a frame, before the fsync, before the compaction rename — and the
// store marks itself dead, emulating the process being killed at that
// instant. The CHAOS experiment drives recovery through each of them.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Record types. On-disk values; never renumber.
const (
	recGraph byte = 1 // fingerprint + graph body (.tsg text, dist annotations included)
	recEdit  byte = 2 // fingerprint + reset flag + client/seq + canonical-arc delay edits
)

// FailPoint names a crash site inside the writer for fault injection.
type FailPoint int

const (
	// FailNone disarms fault injection.
	FailNone FailPoint = iota
	// FailBeforeWrite crashes before any byte of the next record lands.
	FailBeforeWrite
	// FailPartialWrite crashes after writing a strict prefix of the next
	// record's frame — the torn write a real crash can leave.
	FailPartialWrite
	// FailBeforeSync crashes after the next record's frame is fully
	// written but before it is fsynced (the record may or may not
	// survive a real crash; replay must cope either way).
	FailBeforeSync
	// FailBeforeCompactRename crashes after the compacted log is written
	// and synced but before it is renamed over the live log.
	FailBeforeCompactRename
)

// ErrCrashed is returned by operations cut short by an armed FailPoint,
// and by every operation after one fired: the store emulates a killed
// process and must be re-Opened (a "restart") to be used again.
var ErrCrashed = errors.New("store: crashed at armed fail point")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// EditDelta is one committed delay assignment of an edit record. Arc is
// a canonical rank (sg.CanonicalArcOrder) — invariant under the
// declaration order of the graph body, so replay applies it to the
// same physical arc whatever order the body parses in.
type EditDelta struct {
	Arc   int
	Delay float64
}

// Edit is one committed edit record: the graph it applies to, the
// optional reset-to-nominal preceding the deltas, and the client
// sequence stamp the serving layer dedupes retries with (empty Client
// means unstamped). Replaying a log applies its edits in order.
type Edit struct {
	Fingerprint string
	Reset       bool
	Client      string
	Seq         uint64
	Edits       []EditDelta
}

// GraphBody is one persisted graph upload.
type GraphBody struct {
	Fingerprint string
	Body        []byte
}

// Recovery reports what Open replayed from an existing log.
type Recovery struct {
	// Graphs holds the latest persisted body per fingerprint, in first-
	// appearance order.
	Graphs []GraphBody
	// Edits holds every committed edit record, in append order.
	Edits []Edit
	// Records is the number of intact records replayed.
	Records int
	// TruncatedBytes is the size of the torn tail dropped past the last
	// intact record (0 for a clean log).
	TruncatedBytes int64
}

// graphState is the store's live mirror of one fingerprint: the data
// compaction rewrites.
type graphState struct {
	body    []byte
	deltas  map[int]float64   // canonical arc -> current delay (diverged from body)
	reset   bool              // a reset not yet overridden by deltas covering it
	seqs    map[string]uint64 // client -> highest appended seq
	arrival int               // first-appearance order for deterministic compaction
}

// Store is an open write-ahead log.
type Store struct {
	mu   sync.Mutex
	dir  string
	f    *os.File
	size int64
	dead bool

	graphs      map[string]*graphState
	nextArrival int

	// compactFloor is the minimum log size before auto-compaction is
	// considered; compactFactor the growth multiple of the live size
	// that triggers it.
	compactFloor int64
	liveSize     int64 // estimated size of a freshly compacted log

	armed       FailPoint
	compactions int64

	syncObs func(bytes int, seconds float64)
}

// Options tunes Open.
type Options struct {
	// CompactFloor is the minimum log size (bytes) before automatic
	// compaction is considered (default 1 MiB). Compaction triggers when
	// the log exceeds both the floor and 4× the live-state estimate.
	CompactFloor int64
	// NoAutoCompact disables size-triggered compaction; Compact can
	// still be called explicitly (the fault harness uses this to keep
	// every record on disk).
	NoAutoCompact bool
}

// Open opens (creating if absent) the write-ahead log in dir and
// replays it: the returned Recovery holds every intact graph body and
// edit record; a torn tail is truncated and reported. The directory is
// created if needed.
func Open(dir string, opts Options) (*Store, *Recovery, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	// A temp file from a compaction that crashed before its rename is
	// dead weight: the live log is still authoritative.
	_ = os.Remove(filepath.Join(dir, "wal.compact"))
	path := filepath.Join(dir, "wal.log")
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o666)
	if err != nil {
		return nil, nil, fmt.Errorf("store: opening %s: %w", path, err)
	}
	s := &Store{
		dir:          dir,
		f:            f,
		graphs:       map[string]*graphState{},
		compactFloor: opts.CompactFloor,
	}
	if s.compactFloor <= 0 {
		s.compactFloor = 1 << 20
	}
	if opts.NoAutoCompact {
		s.compactFloor = math.MaxInt64
	}
	rec, err := s.replay()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, nil, err
	}
	return s, rec, nil
}

// replay reads the log from the start, folding records into the live
// mirror and the Recovery report, truncating any torn tail.
func (s *Store) replay() (*Recovery, error) {
	rec := &Recovery{}
	var off int64
	var header [8]byte
	buf := make([]byte, 4096)
	st, err := s.f.Stat()
	if err != nil {
		return nil, fmt.Errorf("store: sizing log: %w", err)
	}
	for {
		if _, err := io.ReadFull(s.f, header[:]); err != nil {
			if err != io.EOF && err != io.ErrUnexpectedEOF {
				return nil, fmt.Errorf("store: reading log header at %d: %w", off, err)
			}
			break // clean end, or torn header
		}
		wantCRC := binary.LittleEndian.Uint32(header[0:4])
		length := binary.LittleEndian.Uint32(header[4:8])
		if length == 0 || int64(length) > st.Size()-off-8 {
			break // garbage length, or longer than the file: torn tail
		}
		if int(length) > len(buf) {
			buf = make([]byte, length)
		}
		payload := buf[:length]
		if _, err := io.ReadFull(s.f, payload); err != nil {
			if err != io.EOF && err != io.ErrUnexpectedEOF {
				return nil, fmt.Errorf("store: reading log payload at %d: %w", off, err)
			}
			break // torn payload
		}
		crc := crc32.Update(0, crcTable, header[4:8])
		crc = crc32.Update(crc, crcTable, payload)
		if crc != wantCRC {
			break // corrupt record: treat as tail, stop replay
		}
		if err := s.fold(payload, rec); err != nil {
			return nil, err
		}
		off += 8 + int64(length)
		rec.Records++
	}
	end, err := s.f.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, fmt.Errorf("store: seeking log end: %w", err)
	}
	if end > off {
		rec.TruncatedBytes = end - off
		if err := s.f.Truncate(off); err != nil {
			return nil, fmt.Errorf("store: truncating torn tail at %d: %w", off, err)
		}
		if err := s.f.Sync(); err != nil {
			return nil, fmt.Errorf("store: syncing truncated log: %w", err)
		}
	}
	if _, err := s.f.Seek(off, io.SeekStart); err != nil {
		return nil, fmt.Errorf("store: seeking append offset: %w", err)
	}
	s.size = off
	// Recovery reports graph bodies in first-appearance order.
	ordered := make([]*graphState, 0, len(s.graphs))
	byState := map[*graphState]string{}
	for fp, gs := range s.graphs {
		ordered = append(ordered, gs)
		byState[gs] = fp
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].arrival < ordered[j].arrival })
	for _, gs := range ordered {
		rec.Graphs = append(rec.Graphs, GraphBody{Fingerprint: byState[gs], Body: gs.body})
	}
	return rec, nil
}

// fold applies one decoded record payload to the live mirror and the
// Recovery report.
func (s *Store) fold(payload []byte, rec *Recovery) error {
	d := decoder{b: payload}
	switch typ := d.byte_(); typ {
	case recGraph:
		fp := d.str()
		body := d.bytes()
		if d.err != nil {
			return fmt.Errorf("store: decoding graph record: %w", d.err)
		}
		gs := s.state(fp)
		gs.body = body
	case recEdit:
		e := Edit{Fingerprint: d.str()}
		e.Reset = d.byte_() != 0
		e.Client = d.str()
		e.Seq = d.u64()
		n := int(d.u32())
		if d.err == nil && n > len(d.b)/12 {
			d.err = fmt.Errorf("edit count %d exceeds payload", n)
		}
		for i := 0; i < n && d.err == nil; i++ {
			e.Edits = append(e.Edits, EditDelta{Arc: int(d.u32()), Delay: d.f64()})
		}
		if d.err != nil {
			return fmt.Errorf("store: decoding edit record: %w", d.err)
		}
		s.foldEdit(e)
		if rec != nil {
			rec.Edits = append(rec.Edits, e)
		}
	default:
		return fmt.Errorf("store: unknown record type %d", typ)
	}
	return nil
}

// foldEdit merges one edit into the live mirror (the state compaction
// rewrites).
func (s *Store) foldEdit(e Edit) {
	gs := s.state(e.Fingerprint)
	if e.Reset {
		gs.deltas = nil
		gs.reset = true
	}
	for _, ed := range e.Edits {
		if gs.deltas == nil {
			gs.deltas = map[int]float64{}
		}
		gs.deltas[ed.Arc] = ed.Delay
	}
	if e.Client != "" && e.Seq > gs.seqs[e.Client] {
		if gs.seqs == nil {
			gs.seqs = map[string]uint64{}
		}
		gs.seqs[e.Client] = e.Seq
	}
}

// state returns (creating) the mirror entry for a fingerprint.
func (s *Store) state(fp string) *graphState {
	gs := s.graphs[fp]
	if gs == nil {
		gs = &graphState{arrival: s.nextArrival}
		s.nextArrival++
		s.graphs[fp] = gs
	}
	return gs
}

// HasGraph reports whether a body for the fingerprint is persisted.
func (s *Store) HasGraph(fp string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	gs := s.graphs[fp]
	return gs != nil && gs.body != nil
}

// AppendGraph persists a graph body under its fingerprint. Returns
// after the record is on stable storage.
func (s *Store) AppendGraph(fp string, body []byte) error {
	var e encoder
	e.byte_(recGraph)
	e.str(fp)
	e.bytes(body)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.append(e.b); err != nil {
		return err
	}
	s.state(fp).body = append([]byte(nil), body...)
	return s.maybeCompact()
}

// AppendEdit persists a committed edit record. Returns after the
// record is on stable storage — callers append BEFORE applying the
// edit to their engine (write-ahead), so an acknowledged edit is never
// lost and a lost edit was never acknowledged.
func (s *Store) AppendEdit(ed Edit) error {
	var e encoder
	e.byte_(recEdit)
	e.str(ed.Fingerprint)
	if ed.Reset {
		e.byte_(1)
	} else {
		e.byte_(0)
	}
	e.str(ed.Client)
	e.u64(ed.Seq)
	e.u32(uint32(len(ed.Edits)))
	for _, d := range ed.Edits {
		e.u32(uint32(d.Arc))
		e.f64(d.Delay)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.append(e.b); err != nil {
		return err
	}
	s.foldEdit(ed)
	return s.maybeCompact()
}

// SetSyncObserver installs a hook invoked after every durable append
// with the frame size and the wall time the write+fsync took — the
// serving layer feeds it into the WAL latency histogram. Pass nil to
// remove. Safe to call while the store is in use.
func (s *Store) SetSyncObserver(fn func(bytes int, seconds float64)) {
	s.mu.Lock()
	s.syncObs = fn
	s.mu.Unlock()
}

// append frames, writes and fsyncs one record. Callers hold s.mu.
func (s *Store) append(payload []byte) error {
	if s.dead {
		return ErrCrashed
	}
	frame := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(frame[4:8], uint32(len(payload)))
	copy(frame[8:], payload)
	crc := crc32.Update(0, crcTable, frame[4:8])
	crc = crc32.Update(crc, crcTable, payload)
	binary.LittleEndian.PutUint32(frame[0:4], crc)

	switch s.armed {
	case FailBeforeWrite:
		return s.crash()
	case FailPartialWrite:
		// A real torn write: a strict prefix of the frame lands (cutting
		// through the payload so the checksum cannot hold), then the
		// process dies.
		if _, err := s.f.Write(frame[:len(frame)/2+1]); err != nil {
			return fmt.Errorf("store: torn write: %w", err)
		}
		_ = s.f.Sync()
		return s.crash()
	}
	start := time.Now()
	if _, err := s.f.Write(frame); err != nil {
		return fmt.Errorf("store: appending record: %w", err)
	}
	if s.armed == FailBeforeSync {
		return s.crash()
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("store: syncing log: %w", err)
	}
	s.size += int64(len(frame))
	if s.syncObs != nil {
		s.syncObs(len(frame), time.Since(start).Seconds())
	}
	return nil
}

// crash marks the store dead (armed fail point fired). Callers hold s.mu.
func (s *Store) crash() error {
	s.dead = true
	s.armed = FailNone
	return ErrCrashed
}

// Arm sets the fail point the next matching operation crashes at.
func (s *Store) Arm(p FailPoint) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.armed = p
}

// maybeCompact triggers compaction when the log has grown past the
// floor and past 4× the live-state estimate. Callers hold s.mu.
func (s *Store) maybeCompact() error {
	if s.size < s.compactFloor || s.size < 4*s.estimateLive() {
		return nil
	}
	return s.compactLocked()
}

// estimateLive approximates the size of a freshly compacted log.
func (s *Store) estimateLive() int64 {
	var sz int64
	for fp, gs := range s.graphs {
		if gs.body != nil {
			sz += int64(len(fp) + len(gs.body) + 32)
		}
		sz += int64(len(gs.deltas))*12 + 64
		for c := range gs.seqs {
			sz += int64(len(c)) + 32
		}
	}
	return sz
}

// Compact rewrites the log to its live state: one graph record per
// persisted body, one merged edit record carrying the cumulative
// deltas, and one stamp record per client preserving the dedupe table.
// Replaying the compacted log reconstructs exactly the same engine
// state (edits set absolute delays, so merged order is immaterial) and
// the same highest-seq-per-client map. Crash-atomic via rename.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactLocked()
}

// Compactions returns the number of compactions this Store has run.
func (s *Store) Compactions() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactions
}

// Size returns the current log size in bytes.
func (s *Store) Size() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.size
}

func (s *Store) compactLocked() error {
	if s.dead {
		return ErrCrashed
	}
	tmpPath := filepath.Join(s.dir, "wal.compact")
	tmp, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o666)
	if err != nil {
		return fmt.Errorf("store: creating compaction file: %w", err)
	}
	defer tmp.Close()

	var size int64
	write := func(payload []byte) error {
		frame := make([]byte, 8+len(payload))
		binary.LittleEndian.PutUint32(frame[4:8], uint32(len(payload)))
		copy(frame[8:], payload)
		crc := crc32.Update(0, crcTable, frame[4:8])
		crc = crc32.Update(crc, crcTable, payload)
		binary.LittleEndian.PutUint32(frame[0:4], crc)
		_, err := tmp.Write(frame)
		size += int64(len(frame))
		return err
	}

	// Deterministic order: fingerprints by first appearance, clients and
	// arcs sorted.
	type fpState struct {
		fp string
		gs *graphState
	}
	ordered := make([]fpState, 0, len(s.graphs))
	for fp, gs := range s.graphs {
		ordered = append(ordered, fpState{fp, gs})
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].gs.arrival < ordered[j].gs.arrival })
	for _, st := range ordered {
		fp, gs := st.fp, st.gs
		if gs.body != nil {
			var e encoder
			e.byte_(recGraph)
			e.str(fp)
			e.bytes(gs.body)
			if err := write(e.b); err != nil {
				return fmt.Errorf("store: writing compacted graph: %w", err)
			}
		}
		if gs.reset || len(gs.deltas) > 0 {
			var e encoder
			e.byte_(recEdit)
			e.str(fp)
			if gs.reset {
				e.byte_(1)
			} else {
				e.byte_(0)
			}
			e.str("")
			e.u64(0)
			arcs := make([]int, 0, len(gs.deltas))
			for a := range gs.deltas {
				arcs = append(arcs, a)
			}
			sort.Ints(arcs)
			e.u32(uint32(len(arcs)))
			for _, a := range arcs {
				e.u32(uint32(a))
				e.f64(gs.deltas[a])
			}
			if err := write(e.b); err != nil {
				return fmt.Errorf("store: writing compacted edits: %w", err)
			}
		}
		clients := make([]string, 0, len(gs.seqs))
		for c := range gs.seqs {
			clients = append(clients, c)
		}
		sort.Strings(clients)
		for _, c := range clients {
			var e encoder
			e.byte_(recEdit)
			e.str(fp)
			e.byte_(0)
			e.str(c)
			e.u64(gs.seqs[c])
			e.u32(0)
			if err := write(e.b); err != nil {
				return fmt.Errorf("store: writing compacted seq stamp: %w", err)
			}
		}
	}
	if err := tmp.Sync(); err != nil {
		return fmt.Errorf("store: syncing compaction file: %w", err)
	}
	if s.armed == FailBeforeCompactRename {
		return s.crash()
	}
	if err := os.Rename(tmpPath, filepath.Join(s.dir, "wal.log")); err != nil {
		return fmt.Errorf("store: installing compacted log: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		return err
	}
	// The renamed temp handle stays valid for the now-live log; reopen a
	// fresh handle on it anyway (the deferred Close above closes tmp) and
	// retire the pre-compaction handle.
	f, err := os.OpenFile(filepath.Join(s.dir, "wal.log"), os.O_RDWR, 0o666)
	if err != nil {
		return fmt.Errorf("store: reopening compacted log: %w", err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return fmt.Errorf("store: seeking compacted log end: %w", err)
	}
	s.f.Close()
	s.f = f
	s.size = size
	s.liveSize = size
	s.compactions++
	return nil
}

// Close syncs and closes the log. The store is unusable afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead {
		return nil
	}
	s.dead = true
	if err := s.f.Sync(); err != nil {
		s.f.Close()
		return fmt.Errorf("store: syncing on close: %w", err)
	}
	return s.f.Close()
}

// syncDir fsyncs a directory so entry creation/rename is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: opening %s for sync: %w", dir, err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: syncing %s: %w", dir, err)
	}
	return nil
}

// --- payload encoding ---------------------------------------------------

type encoder struct{ b []byte }

func (e *encoder) byte_(v byte) { e.b = append(e.b, v) }
func (e *encoder) u32(v uint32) {
	var s [4]byte
	binary.LittleEndian.PutUint32(s[:], v)
	e.b = append(e.b, s[:]...)
}
func (e *encoder) u64(v uint64) {
	var s [8]byte
	binary.LittleEndian.PutUint64(s[:], v)
	e.b = append(e.b, s[:]...)
}
func (e *encoder) f64(v float64) { e.u64(math.Float64bits(v)) }
func (e *encoder) bytes(v []byte) {
	e.u32(uint32(len(v)))
	e.b = append(e.b, v...)
}
func (e *encoder) str(v string) {
	e.u32(uint32(len(v)))
	e.b = append(e.b, v...)
}

type decoder struct {
	b   []byte
	err error
}

func (d *decoder) need(n int) bool {
	if d.err != nil {
		return false
	}
	if len(d.b) < n {
		d.err = fmt.Errorf("record truncated: need %d bytes, have %d", n, len(d.b))
		return false
	}
	return true
}
func (d *decoder) byte_() byte {
	if !d.need(1) {
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}
func (d *decoder) u32() uint32 {
	if !d.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b)
	d.b = d.b[4:]
	return v
}
func (d *decoder) u64() uint64 {
	if !d.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}
func (d *decoder) f64() float64 { return math.Float64frombits(d.u64()) }
func (d *decoder) bytes() []byte {
	n := int(d.u32())
	if !d.need(n) {
		return nil
	}
	v := append([]byte(nil), d.b[:n]...)
	d.b = d.b[n:]
	return v
}
func (d *decoder) str() string { return string(d.bytes()) }
