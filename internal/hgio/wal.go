// Write-ahead logging for online ingest: a segmented, CRC32C-framed log of
// ingest batches that makes every acked POST /graphs/{name}/edges survive a
// crash (see internal/server for the serving-side contract).
//
// Layout: one directory per graph holding numbered segment files
// (wal-%016d.seg) next to the graph's checkpoint (checkpoint.go). Every
// segment starts with a fixed header whose chain field carries the running
// checksum of all payload bytes before it — in the spirit of Zipper Codes'
// segment-chained integrity checks, corruption is detected and contained
// per segment instead of silently poisoning the whole log:
//
//	magic     "HGWL"              4 bytes
//	version   uint32 LE           1
//	segno     uint64 LE           segment number (monotone, never reused
//	                              while any earlier segment survives)
//	first_seq uint64 LE           sequence of the first batch this segment
//	                              will hold (lastSeq+1 at creation)
//	chain     uint32 LE           running CRC32C over every record payload
//	                              journaled before this segment
//	hdr_crc   uint32 LE           CRC32C of the preceding 28 header bytes
//
// followed by length-prefixed record frames:
//
//	length    uint32 LE           payload byte count
//	crc       uint32 LE           CRC32C (Castagnoli) of the payload
//	payload                       one JSON-encoded WALBatch
//
// Records are framed per BATCH, not per line: an HTTP bulk-ingest request
// journals as a single frame, so a torn write drops the whole batch — the
// unit the client was (not yet) acked for — never half of one.
//
// Recovery rules (OpenWAL): segments replay in order with every frame CRC
// verified and the cross-segment chain rechecked at each header. In the
// ACTIVE (highest-numbered) segment, a damaged frame with no intact frame
// anywhere after it is the torn tail of the crash that ended the previous
// process — a torn append can garble only the suffix, so the damage is
// truncated away and the log stays writable. Everything else — a bad frame
// with an intact frame after it (torn appends cannot produce that), any
// damage in a sealed segment, a CRC-valid record that fails decoding or
// sequencing, a chain or header mismatch — is corruption: the offending
// segment is renamed *.quarantined (never deleted; operators can inspect
// it, see docs/OPERATIONS.md), replay stops, and OpenWAL returns
// ErrWALCorrupt so the serving layer can come up read-only instead of
// serving silently wrong data. A segment quarantined at an earlier boot
// stops replay the same way, before it, until an operator clears it:
// replaying the segments after it would skip its batches.
//
// Durability policy (SyncPolicy): "batch" (the default) fsyncs each
// appended batch before Append returns, so an ack means the batch is on
// disk; "none" never fsyncs on append (the OS decides; rotation and Close
// still sync). There is no group commit to share an fsync between
// batches: a graph's only writer holds its ingest lock from apply to
// publish, so no second batch arrives while the first is synced. Sealed
// segments are always fsynced at rotation regardless of policy, so
// un-fsynced bytes are confined to the active segment's tail.
package hgio

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// ErrWALCorrupt marks recovery failures that quarantined a segment (or hit
// an equally non-recoverable inconsistency): the log's surviving prefix was
// replayed, but batches may be missing, so the caller must not accept new
// writes on top.
var ErrWALCorrupt = errors.New("hgio: wal corrupt")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const (
	walMagic     = "HGWL"
	walVersion   = 1
	walHeaderLen = 32
	walFrameLen  = 8

	// maxWALRecordBytes bounds a single frame; larger lengths in a frame
	// header are corruption by definition (requests are capped far below).
	maxWALRecordBytes = 64 << 20

	// DefaultWALSegmentBytes is the rotation threshold when WALOptions
	// leaves SegmentBytes zero.
	DefaultWALSegmentBytes = 4 << 20
)

// SyncPolicy selects when appended records are fsynced.
type SyncPolicy int

const (
	// SyncBatch fsyncs every append before it returns. The zero value, and
	// the recommended default.
	SyncBatch SyncPolicy = iota
	// SyncNone never fsyncs on append; acked writes may be lost in a crash.
	SyncNone
)

// ParseSyncPolicy parses the -wal-sync flag: "batch" or "none".
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "batch":
		return SyncBatch, nil
	case "none":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("hgio: unknown sync policy %q (want batch or none)", s)
}

// String renders the policy in ParseSyncPolicy's input syntax.
func (p SyncPolicy) String() string {
	if p == SyncNone {
		return "none"
	}
	return "batch"
}

// WALFS is the filesystem surface the WAL (and checkpoint writer) runs on.
// Production uses OSFS; tests inject hgtest.FaultFS to simulate torn
// writes, fsync failures and crashes at arbitrary points.
type WALFS interface {
	OpenFile(name string, flag int, perm os.FileMode) (WALFile, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	MkdirAll(dir string, perm os.FileMode) error
	// ReadDir lists the names (not paths) of the files in dir, sorted.
	ReadDir(dir string) ([]string, error)
	// SyncDir makes directory-level mutations (create, rename, remove)
	// durable.
	SyncDir(dir string) error
}

// WALFile is the file surface of a WALFS.
type WALFile interface {
	io.Reader
	io.Writer
	io.Closer
	Sync() error
	Truncate(size int64) error
	Size() (int64, error)
}

type osFS struct{}

// OSFS is the real-filesystem WALFS.
var OSFS WALFS = osFS{}

type osFile struct{ *os.File }

func (f osFile) Size() (int64, error) {
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (WALFile, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

func (osFS) Rename(oldpath, newpath string) error        { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                    { return os.Remove(name) }
func (osFS) MkdirAll(dir string, perm os.FileMode) error { return os.MkdirAll(dir, perm) }

func (osFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	return names, nil
}

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// WALBatch is the unit of journaling: one applied ingest batch. Records
// reuse the HTTP ingest wire type verbatim (add_vertex records are
// normalised to numeric labels before journaling). VertsAfter snapshots the
// graph's vertex count after the batch applied, which is what makes
// replaying add_vertex records onto a checkpoint that already contains them
// idempotent (edge inserts and deletes are idempotent by themselves).
type WALBatch struct {
	Seq        uint64         `json:"seq"`
	VertsAfter int            `json:"verts_after,omitempty"`
	Records    []IngestRecord `json:"records"`
}

// WALOptions tunes OpenWAL.
type WALOptions struct {
	FS           WALFS // nil = OSFS
	Sync         SyncPolicy
	SegmentBytes int64 // rotation threshold; 0 = DefaultWALSegmentBytes
	// StartAfter is the checkpoint's coverage mark: batches with sequence
	// <= StartAfter are already folded into the base the caller replays
	// onto, so recovery validates but does not re-apply them, removes
	// leading segments that hold nothing else (completing the truncation a
	// crash interrupted between checkpoint and WAL.Reset), and never hands
	// out an append sequence at or below it.
	StartAfter uint64
}

// RecoveryReport describes what OpenWAL's replay found.
type RecoveryReport struct {
	// Batches/Records count the replayed volume; LastSeq is the highest
	// sequence the recovered state covers — the last replayed batch or the
	// checkpoint's StartAfter mark, whichever is greater (new appends
	// continue at +1). Skipped counts intact batches at or below
	// StartAfter that the checkpoint already contained.
	Batches int
	Records int
	Skipped int
	LastSeq uint64
	// TruncatedBytes counts torn-tail bytes dropped from the active
	// segment (at most one un-acked batch's frame).
	TruncatedBytes int64
	// Quarantined names segment files renamed *.quarantined; Reason says
	// why. Non-empty only when OpenWAL returned ErrWALCorrupt.
	Quarantined []string
	Reason      string
}

// WALStats is the WAL's current accounting, surfaced via GET /stats.
type WALStats struct {
	Segments int
	Bytes    int64
	LastSeq  uint64
	Appends  uint64
	Syncs    uint64
}

// WAL is an open, writable write-ahead log. Append is safe for concurrent
// use (appends serialise on the log's mutex, fsync included); Reset must be
// externally serialised against Append (the serving layer holds its
// per-graph ingest lock for both).
type WAL struct {
	dir  string
	fs   WALFS
	sync SyncPolicy
	segB int64

	mu        sync.Mutex
	f         WALFile
	segno     uint64
	segBytes  int64
	liveSegs  int
	liveBytes int64
	chain     uint32
	lastSeq   uint64
	err       error // latched: any write/fsync failure poisons the log
	closed    bool
	appends   uint64
	syncs     uint64
	frame     []byte // append scratch, guarded by mu
}

func segName(segno uint64) string { return fmt.Sprintf("wal-%016d.seg", segno) }

// hasIntactFrameAfter scans data[from:] for any complete frame whose CRC
// verifies. Recovery uses it to tell a torn tail (nothing intact follows
// the damage) from mid-segment corruption (intact frames survive beyond
// it, which a torn append cannot produce).
func hasIntactFrameAfter(data []byte, from int) bool {
	if from < 0 {
		from = 0
	}
	le := binary.LittleEndian
	for c := from; c+walFrameLen < len(data); c++ {
		ln := int(le.Uint32(data[c : c+4]))
		if ln <= 0 || ln > maxWALRecordBytes || ln > len(data)-c-walFrameLen {
			continue
		}
		payload := data[c+walFrameLen : c+walFrameLen+ln]
		if crc32.Checksum(payload, castagnoli) == le.Uint32(data[c+4:c+8]) {
			return true
		}
	}
	return false
}

// readSegFirstSeq best-effort reads a segment's firstSeq; ok only when the
// header is present and checksums clean.
func readSegFirstSeq(fs WALFS, p string) (uint64, bool) {
	f, err := fs.OpenFile(p, os.O_RDONLY, 0)
	if err != nil {
		return 0, false
	}
	defer f.Close()
	var hdr [walHeaderLen]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return 0, false
	}
	le := binary.LittleEndian
	if string(hdr[:4]) != walMagic || crc32.Checksum(hdr[:28], castagnoli) != le.Uint32(hdr[28:32]) {
		return 0, false
	}
	return le.Uint64(hdr[16:24]), true
}

func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".seg") {
		return 0, false
	}
	n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".seg"), 10, 64)
	return n, err == nil
}

// OpenWAL recovers the log in dir — replaying every surviving batch through
// apply, truncating a torn tail, quarantining corrupt segments — and, on
// clean recovery, opens a fresh segment for appending. On ErrWALCorrupt the
// returned WAL is nil and the report's Quarantined/Reason say what was
// contained; the replayed prefix has still been applied.
func OpenWAL(dir string, opts WALOptions, apply func(*WALBatch) error) (*WAL, RecoveryReport, error) {
	fs := opts.FS
	if fs == nil {
		fs = OSFS
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultWALSegmentBytes
	}
	var rep RecoveryReport
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, rep, err
	}
	names, err := fs.ReadDir(dir)
	if err != nil {
		return nil, rep, err
	}
	type seg struct {
		no   uint64
		name string
	}
	var segs []seg
	var held *seg // the lowest-numbered segment an earlier boot quarantined
	for _, n := range names {
		if no, ok := parseSegName(n); ok {
			segs = append(segs, seg{no, n})
		} else if no, ok := parseSegName(strings.TrimSuffix(n, ".quarantined")); ok && (held == nil || no < held.no) {
			held = &seg{no, n}
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].no < segs[j].no })
	if held != nil {
		segs = slices.DeleteFunc(segs, func(s seg) bool { return s.no > held.no })
	}

	// A segment is fully covered by the checkpoint when a later segment
	// already starts at or before StartAfter+1: everything in it replays to
	// a no-op. Such segments are exactly what the interrupted WAL.Reset was
	// about to remove — finish the job now, before validation, so damage in
	// them (they may never have been synced) cannot quarantine a log whose
	// useful suffix is intact.
	if opts.StartAfter > 0 {
		start := 0
		for i := len(segs) - 1; i > 0; i-- {
			if first, ok := readSegFirstSeq(fs, path.Join(dir, segs[i].name)); ok && first <= opts.StartAfter+1 {
				start = i
				break
			}
		}
		for _, s := range segs[:start] {
			if err := fs.Remove(path.Join(dir, s.name)); err != nil {
				return nil, rep, err
			}
		}
		segs = segs[start:]
	}

	w := &WAL{dir: dir, fs: fs, sync: opts.Sync, segB: opts.SegmentBytes, segno: 1}
	chainSeeded, seqSeeded := false, false

	quarantine := func(s seg, format string, args ...any) (*WAL, RecoveryReport, error) {
		reason := fmt.Sprintf(format, args...)
		if err := fs.Rename(path.Join(dir, s.name), path.Join(dir, s.name+".quarantined")); err == nil {
			rep.Quarantined = append(rep.Quarantined, s.name+".quarantined")
		}
		rep.Reason = fmt.Sprintf("segment %s: %s", s.name, reason)
		rep.LastSeq = w.lastSeq
		return nil, rep, fmt.Errorf("%s: %w", rep.Reason, ErrWALCorrupt)
	}

	for i, s := range segs {
		last := i == len(segs)-1 && held == nil
		p := path.Join(dir, s.name)
		f, err := fs.OpenFile(p, os.O_RDWR, 0)
		if err != nil {
			return nil, rep, err
		}
		size, err := f.Size()
		if err != nil {
			f.Close()
			return nil, rep, err
		}
		data := make([]byte, size)
		if _, err := io.ReadFull(f, data); err != nil {
			f.Close()
			return nil, rep, err
		}

		le := binary.LittleEndian
		badHeader := ""
		switch {
		case len(data) < walHeaderLen:
			badHeader = "truncated header"
		case string(data[:4]) != walMagic:
			badHeader = "bad magic"
		case crc32.Checksum(data[:28], castagnoli) != le.Uint32(data[28:32]):
			badHeader = "header checksum mismatch"
		}
		if badHeader != "" {
			f.Close()
			if !last || len(data) > walHeaderLen {
				return quarantine(s, "%s", badHeader)
			}
			// Torn segment creation: the process died before the new
			// header was durable, leaving it short or garbled. Appends
			// follow the header's fsync, so nothing was journaled in it;
			// drop it and reuse its number.
			if err := fs.Remove(p); err != nil {
				return nil, rep, err
			}
			rep.TruncatedBytes += int64(len(data))
			w.segno = s.no
			continue
		}
		if v := le.Uint32(data[4:8]); v != walVersion {
			f.Close()
			return quarantine(s, "unsupported version %d", v)
		}
		hdrSegno := le.Uint64(data[8:16])
		firstSeq := le.Uint64(data[16:24])
		prevChain := le.Uint32(data[24:28])
		if hdrSegno != s.no {
			f.Close()
			return quarantine(s, "header segment number %d does not match file name", hdrSegno)
		}
		// The oldest surviving segment seeds the chain (a checkpoint may
		// have removed its predecessors); after that every header must
		// continue the running checksum and sequence exactly.
		if !chainSeeded {
			w.chain, chainSeeded = prevChain, true
		} else if prevChain != w.chain {
			f.Close()
			return quarantine(s, "chain checksum mismatch (have %08x, segment expects %08x)", w.chain, prevChain)
		}
		if !seqSeeded {
			w.lastSeq, seqSeeded = firstSeq-1, true
		} else if firstSeq != w.lastSeq+1 {
			f.Close()
			return quarantine(s, "sequence gap (last replayed %d, segment starts at %d)", w.lastSeq, firstSeq)
		}

		off := walHeaderLen
		truncAt := -1
		// damaged classifies a bad frame: a torn tail in the active
		// segment is truncated; the same damage in a sealed segment, or
		// with an intact frame surviving beyond it (torn appends garble
		// only the suffix), is corruption and quarantines. A true return
		// means the segment was handled (truncation scheduled); false
		// falls through to quarantine at the call site.
		damaged := func(at int) bool {
			if !last || hasIntactFrameAfter(data, at+1) {
				return false
			}
			truncAt = at
			return true
		}
		for off < len(data) {
			if len(data)-off < walFrameLen {
				if damaged(off) {
					break
				}
				f.Close()
				return quarantine(s, "truncated frame header at offset %d", off)
			}
			ln := int(le.Uint32(data[off : off+4]))
			if ln > maxWALRecordBytes || walFrameLen+ln > len(data)-off {
				// The frame claims more bytes than exist (or an insane
				// length — a garbled length field looks the same).
				if damaged(off) {
					break
				}
				f.Close()
				return quarantine(s, "frame at offset %d claims %d bytes past the data", off, ln)
			}
			frameEnd := off + walFrameLen + ln
			payload := data[off+walFrameLen : frameEnd]
			if crc32.Checksum(payload, castagnoli) != le.Uint32(data[off+4:off+8]) {
				if damaged(off) {
					break
				}
				f.Close()
				return quarantine(s, "record checksum mismatch at offset %d", off)
			}
			// From here on the payload is CRC-intact, so torn writes are
			// ruled out: any anomaly is corruption regardless of position.
			var b WALBatch
			if err := json.Unmarshal(payload, &b); err != nil {
				f.Close()
				return quarantine(s, "undecodable record at offset %d: %v", off, err)
			}
			if b.Seq != w.lastSeq+1 {
				f.Close()
				return quarantine(s, "batch sequence %d at offset %d, want %d", b.Seq, off, w.lastSeq+1)
			}
			w.chain = crc32.Update(w.chain, castagnoli, payload)
			w.lastSeq = b.Seq
			if b.Seq <= opts.StartAfter {
				// The checkpoint already contains this batch; re-applying
				// is NOT a no-op (a replayed delete can undo a covered
				// re-insert), so it only validates and advances the chain.
				rep.Skipped++
				off = frameEnd
				continue
			}
			rep.Batches++
			rep.Records += len(b.Records)
			if apply != nil {
				if err := apply(&b); err != nil {
					f.Close()
					rep.Reason = fmt.Sprintf("segment %s: replaying batch %d: %v", s.name, b.Seq, err)
					rep.LastSeq = w.lastSeq
					return nil, rep, fmt.Errorf("%s: %w", rep.Reason, ErrWALCorrupt)
				}
			}
			off = frameEnd
		}
		if truncAt >= 0 {
			rep.TruncatedBytes += int64(len(data) - truncAt)
			if err := f.Truncate(int64(truncAt)); err != nil {
				f.Close()
				return nil, rep, err
			}
			if err := f.Sync(); err != nil {
				f.Close()
				return nil, rep, err
			}
			data = data[:truncAt]
		}
		f.Close()
		w.liveSegs++
		w.liveBytes += int64(len(data))
		w.segno = s.no + 1
	}
	if held != nil {
		rep.Quarantined = []string{held.name}
		rep.Reason = fmt.Sprintf("segment %s was quarantined at an earlier boot", held.name)
		rep.LastSeq = w.lastSeq
		return nil, rep, fmt.Errorf("%s: %w", rep.Reason, ErrWALCorrupt)
	}
	// The append sequence must clear the checkpoint's coverage even when
	// the log holds less (a torn tail inside covered territory, or an empty
	// directory): a fresh append re-using a covered sequence would be
	// skipped as already-checkpointed by the NEXT recovery.
	if w.lastSeq < opts.StartAfter {
		w.lastSeq = opts.StartAfter
	}
	rep.LastSeq = w.lastSeq

	// Recovery always starts a fresh segment: the previous active segment
	// (torn tail already truncated) is sealed in place, and the new header
	// re-anchors the chain and sequence for appends.
	w.mu.Lock()
	err = w.openSegmentLocked()
	w.mu.Unlock()
	if err != nil {
		return nil, rep, err
	}
	return w, rep, nil
}

// openSegmentLocked creates segment w.segno with the current chain/sequence
// state and makes it durable (file + directory fsync).
func (w *WAL) openSegmentLocked() error {
	var hdr [walHeaderLen]byte
	le := binary.LittleEndian
	copy(hdr[:4], walMagic)
	le.PutUint32(hdr[4:8], walVersion)
	le.PutUint64(hdr[8:16], w.segno)
	le.PutUint64(hdr[16:24], w.lastSeq+1)
	le.PutUint32(hdr[24:28], w.chain)
	le.PutUint32(hdr[28:32], crc32.Checksum(hdr[:28], castagnoli))

	f, err := w.fs.OpenFile(path.Join(w.dir, segName(w.segno)), os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := w.fs.SyncDir(w.dir); err != nil {
		f.Close()
		return err
	}
	w.f = f
	w.segBytes = walHeaderLen
	w.liveSegs++
	w.liveBytes += walHeaderLen
	return nil
}

// rotateLocked closes the active segment, which its last append's fsync
// sealed (so policy "none" never leaves un-fsynced bytes behind a seal),
// and opens the next one.
func (w *WAL) rotateLocked() error {
	if err := w.f.Close(); err != nil {
		return err
	}
	w.segno++
	return w.openSegmentLocked()
}

// Append journals one batch, assigning b.Seq, and returns once the record
// is fsynced ("none" returns after the OS write). Any error poisons the
// WAL: the caller must stop acking writes (read-only mode) because
// durability can no longer be promised. A batch whose fsync fails — its
// own, or the seal of the segment it fills — is refused: its frame is
// truncated back out of the segment, so a restart never replays a batch
// its caller was told failed. Should that rollback fail as well, the
// error says the batch may reappear after a restart. A batch that is
// durable but leaves the next segment unopened is accepted, and the log
// is poisoned for the batches after it.
func (w *WAL) Append(b *WALBatch) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return errors.New("hgio: wal closed")
	}
	b.Seq = w.lastSeq + 1
	payload, err := json.Marshal(b)
	if err != nil {
		return err
	}
	if len(payload) > maxWALRecordBytes {
		return fmt.Errorf("hgio: wal batch of %d bytes exceeds the %d-byte record bound", len(payload), maxWALRecordBytes)
	}
	w.frame = w.frame[:0]
	w.frame = binary.LittleEndian.AppendUint32(w.frame, uint32(len(payload)))
	w.frame = binary.LittleEndian.AppendUint32(w.frame, crc32.Checksum(payload, castagnoli))
	w.frame = append(w.frame, payload...)
	if _, err := w.f.Write(w.frame); err != nil {
		return w.fail(err)
	}
	// A frame that fills the segment is fsynced under either policy: that
	// fsync is the segment's seal.
	full := w.segBytes+int64(len(w.frame)) >= w.segB
	if full || w.sync != SyncNone {
		if err := w.f.Sync(); err != nil {
			return w.refuseLocked(err)
		}
		w.syncs++
	}
	w.lastSeq = b.Seq
	w.chain = crc32.Update(w.chain, castagnoli, payload)
	w.segBytes += int64(len(w.frame))
	w.liveBytes += int64(len(w.frame))
	w.appends++
	if full {
		if err := w.rotateLocked(); err != nil {
			w.fail(err)
		}
	}
	return nil
}

// refuseLocked truncates the active segment back to its size before the
// frame just written, fsyncs it, and latches err, which it returns; a
// failed rollback is named in the latched error.
func (w *WAL) refuseLocked(err error) error {
	rerr := w.f.Truncate(w.segBytes)
	if rerr == nil {
		rerr = w.f.Sync()
	}
	if rerr != nil {
		err = fmt.Errorf("%w; rolling its frame back failed too (%v), so the batch may reappear after a restart", err, rerr)
	}
	return w.fail(err)
}

func (w *WAL) fail(err error) error {
	if w.err == nil {
		w.err = err
	}
	return w.err
}

// Reset truncates the log after a checkpoint: every segment is deleted
// (the checkpoint now carries their batches) and a fresh segment re-anchors
// the chain at zero with the sequence numbering continuing. The caller must
// hold its ingest lock so no Append races the truncation. A crash part-way
// through is safe: replaying any surviving suffix of deleted-then-kept
// segments onto the checkpoint is idempotent (see WALBatch).
func (w *WAL) Reset() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return errors.New("hgio: wal closed")
	}
	if err := w.f.Close(); err != nil {
		return w.fail(err)
	}
	names, err := w.fs.ReadDir(w.dir)
	if err != nil {
		return w.fail(err)
	}
	for _, n := range names {
		if _, ok := parseSegName(n); ok {
			if err := w.fs.Remove(path.Join(w.dir, n)); err != nil {
				return w.fail(err)
			}
		}
	}
	if err := w.fs.SyncDir(w.dir); err != nil {
		return w.fail(err)
	}
	w.liveSegs, w.liveBytes = 0, 0
	w.chain = 0
	w.segno++
	if err := w.openSegmentLocked(); err != nil {
		return w.fail(err)
	}
	return nil
}

// Close flushes and closes the log. Safe to call on a poisoned WAL.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	var err error
	if w.f != nil {
		if w.err == nil {
			err = w.f.Sync()
		}
		if cerr := w.f.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Stats reports the WAL's current accounting.
func (w *WAL) Stats() WALStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return WALStats{
		Segments: w.liveSegs,
		Bytes:    w.liveBytes,
		LastSeq:  w.lastSeq,
		Appends:  w.appends,
		Syncs:    w.syncs,
	}
}

// Err returns the latched failure, if any.
func (w *WAL) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}
