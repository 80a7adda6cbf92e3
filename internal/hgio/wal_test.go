package hgio_test

// WAL unit tests, driven through the hgtest fault-injection filesystem so
// every durability claim is exercised against simulated torn writes, bit
// flips and fsync failures (crash-at-every-point stress lives in
// internal/server's crash tests; this file pins the log's own contract).

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"math/rand"
	"os"
	"path"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"hgmatch/internal/hgio"
	"hgmatch/internal/hgtest"
)

func insRec(vs ...uint32) hgio.IngestRecord {
	return hgio.IngestRecord{Op: "insert", Vertices: vs}
}

// collect returns an apply callback recording every replayed batch.
func collect(got *[]hgio.WALBatch) func(*hgio.WALBatch) error {
	return func(b *hgio.WALBatch) error {
		cp := *b
		cp.Records = append([]hgio.IngestRecord(nil), b.Records...)
		*got = append(*got, cp)
		return nil
	}
}

func mustOpen(t *testing.T, dir string, opts hgio.WALOptions, apply func(*hgio.WALBatch) error) (*hgio.WAL, hgio.RecoveryReport) {
	t.Helper()
	w, rep, err := hgio.OpenWAL(dir, opts, apply)
	if err != nil {
		t.Fatalf("OpenWAL: %v (report %+v)", err, rep)
	}
	return w, rep
}

func TestParseSyncPolicy(t *testing.T) {
	cases := []struct {
		in   string
		want hgio.SyncPolicy
		ok   bool
	}{
		{"none", hgio.SyncNone, true},
		{"batch", hgio.SyncBatch, true},
		{"", 0, false},
		{"fsync", 0, false},
		{"always", 0, false},
		{"batch:64", 0, false},
		{"batch:5ms", 0, false},
		{"batch:-1", 0, false},
		{"batch:oops", 0, false},
	}
	for _, c := range cases {
		got, err := hgio.ParseSyncPolicy(c.in)
		if (err == nil) != c.ok {
			t.Errorf("ParseSyncPolicy(%q) error = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("ParseSyncPolicy(%q) = %v, want %v", c.in, got, c.want)
		}
		if c.ok {
			// String() must round-trip through the parser.
			back, err := hgio.ParseSyncPolicy(got.String())
			if err != nil || back != got {
				t.Errorf("round-trip %q -> %q -> %v (%v)", c.in, got.String(), back, err)
			}
		}
	}
}

// TestWALRoundTrip appends across a close/reopen boundary and checks every
// batch replays in order with continuous sequencing.
func TestWALRoundTrip(t *testing.T) {
	fs := hgtest.NewFaultFS()
	opts := hgio.WALOptions{FS: fs, Sync: hgio.SyncBatch}
	w, rep := mustOpen(t, "wal", opts, nil)
	if rep.Batches != 0 || rep.LastSeq != 0 {
		t.Fatalf("fresh log reported recovery %+v", rep)
	}
	var want []hgio.WALBatch
	for i := 0; i < 5; i++ {
		b := hgio.WALBatch{Records: []hgio.IngestRecord{insRec(uint32(i), uint32(i+1))}}
		if err := w.Append(&b); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if b.Seq != uint64(i+1) {
			t.Fatalf("append %d assigned seq %d", i, b.Seq)
		}
		want = append(want, b)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// A frame as logs written before carry it, with "verts_after": it
	// replays like any other, the field ignored.
	seg := walFiles(fs)[0]
	data, _ := fs.ReadFileData(seg)
	payload := []byte(`{"seq":6,"verts_after":5,"records":[{"op":"insert","vertices":[5,6]}]}`)
	data = binary.LittleEndian.AppendUint32(data, uint32(len(payload)))
	data = binary.LittleEndian.AppendUint32(data, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	sf, err := fs.OpenFile(seg, os.O_TRUNC|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	sf.Write(append(data, payload...))
	sf.Close()
	want = append(want, hgio.WALBatch{Seq: 6, Records: []hgio.IngestRecord{insRec(5, 6)}})

	var got []hgio.WALBatch
	w2, rep2 := mustOpen(t, "wal", opts, collect(&got))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed %+v, want %+v", got, want)
	}
	if rep2.Batches != 6 || rep2.LastSeq != 6 || rep2.TruncatedBytes != 0 {
		t.Fatalf("recovery report %+v", rep2)
	}
	// Appends continue the sequence after recovery.
	b := hgio.WALBatch{Records: []hgio.IngestRecord{insRec(9, 10)}}
	if err := w2.Append(&b); err != nil {
		t.Fatal(err)
	}
	if b.Seq != 7 {
		t.Fatalf("post-recovery append got seq %d, want 7", b.Seq)
	}
	w2.Close()
}

// TestWALRotationChain forces rotation every few records and checks the
// cross-segment chain recovers, including when a checkpoint-style Reset
// removed early segments.
func TestWALRotationChain(t *testing.T) {
	fs := hgtest.NewFaultFS()
	opts := hgio.WALOptions{FS: fs, Sync: hgio.SyncBatch, SegmentBytes: 128}
	w, _ := mustOpen(t, "wal", opts, nil)
	for i := 0; i < 20; i++ {
		if err := w.Append(&hgio.WALBatch{Records: []hgio.IngestRecord{insRec(uint32(i), uint32(i+1))}}); err != nil {
			t.Fatal(err)
		}
	}
	if st := w.Stats(); st.Segments < 3 {
		t.Fatalf("expected rotation, got %d segments (%d bytes)", st.Segments, st.Bytes)
	}
	w.Close()

	var got []hgio.WALBatch
	w2, rep := mustOpen(t, "wal", opts, collect(&got))
	if rep.Batches != 20 || rep.LastSeq != 20 {
		t.Fatalf("recovered %+v", rep)
	}
	for i, b := range got {
		if b.Seq != uint64(i+1) {
			t.Fatalf("batch %d has seq %d", i, b.Seq)
		}
	}
	w2.Close()
}

// TestWALReset pins checkpoint-truncation semantics: old segments go away,
// sequence numbering continues, and a reopen sees only post-reset batches.
func TestWALReset(t *testing.T) {
	fs := hgtest.NewFaultFS()
	opts := hgio.WALOptions{FS: fs, Sync: hgio.SyncBatch, SegmentBytes: 128}
	w, _ := mustOpen(t, "wal", opts, nil)
	for i := 0; i < 10; i++ {
		if err := w.Append(&hgio.WALBatch{Records: []hgio.IngestRecord{insRec(uint32(i), uint32(i+1))}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Reset(); err != nil {
		t.Fatalf("reset: %v", err)
	}
	if st := w.Stats(); st.Segments != 1 {
		t.Fatalf("post-reset segments = %d, want 1", st.Segments)
	}
	b := hgio.WALBatch{Records: []hgio.IngestRecord{insRec(100, 101)}}
	if err := w.Append(&b); err != nil {
		t.Fatal(err)
	}
	if b.Seq != 11 {
		t.Fatalf("post-reset seq = %d, want 11 (numbering must survive truncation)", b.Seq)
	}
	w.Close()

	var got []hgio.WALBatch
	w2, rep := mustOpen(t, "wal", opts, collect(&got))
	if len(got) != 1 || got[0].Seq != 11 || rep.LastSeq != 11 {
		t.Fatalf("post-reset recovery got %+v (report %+v)", got, rep)
	}
	w2.Close()
}

// TestWALBootSyncsActiveSegment: a Reset whose fresh segment's fsync
// fails leaves that header in the page cache only. The next boot reads it
// and opens a segment behind it; it must make the segment it seals durable
// first, or a later crash tears the header of a segment that is no longer
// the last, and the boot after that quarantines the log.
func TestWALBootSyncsActiveSegment(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		fs := hgtest.NewFaultFS()
		opts := hgio.WALOptions{FS: fs, Sync: hgio.SyncBatch}
		w, _ := mustOpen(t, "wal", opts, nil)
		if err := w.Append(&hgio.WALBatch{Records: []hgio.IngestRecord{insRec(1, 2)}}); err != nil {
			t.Fatal(err)
		}
		fs.FailSync(2) // Reset syncs the directory, then the fresh header
		if err := w.Reset(); !errors.Is(err, hgtest.ErrInjectedSyncFailure) {
			t.Fatalf("reset with a failing header fsync: %v", err)
		}
		w.Close()
		w, _ = mustOpen(t, "wal", opts, nil)
		if err := w.Append(&hgio.WALBatch{Records: []hgio.IngestRecord{insRec(2, 3)}}); err != nil {
			t.Fatal(err)
		}
		var got []hgio.WALBatch
		opts.FS = fs.CrashImage(rand.New(rand.NewSource(seed)))
		if _, rep, err := hgio.OpenWAL("wal", opts, collect(&got)); err != nil || len(got) != 1 || got[0].Seq != 2 {
			t.Fatalf("seed %d: boot after a crash: %v, replayed %+v (report %+v)", seed, err, got, rep)
		}
	}
}

// walFiles lists the wal segment files currently in the fault FS.
func walFiles(fs *hgtest.FaultFS) []string {
	var segs []string
	for _, n := range fs.FileNames() {
		if strings.Contains(path.Base(n), "wal-") {
			segs = append(segs, n)
		}
	}
	return segs
}

// TestWALTornTail chops the active segment mid-frame and checks recovery
// truncates the tear, keeps everything before it, and stays writable.
func TestWALTornTail(t *testing.T) {
	fs := hgtest.NewFaultFS()
	opts := hgio.WALOptions{FS: fs, Sync: hgio.SyncBatch}
	w, _ := mustOpen(t, "wal", opts, nil)
	for i := 0; i < 4; i++ {
		if err := w.Append(&hgio.WALBatch{Records: []hgio.IngestRecord{insRec(uint32(i), uint32(i+1))}}); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	segs := walFiles(fs)
	if len(segs) != 1 {
		t.Fatalf("segments = %v", segs)
	}
	active := segs[0]
	size := fs.FileSize(active)
	f, err := fs.OpenFile(active, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(size - 7); err != nil { // mid-frame: tears batch 4
		t.Fatal(err)
	}
	f.Close()

	var got []hgio.WALBatch
	w2, rep := mustOpen(t, "wal", opts, collect(&got))
	if len(got) != 3 || rep.LastSeq != 3 {
		t.Fatalf("after torn tail recovered %d batches (report %+v), want 3", len(got), rep)
	}
	if rep.TruncatedBytes == 0 {
		t.Fatalf("report did not count truncated bytes: %+v", rep)
	}
	// The log must remain writable and re-recoverable after the repair.
	b := hgio.WALBatch{Records: []hgio.IngestRecord{insRec(50, 51)}}
	if err := w2.Append(&b); err != nil {
		t.Fatal(err)
	}
	if b.Seq != 4 {
		t.Fatalf("post-repair seq = %d, want 4 (the torn, unacked batch's number is reused)", b.Seq)
	}
	w2.Close()
	got = nil
	w3, rep3 := mustOpen(t, "wal", opts, collect(&got))
	if len(got) != 4 || rep3.LastSeq != 4 {
		t.Fatalf("re-recovery got %d batches, want 4 (%+v)", len(got), rep3)
	}
	w3.Close()
}

// TestWALTornSegmentHeader pins the crash between creating a segment and
// fsyncing its header: a header-only active segment whose header is cut
// short or garbled held no batch, so recovery drops it and stays
// writable. The same damage in front of a journaled frame is corruption.
func TestWALTornSegmentHeader(t *testing.T) {
	for _, tc := range []struct {
		name    string
		frames  int // appended to the second segment
		damage  func(fs *hgtest.FaultFS, seg string) error
		corrupt bool
	}{
		{"cut", 0, func(fs *hgtest.FaultFS, seg string) error {
			f, err := fs.OpenFile(seg, os.O_RDWR, 0)
			if err != nil {
				return err
			}
			defer f.Close()
			return f.Truncate(20)
		}, false},
		{"garbled", 0, func(fs *hgtest.FaultFS, seg string) error { return fs.Corrupt(seg, 30, 0x5a) }, false},
		{"garbled before a frame", 1, func(fs *hgtest.FaultFS, seg string) error { return fs.Corrupt(seg, 30, 0x5a) }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := hgtest.NewFaultFS()
			opts := hgio.WALOptions{FS: fs, Sync: hgio.SyncBatch}
			w, _ := mustOpen(t, "wal", opts, nil)
			for i := 0; i < 3; i++ {
				if err := w.Append(&hgio.WALBatch{Records: []hgio.IngestRecord{insRec(uint32(i), uint32(i+1))}}); err != nil {
					t.Fatal(err)
				}
			}
			w.Close()
			w, _ = mustOpen(t, "wal", opts, nil) // recovery opens segment 2
			for i := 0; i < tc.frames; i++ {
				if err := w.Append(&hgio.WALBatch{Records: []hgio.IngestRecord{insRec(7, 8)}}); err != nil {
					t.Fatal(err)
				}
			}
			w.Close()
			segs := walFiles(fs)
			if len(segs) != 2 {
				t.Fatalf("segments = %v", segs)
			}
			if err := tc.damage(fs, segs[1]); err != nil {
				t.Fatal(err)
			}

			var got []hgio.WALBatch
			w2, rep, err := hgio.OpenWAL("wal", opts, collect(&got))
			if tc.corrupt {
				if !errors.Is(err, hgio.ErrWALCorrupt) || len(rep.Quarantined) != 1 {
					t.Fatalf("damaged header before a frame: err %v, report %+v; want one quarantined segment", err, rep)
				}
				return
			}
			if err != nil || len(got) != 3 || rep.LastSeq != 3 || rep.TruncatedBytes == 0 || len(rep.Quarantined) != 0 {
				t.Fatalf("torn header recovered %d batches, report %+v, err %v; want 3 and the segment dropped", len(got), rep, err)
			}
			b := hgio.WALBatch{Records: []hgio.IngestRecord{insRec(9, 10)}}
			if err := w2.Append(&b); err != nil || b.Seq != 4 {
				t.Fatalf("append after repair: seq %d, err %v; want 4", b.Seq, err)
			}
			w2.Close()
		})
	}
}

// TestWALQuarantine covers the corruption cases that must quarantine and
// refuse writes rather than truncate: a bit flip in a sealed segment, and
// a bit flip mid-segment with intact frames after it.
func TestWALQuarantine(t *testing.T) {
	build := func(t *testing.T, segBytes int64) (*hgtest.FaultFS, hgio.WALOptions) {
		fs := hgtest.NewFaultFS()
		opts := hgio.WALOptions{FS: fs, Sync: hgio.SyncBatch, SegmentBytes: segBytes}
		w, _ := mustOpen(t, "wal", opts, nil)
		for i := 0; i < 12; i++ {
			if err := w.Append(&hgio.WALBatch{Records: []hgio.IngestRecord{insRec(uint32(i), uint32(i+1))}}); err != nil {
				t.Fatal(err)
			}
		}
		w.Close()
		return fs, opts
	}
	check := func(t *testing.T, fs *hgtest.FaultFS, opts hgio.WALOptions) {
		t.Helper()
		var got []hgio.WALBatch
		w, rep, err := hgio.OpenWAL("wal", opts, collect(&got))
		if !errors.Is(err, hgio.ErrWALCorrupt) {
			t.Fatalf("OpenWAL error = %v, want ErrWALCorrupt (report %+v)", err, rep)
		}
		if w != nil {
			t.Fatal("corrupt log returned a writable WAL")
		}
		if len(rep.Quarantined) == 0 || rep.Reason == "" {
			t.Fatalf("report %+v: quarantine not recorded", rep)
		}
		found := false
		for _, n := range fs.FileNames() {
			if strings.HasSuffix(n, ".quarantined") {
				found = true
			}
		}
		if !found {
			t.Fatalf("no *.quarantined file on disk: %v", fs.FileNames())
		}
		// A later boot stops at the quarantined segment too: it replays
		// what the first boot replayed and names the held segment.
		var again []hgio.WALBatch
		_, rep2, err := hgio.OpenWAL("wal", opts, collect(&again))
		if !errors.Is(err, hgio.ErrWALCorrupt) || len(again) != len(got) || rep2.LastSeq != rep.LastSeq {
			t.Fatalf("reopen after quarantine: %v, replaying %d batches to seq %d; the first boot %d to seq %d", err, len(again), rep2.LastSeq, len(got), rep.LastSeq)
		}
		for i := range again {
			if again[i].Seq != got[i].Seq {
				t.Fatalf("reopen replayed seq %d at %d, the first boot seq %d", again[i].Seq, i, got[i].Seq)
			}
		}
		if len(rep2.Quarantined) != 1 || rep2.Quarantined[0] != rep.Quarantined[0] || fs.FileSize("wal/"+rep2.Quarantined[0]) < 0 || rep2.Reason == "" {
			t.Fatalf("reopen report %+v, want the held segment %s", rep2, rep.Quarantined[0])
		}
	}

	t.Run("sealed segment bit flip", func(t *testing.T) {
		fs, opts := build(t, 128) // many sealed segments
		segs := walFiles(fs)
		if len(segs) < 3 {
			t.Fatalf("want rotation, got %v", segs)
		}
		// Flip a payload byte in the middle of the FIRST (sealed) segment.
		if err := fs.Corrupt(segs[0], fs.FileSize(segs[0])/2, 0x40); err != nil {
			t.Fatal(err)
		}
		check(t, fs, opts)
	})
	t.Run("mid-segment flip with intact frames after", func(t *testing.T) {
		fs, opts := build(t, hgio.DefaultWALSegmentBytes) // single active segment
		segs := walFiles(fs)
		if len(segs) != 1 {
			t.Fatalf("want one segment, got %v", segs)
		}
		// Flip a byte just past the header: damages an early frame while
		// later frames stay intact — corruption, not a torn tail.
		if err := fs.Corrupt(segs[0], 40, 0x08); err != nil {
			t.Fatal(err)
		}
		check(t, fs, opts)
	})
	t.Run("chain mismatch across segments", func(t *testing.T) {
		fs, opts := build(t, 128)
		segs := walFiles(fs)
		// Remove a middle segment: its successor's header chain/seq no
		// longer match what replay accumulated.
		if err := fs.Remove(segs[1]); err != nil {
			t.Fatal(err)
		}
		check(t, fs, opts)
	})
}

// TestWALSyncFailureLatches pins the poisoned-log contract: after one
// failed fsync the append errors and every later append fails fast — the
// serving layer relies on this to stop acking.
func TestWALSyncFailureLatches(t *testing.T) {
	fs := hgtest.NewFaultFS()
	opts := hgio.WALOptions{FS: fs, Sync: hgio.SyncBatch}
	w, _ := mustOpen(t, "wal", opts, nil)
	if err := w.Append(&hgio.WALBatch{Records: []hgio.IngestRecord{insRec(1, 2)}}); err != nil {
		t.Fatal(err)
	}
	fs.FailSync(1)
	if err := w.Append(&hgio.WALBatch{Records: []hgio.IngestRecord{insRec(2, 3)}}); !errors.Is(err, hgtest.ErrInjectedSyncFailure) {
		t.Fatalf("append with failing fsync: %v, want injected failure", err)
	}
	if err := w.Append(&hgio.WALBatch{Records: []hgio.IngestRecord{insRec(3, 4)}}); err == nil {
		t.Fatal("append after fsync failure succeeded; the log must stay poisoned")
	}
	if w.Err() == nil {
		t.Fatal("Err() = nil on poisoned log")
	}
	w.Close()
}

// TestWALRefusedFrameRollsBack: a batch refused because its fsync failed
// leaves no frame behind — the segment is back at its size before the
// append and a reopen replays only the batch before it — and when the
// rollback fails as well, the error says the batch may come back.
func TestWALRefusedFrameRollsBack(t *testing.T) {
	fs := hgtest.NewFaultFS()
	opts := hgio.WALOptions{FS: fs, Sync: hgio.SyncBatch}
	w, _ := mustOpen(t, "wal", opts, nil)
	if err := w.Append(&hgio.WALBatch{Records: []hgio.IngestRecord{insRec(1, 2)}}); err != nil {
		t.Fatal(err)
	}
	sizes := func() map[string]int64 {
		m := map[string]int64{}
		for _, n := range fs.FileNames() {
			m[n] = fs.FileSize(n)
		}
		return m
	}
	want := sizes()
	fs.FailSync(1)
	err := w.Append(&hgio.WALBatch{Records: []hgio.IngestRecord{insRec(2, 3)}})
	if !errors.Is(err, hgtest.ErrInjectedSyncFailure) || strings.Contains(err.Error(), "reappear") {
		t.Fatalf("append with failing fsync: %v, want the injected failure, rolled back", err)
	}
	if got := sizes(); !maps.Equal(got, want) {
		t.Fatalf("files after the refused append: %v, want %v", got, want)
	}
	w.Close()
	var replayed int
	w2, rep := mustOpen(t, "wal", opts, func(*hgio.WALBatch) error { replayed++; return nil })
	if replayed != 1 || rep.LastSeq != 1 {
		t.Fatalf("reopen replayed %d batches up to seq %d, want the one acked batch", replayed, rep.LastSeq)
	}

	fs.CrashAfter(1) // the frame's write lands; its fsync and the rollback fail
	if err := w2.Append(&hgio.WALBatch{Records: []hgio.IngestRecord{insRec(3, 4)}}); err == nil ||
		!strings.Contains(err.Error(), "may reappear after a restart") {
		t.Fatalf("append whose rollback fails: %v, want it to say the batch may reappear", err)
	}
	w2.Close()
}

// TestWALShortWritePoisons: a batch whose frame write is cut short (a full
// disk) poisons the log, and a reopen over the same files drops the torn
// frame: it replays only the batch before it and comes back writable.
func TestWALShortWritePoisons(t *testing.T) {
	for _, sync := range []hgio.SyncPolicy{hgio.SyncBatch, hgio.SyncNone} {
		fs := hgtest.NewFaultFS()
		opts := hgio.WALOptions{FS: fs, Sync: sync}
		w, _ := mustOpen(t, "wal", opts, nil)
		if err := w.Append(&hgio.WALBatch{Records: []hgio.IngestRecord{insRec(1, 2)}}); err != nil {
			t.Fatal(err)
		}
		fs.FailWrite(1)
		if err := w.Append(&hgio.WALBatch{Records: []hgio.IngestRecord{insRec(2, 3)}}); !errors.Is(err, hgtest.ErrInjectedWriteFailure) {
			t.Fatalf("%s: append with a short write: %v, want the injected failure", sync, err)
		}
		if err := w.Append(&hgio.WALBatch{Records: []hgio.IngestRecord{insRec(3, 4)}}); err == nil || w.Err() == nil {
			t.Fatalf("%s: append after a short write: %v; the log must stay poisoned", sync, err)
		}
		w.Close()
		var got []hgio.WALBatch
		w2, rep := mustOpen(t, "wal", opts, collect(&got))
		if len(got) != 1 || got[0].Seq != 1 || rep.LastSeq != 1 {
			t.Fatalf("%s: reopen replayed %+v up to seq %d, want the one batch before the short write", sync, got, rep.LastSeq)
		}
		w2.Close()
	}
}

// TestWALSealedBatchSurvivesRotationFailure: a batch whose frame fills
// its segment is durable once the seal's fsync returns, so a failure to
// open the next segment accepts it, poisons the log for the batches
// after it, and a reopen replays it.
func TestWALSealedBatchSurvivesRotationFailure(t *testing.T) {
	fs := hgtest.NewFaultFS()
	opts := hgio.WALOptions{FS: fs, Sync: hgio.SyncBatch, SegmentBytes: 64}
	w, _ := mustOpen(t, "wal", opts, nil)
	fs.FailSync(2) // the seal's fsync succeeds; the next segment's header sync fails
	if err := w.Append(&hgio.WALBatch{Records: []hgio.IngestRecord{insRec(1, 2)}}); err != nil {
		t.Fatalf("sealed append: %v, want it accepted", err)
	}
	if err := w.Append(&hgio.WALBatch{Records: []hgio.IngestRecord{insRec(2, 3)}}); !errors.Is(err, hgtest.ErrInjectedSyncFailure) {
		t.Fatalf("append after the failed rotation: %v, want the latched failure", err)
	}
	w.Close()
	var replayed int
	w2, _ := mustOpen(t, "wal", opts, func(*hgio.WALBatch) error { replayed++; return nil })
	defer w2.Close()
	if replayed != 1 {
		t.Fatalf("reopen replayed %d batches, want the sealed one", replayed)
	}
}

// TestWALConcurrentBatchAppend hammers Append from concurrent writers:
// all must come back with unique contiguous sequences. Under "batch" every
// ack costs exactly one fsync (a rotating append's seal fsync is its
// ack's); under "none" the only fsyncs are the seals.
func TestWALConcurrentBatchAppend(t *testing.T) {
	for _, policy := range []hgio.SyncPolicy{hgio.SyncBatch, hgio.SyncNone} {
		t.Run(policy.String(), func(t *testing.T) {
			fs := hgtest.NewFaultFS()
			opts := hgio.WALOptions{FS: fs, Sync: policy, SegmentBytes: 1024}
			w, _ := mustOpen(t, "wal", opts, nil)
			const (
				writers = 8
				each    = 25
			)
			var wg sync.WaitGroup
			seqs := make([][]uint64, writers)
			for g := 0; g < writers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < each; i++ {
						b := hgio.WALBatch{Records: []hgio.IngestRecord{insRec(uint32(g), uint32(1000+i))}}
						if err := w.Append(&b); err != nil {
							t.Errorf("writer %d append %d: %v", g, i, err)
							return
						}
						seqs[g] = append(seqs[g], b.Seq)
					}
				}(g)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			seen := make(map[uint64]bool)
			for _, s := range seqs {
				for _, q := range s {
					if seen[q] {
						t.Fatalf("sequence %d assigned twice", q)
					}
					seen[q] = true
				}
			}
			for q := uint64(1); q <= writers*each; q++ {
				if !seen[q] {
					t.Fatalf("sequence %d missing", q)
				}
			}
			st := w.Stats()
			rotations := uint64(st.Segments - 1)
			if rotations == 0 {
				t.Fatalf("no rotation in %d bytes; the seal case is not exercised", st.Bytes)
			}
			want := st.Appends
			if policy == hgio.SyncNone {
				want = rotations
			}
			if st.Appends != writers*each || st.Syncs != want {
				t.Fatalf("stats %+v: %d syncs, want %d (%d rotations)", st, st.Syncs, want, rotations)
			}
			w.Close()
			var got []hgio.WALBatch
			w2, rep := mustOpen(t, "wal", opts, collect(&got))
			if rep.Batches != writers*each {
				t.Fatalf("recovered %d batches, want %d", rep.Batches, writers*each)
			}
			w2.Close()
		})
	}
}

// TestWALCrashImageRecovery drives the full fault loop at the hgio level:
// append under each sync policy, crash-image the filesystem, recover, and
// check the durable prefix property the serving layer builds on.
func TestWALCrashImageRecovery(t *testing.T) {
	for _, mode := range []hgio.SyncPolicy{hgio.SyncBatch, hgio.SyncNone} {
		t.Run(mode.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			for iter := 0; iter < 40; iter++ {
				fs := hgtest.NewFaultFS()
				opts := hgio.WALOptions{FS: fs, Sync: mode, SegmentBytes: 256}
				w, _ := mustOpen(t, "wal", opts, nil)
				acked := uint64(0)
				total := 12
				killAt := fs.Ops() + int64(rng.Intn(60))
				fs.CrashAfter(killAt - fs.Ops())
				for i := 0; i < total; i++ {
					b := hgio.WALBatch{Records: []hgio.IngestRecord{insRec(uint32(i), uint32(i+1))}}
					if err := w.Append(&b); err != nil {
						break
					}
					acked = b.Seq
				}
				img := fs.CrashImage(rng)
				var got []hgio.WALBatch
				w2, rep, err := hgio.OpenWAL("wal", hgio.WALOptions{FS: img, Sync: mode, SegmentBytes: 256}, collect(&got))
				if err != nil {
					t.Fatalf("iter %d (killAt %d): recovery failed: %v (report %+v)", iter, killAt, err, rep)
				}
				// Replay must be a contiguous prefix 1..LastSeq...
				for i, b := range got {
					if b.Seq != uint64(i+1) {
						t.Fatalf("iter %d: batch %d has seq %d", iter, i, b.Seq)
					}
				}
				// ...and with fsync on the ack path, cover every acked seq.
				if mode != hgio.SyncNone && rep.LastSeq < acked {
					t.Fatalf("iter %d (killAt %d): acked through seq %d but recovered only %d", iter, killAt, acked, rep.LastSeq)
				}
				w2.Close()
				w.Close()
			}
		})
	}
}

// TestWALStartAfter pins the checkpoint-coverage contract: recovery with
// StartAfter=N validates but does not re-apply batches 1..N (a crash
// between the checkpoint rename and WAL.Reset leaves them in the log),
// removes leading segments the interrupted truncation would have removed,
// and never hands out an append sequence at or below the mark even when
// the surviving log ends short of it.
func TestWALStartAfter(t *testing.T) {
	fs := hgtest.NewFaultFS()
	fill := func(dir string, opts hgio.WALOptions) {
		w, _ := mustOpen(t, dir, opts, nil)
		for i := 0; i < 6; i++ {
			if err := w.Append(&hgio.WALBatch{Records: []hgio.IngestRecord{insRec(uint32(i), uint32(i+1))}}); err != nil {
				t.Fatal(err)
			}
		}
		w.Close()
	}

	// All six batches in ONE segment: a checkpoint covering through 4 whose
	// truncation never ran must skip 1..4 in place and replay only 5, 6.
	opts := hgio.WALOptions{FS: fs, Sync: hgio.SyncBatch}
	fill("d", opts)
	after := opts
	after.StartAfter = 4
	var got []hgio.WALBatch
	w2, rep := mustOpen(t, "d", after, collect(&got))
	if rep.Skipped != 4 || rep.Batches != 2 || rep.LastSeq != 6 {
		t.Fatalf("recovery %+v, want 4 skipped, 2 replayed, last seq 6", rep)
	}
	if len(got) != 2 || got[0].Seq != 5 || got[1].Seq != 6 {
		t.Fatalf("replayed %+v, want seqs 5,6", got)
	}
	w2.Close()

	// One batch per segment: the same mark must remove the fully-covered
	// leading segments (finishing the interrupted truncation) and still
	// replay the tail.
	small := hgio.WALOptions{FS: fs, Sync: hgio.SyncBatch, SegmentBytes: 128}
	fill("d2", small)
	segsBefore := len(walFiles(fs)) // d's + d2's segments
	smallAfter := small
	smallAfter.StartAfter = 4
	got = nil
	w2b, rep := mustOpen(t, "d2", smallAfter, collect(&got))
	if rep.Batches != 2 || len(got) != 2 || got[0].Seq != 5 || got[1].Seq != 6 {
		t.Fatalf("segmented recovery %+v (replayed %+v), want seqs 5,6", rep, got)
	}
	if n := len(walFiles(fs)); n >= segsBefore {
		t.Fatalf("covered segments not removed: %d segments before, %d after", segsBefore, n)
	}
	w2b.Close()

	// Checkpoint covers MORE than the log holds (the log's tail was torn
	// inside covered territory): nothing replays, and the next append must
	// clear the mark — re-using a covered sequence would be skipped as
	// already-checkpointed by the next recovery.
	after.StartAfter = 10
	got = nil
	w3, rep := mustOpen(t, "d", after, collect(&got))
	if rep.Batches != 0 || len(got) != 0 || rep.LastSeq != 10 {
		t.Fatalf("recovery %+v (replayed %d), want nothing replayed and last seq 10", rep, len(got))
	}
	b := hgio.WALBatch{Records: []hgio.IngestRecord{insRec(7, 8)}}
	if err := w3.Append(&b); err != nil {
		t.Fatal(err)
	}
	if b.Seq != 11 {
		t.Fatalf("append after covered recovery got seq %d, want 11", b.Seq)
	}
	w3.Close()
}

// TestCheckpointRoundTrip checks the atomic save/load pair, including the
// missing and corrupt cases the registry's recovery branches on.
func TestCheckpointRoundTrip(t *testing.T) {
	fs := hgtest.NewFaultFS()
	if err := fs.MkdirAll("g", 0o755); err != nil {
		t.Fatal(err)
	}
	if _, _, found, err := hgio.LoadCheckpoint(fs, "g"); found || err != nil {
		t.Fatalf("empty dir: found=%v err=%v", found, err)
	}
	h := hgtest.Fig1Data()
	if err := hgio.SaveCheckpoint(fs, "g", h, 42); err != nil {
		t.Fatalf("save: %v", err)
	}
	got, seq, found, err := hgio.LoadCheckpoint(fs, "g")
	if err != nil || !found || seq != 42 {
		t.Fatalf("load: seq=%d found=%v err=%v", seq, found, err)
	}
	if got.NumEdges() != h.NumEdges() || got.NumVertices() != h.NumVertices() {
		t.Fatalf("round-trip mismatch: %v vs %v", got, h)
	}
	// Corrupt the checkpoint: load must report found=true with an error,
	// never silently hand back a broken graph.
	if err := fs.Corrupt(path.Join("g", hgio.CheckpointFile), 20, 0xFF); err != nil {
		t.Fatal(err)
	}
	if _, _, found, err := hgio.LoadCheckpoint(fs, "g"); !found || err == nil {
		t.Fatalf("corrupt checkpoint: found=%v err=%v, want found+error", found, err)
	}
}

// TestCheckpointVersions pins the checkpoint's trailer: a version 2 file
// whose coverage mark or trailer is damaged is unreadable, and so is a
// version 1 file, which had no trailer: found, with an error, as recovery
// needs to quarantine it. Its graph stays readable by hand.
func TestCheckpointVersions(t *testing.T) {
	fs := hgtest.NewFaultFS()
	if err := fs.MkdirAll("g", 0o755); err != nil {
		t.Fatal(err)
	}
	cp := path.Join("g", hgio.CheckpointFile)
	h := hgtest.Fig1Data()
	if err := hgio.SaveCheckpoint(fs, "g", h, 7); err != nil {
		t.Fatal(err)
	}
	v2, err := fs.ReadFileData(cp)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Corrupt(cp, 8, 0x01); err != nil { // covered seq 7 -> 6
		t.Fatal(err)
	}
	if _, seq, found, err := hgio.LoadCheckpoint(fs, "g"); !found || err == nil {
		t.Fatalf("flipped coverage mark loaded as seq %d (found=%v err=%v)", seq, found, err)
	}

	write := func(data []byte) {
		t.Helper()
		f, err := fs.OpenFile(cp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(data); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	write(v2[:len(v2)-2])
	if _, _, found, err := hgio.LoadCheckpoint(fs, "g"); !found || err == nil {
		t.Fatalf("torn trailer: found=%v err=%v, want found+error", found, err)
	}

	// Version 1: the same header with version 1 and no trailer.
	v1 := bytes.Clone(v2[:len(v2)-4])
	binary.LittleEndian.PutUint32(v1[4:8], 1)
	write(v1)
	if _, _, found, err := hgio.LoadCheckpoint(fs, "g"); !found || err == nil || !strings.Contains(err.Error(), "unsupported version 1") {
		t.Fatalf("version 1 checkpoint: found=%v err=%v, want found+unsupported version", found, err)
	}
	// The runbook's rescue: the file after its header is an HGB2 graph.
	if got, err := hgio.ReadBinary(bytes.NewReader(v1[16:])); err != nil || got.NumEdges() != h.NumEdges() || !slices.Equal(got.Labels(), h.Labels()) {
		t.Fatalf("version 1 checkpoint's graph: %v", err)
	}
}

// TestWALOnOSFilesystem smoke-tests the default OSFS path end to end in a
// temp dir: everything else in this file runs on the in-memory fault FS.
func TestWALOnOSFilesystem(t *testing.T) {
	dir := path.Join(t.TempDir(), "wal")
	opts := hgio.WALOptions{Sync: hgio.SyncBatch, SegmentBytes: 256}
	w, _ := mustOpen(t, dir, opts, nil)
	for i := 0; i < 10; i++ {
		if err := w.Append(&hgio.WALBatch{Records: []hgio.IngestRecord{insRec(uint32(i), uint32(i+1))}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := hgio.SaveCheckpoint(nil, dir, hgtest.Fig1Data(), 0); err != nil {
		t.Fatal(err)
	}
	w.Close()
	var got []hgio.WALBatch
	w2, rep := mustOpen(t, dir, opts, collect(&got))
	if rep.Batches != 10 || rep.LastSeq != 10 {
		t.Fatalf("recovered %+v", rep)
	}
	if _, _, found, err := hgio.LoadCheckpoint(nil, dir); !found || err != nil {
		t.Fatalf("checkpoint on OS fs: found=%v err=%v", found, err)
	}
	if err := w2.Reset(); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	if fmt.Sprint(walFilesOS(t, dir)) == "[]" {
		t.Fatal("reset left no active segment")
	}
}

func walFilesOS(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "wal-") {
			segs = append(segs, e.Name())
		}
	}
	return segs
}
