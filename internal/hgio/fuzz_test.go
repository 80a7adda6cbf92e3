package hgio_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path"
	"slices"
	"strings"
	"testing"

	"hgmatch/internal/hgio"
	"hgmatch/internal/hgtest"
	"hgmatch/internal/hypergraph"
)

// FuzzReadBinary feeds arbitrary bytes to the binary reader. It must never
// panic; any input it accepts must decode to a graph that passes Validate
// and survives WriteBinary → ReadBinary with the same storage. Seeds: the
// committed Fig. 1 golden, its older full-index encoding and its v3 twin,
// the hgtest serving graphs and the crafted headers of the allocation
// tests. The serving graphs go in
// as HGB2 only: an HGB3 image pads its sections to 4 KiB, and every large
// seed slows the fuzzer's minimisation.
func FuzzReadBinary(f *testing.F) {
	golden, err := os.ReadFile("testdata/fig1.v2.hgb")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	old, err := os.ReadFile(fullIndexFixture)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(old)
	var v3 bytes.Buffer
	if err := hgio.WriteBinaryV3(&v3, hgtest.Fig1Data()); err != nil {
		f.Fatal(err)
	}
	f.Add(v3.Bytes())
	f.Add(inflatedEdgeCountV2())
	f.Add(sharedPartitionEdgeV2())
	for _, g := range hgtest.ServingGraphs() {
		var v2 bytes.Buffer
		if err := hgio.WriteBinary(&v2, g.Graph); err != nil {
			f.Fatal(err)
		}
		f.Add(v2.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := hgio.ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := h.Validate(); err != nil {
			t.Fatalf("accepted input decodes to an invalid graph: %v", err)
		}
		var buf bytes.Buffer
		if err := hgio.WriteBinary(&buf, h); err != nil {
			t.Fatalf("writing an accepted graph: %v", err)
		}
		h2, err := hgio.ReadBinary(&buf)
		if err != nil {
			t.Fatalf("re-reading a written graph: %v", err)
		}
		if err := storageDiff(h, h2); err != nil {
			t.Fatalf("WriteBinary → ReadBinary changed the storage: %v", err)
		}
	})
}

// FuzzMapBytes feeds arbitrary bytes to the zero-copy attach, the only
// gate between an HGB3 file and the server. It must never panic; any input
// it accepts must pass Validate and carry exactly the storage ReadBinary
// decodes from the same bytes. The header checksum is re-sealed before the
// attach, so mutations of the header and section directory reach the
// structural checks behind it; the payload stays under its checksum
// (verification on), which is what the attach trusts content to. Seeds:
// the v3 twin of the Fig. 1 golden, the v3 twin of its older full-index
// encoding (every table indexed, as files written before small tables
// dropped their index), the hgtest serving graphs as HGB3, and the Fig. 1
// image with a misaligned section offset.
func FuzzMapBytes(f *testing.F) {
	var fig1 bytes.Buffer
	if err := hgio.WriteBinaryV3(&fig1, hgtest.Fig1Data()); err != nil {
		f.Fatal(err)
	}
	f.Add(fig1.Bytes())
	f.Add(fullIndexV3(f, hgtest.Fig1Data))
	for _, g := range hgtest.ServingGraphs() {
		var v3 bytes.Buffer
		if err := hgio.WriteBinaryV3(&v3, g.Graph); err != nil {
			f.Fatal(err)
		}
		f.Add(v3.Bytes())
	}
	misaligned := slices.Clone(fig1.Bytes())
	off := misaligned[96+24+8:] // second directory entry's offset
	binary.LittleEndian.PutUint64(off, binary.LittleEndian.Uint64(off)+4)
	fixV3HeaderCRC(misaligned)
	f.Add(misaligned)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= 96 {
			fixV3HeaderCRC(data)
		}
		m, err := hgio.MapBytes(data, hgio.MapOptions{Verify: true})
		if err != nil {
			return
		}
		defer m.Release()
		if err := m.Graph().Validate(); err != nil {
			t.Fatalf("accepted input attaches an invalid graph: %v", err)
		}
		h, err := hgio.ReadBinary(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("attach accepted what the heap reader rejects: %v", err)
		}
		if err := storageDiff(m.Graph(), h); err != nil {
			t.Fatalf("attach and heap decode differ: %v", err)
		}
	})
}

// fullIndexV3 returns build's graph as HGB3 in the layout files had before
// small tables dropped their index: every table indexed.
func fullIndexV3(tb testing.TB, build func() *hypergraph.Hypergraph) []byte {
	tb.Helper()
	defer hypergraph.ForceScanMax(0)()
	var buf bytes.Buffer
	if err := hgio.WriteBinaryV3(&buf, build()); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// fig1Text is the paper's Fig. 1 data hypergraph in the text format, with
// the comment and labelled-edge records the reader also accepts.
const fig1Text = `# Fig. 1 data hypergraph
v A
v C
v A
v A
v B
v C
v A
e 2 4
e 4 6 # trailing comment
e 0 1 2
e 3 5 6
e 0 1 4 6
el rel 2 3 4 5
`

// FuzzReadText feeds arbitrary bytes to the text reader, which parses every
// query the server receives. It must never panic; any input it accepts
// must decode to a graph that passes Validate, and Write → Read must give
// back its vertex labels and its edge lists with their edge labels, which
// is what Write renders, so the two renderings must be byte-equal. Seeds:
// the Fig. 1 text and the hgtest serving graphs written with Write.
func FuzzReadText(f *testing.F) {
	f.Add([]byte(fig1Text))
	for _, g := range hgtest.ServingGraphs() {
		var b bytes.Buffer
		if err := hgio.Write(&b, g.Graph); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := hgio.Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := h.Validate(); err != nil {
			t.Fatalf("accepted input decodes to an invalid graph: %v", err)
		}
		var text bytes.Buffer
		if err := hgio.Write(&text, h); err != nil {
			t.Fatalf("writing an accepted graph: %v", err)
		}
		h2, err := hgio.Read(bytes.NewReader(text.Bytes()))
		if err != nil {
			t.Fatalf("re-reading a written graph: %v", err)
		}
		var again bytes.Buffer
		if err := hgio.Write(&again, h2); err != nil {
			t.Fatalf("writing the re-read graph: %v", err)
		}
		if !bytes.Equal(again.Bytes(), text.Bytes()) {
			t.Fatalf("Write → Read changed the graph:\n%s\nbecame\n%s", text.Bytes(), again.Bytes())
		}
	})
}

// storageDiff compares two graphs' storage array by array (nil and empty
// alike), table by table and dictionary by dictionary name. Tables are
// compared by their views, not by the shared index arrays: a mapped file
// written before small tables dropped their index still holds those
// windows, which the views leave out and a heap load drops. HGB2 carries
// no edge-label dictionary, so EdgeDict is not compared.
func storageDiff(ga, gb *hypergraph.Hypergraph) error {
	a, b := ga.Storage(), gb.Storage()
	for _, c := range []struct {
		name string
		x, y []uint32
	}{
		{"labels", a.Labels, b.Labels},
		{"edge offsets", a.EdgeOff, b.EdgeOff},
		{"edge vertices", a.EdgeVerts, b.EdgeVerts},
		{"edge labels", a.EdgeLabels, b.EdgeLabels},
		{"table members", a.PartEdges, b.PartEdges},
		{"incidence offsets", a.IncOff, b.IncOff},
		{"incidence edges", a.IncEdges, b.IncEdges},
		{"edge tables", a.EdgePart, b.EdgePart},
	} {
		if !slices.Equal(c.x, c.y) {
			return fmt.Errorf("%s differ", c.name)
		}
	}
	if (a.EdgeLabels == nil) != (b.EdgeLabels == nil) {
		return fmt.Errorf("edge-labelled %v vs %v", a.EdgeLabels != nil, b.EdgeLabels != nil)
	}
	if ga.NumPartitions() != gb.NumPartitions() {
		return fmt.Errorf("%d vs %d tables", ga.NumPartitions(), gb.NumPartitions())
	}
	for pi := 0; pi < ga.NumPartitions(); pi++ {
		pa, pb := ga.Partition(pi), gb.Partition(pi)
		if pa.SigID != pb.SigID || pa.EdgeLabel != pb.EdgeLabel || !slices.Equal(pa.Edges, pb.Edges) ||
			!slices.Equal(pa.PostingVertices(), pb.PostingVertices()) {
			return fmt.Errorf("table %d differs", pi)
		}
		for i := range pa.PostingVertices() {
			if !slices.Equal(pa.PostingsAt(i), pb.PostingsAt(i)) {
				return fmt.Errorf("table %d postings differ", pi)
			}
		}
	}
	if a.NumLabels != b.NumLabels || a.MaxArity != b.MaxArity {
		return fmt.Errorf("label count or max arity differ")
	}
	if len(a.Sidecars) != len(b.Sidecars) {
		return fmt.Errorf("%d vs %d bitmap sidecars", len(a.Sidecars), len(b.Sidecars))
	}
	if !slices.Equal(dictNames(a.Dict), dictNames(b.Dict)) {
		return fmt.Errorf("vertex label dictionaries differ")
	}
	return nil
}

func dictNames(d *hypergraph.Dict) []string {
	if d == nil {
		return nil
	}
	names := make([]string, d.Len())
	for l := range names {
		names[l] = d.Name(hypergraph.Label(l))
	}
	return names
}

// FuzzOpenWAL replaces one segment of a valid two-segment log with
// arbitrary bytes and recovers it. OpenWAL must never panic. A recovery
// that succeeds must have replayed contiguous sequences ending at
// LastSeq, and the log it returns must take the next append at LastSeq+1
// and replay it after a reopen. A recovery that fails must wrap
// ErrWALCorrupt and name only *.quarantined files that exist. With
// reseal set, the segment header's checksum is recomputed so mutated
// header fields reach the checks behind it. Seeds: both segments intact,
// the active one torn inside a frame, cut inside its header and holding
// only a garbled header (a crash while creating it).
func FuzzOpenWAL(f *testing.F) {
	base := hgtest.NewFaultFS()
	opts := hgio.WALOptions{FS: base, Sync: hgio.SyncBatch, SegmentBytes: 256}
	w, _, err := hgio.OpenWAL("wal", opts, nil)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; w.Stats().Segments < 2 || i < 6; i++ {
		if err := w.Append(&hgio.WALBatch{VertsAfter: i, Records: []hgio.IngestRecord{insRec(uint32(i), uint32(i+1))}}); err != nil {
			f.Fatal(err)
		}
	}
	w.Close()
	segs := walFiles(base)
	if len(segs) != 2 {
		f.Fatalf("want two segments, got %v", segs)
	}
	first, _ := base.ReadFileData(segs[0])
	second, _ := base.ReadFileData(segs[1])
	f.Add(false, false, first)
	f.Add(true, false, second)
	f.Add(true, false, second[:len(second)-5])
	f.Add(true, false, second[:20])
	garbled := slices.Clone(second[:32])
	garbled[30] ^= 0x5a
	f.Add(true, false, garbled)

	f.Fuzz(func(t *testing.T, active, reseal bool, data []byte) {
		fs := base.Clone()
		seg := segs[0]
		if active {
			seg = segs[1]
		}
		if reseal && len(data) >= 32 {
			binary.LittleEndian.PutUint32(data[28:32], crc32.Checksum(data[:28], crc32.MakeTable(crc32.Castagnoli)))
		}
		sf, err := fs.OpenFile(seg, os.O_TRUNC|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sf.Write(data); err != nil {
			t.Fatal(err)
		}
		sf.Close()
		opts := hgio.WALOptions{FS: fs, Sync: hgio.SyncBatch, SegmentBytes: 256}

		var got []hgio.WALBatch
		w, rep, err := hgio.OpenWAL("wal", opts, collect(&got))
		if err != nil {
			if !errors.Is(err, hgio.ErrWALCorrupt) {
				t.Fatalf("recovery failed without ErrWALCorrupt: %v", err)
			}
			if w != nil {
				t.Fatal("failed recovery returned a writable log")
			}
			for _, q := range rep.Quarantined {
				if !strings.HasSuffix(q, ".quarantined") || fs.FileSize(path.Join("wal", q)) < 0 {
					t.Fatalf("quarantined %q is not a *.quarantined file on disk (%v)", q, fs.FileNames())
				}
			}
			return
		}
		for i, b := range got {
			if b.Seq != got[0].Seq+uint64(i) {
				t.Fatalf("replayed sequence %d at position %d after %d", b.Seq, i, got[0].Seq)
			}
		}
		if len(got) > 0 && got[len(got)-1].Seq != rep.LastSeq {
			t.Fatalf("replay ends at %d, report says %d", got[len(got)-1].Seq, rep.LastSeq)
		}
		b := hgio.WALBatch{Records: []hgio.IngestRecord{insRec(1, 2)}}
		if err := w.Append(&b); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		if b.Seq != rep.LastSeq+1 {
			t.Fatalf("append after recovery got %d, want %d", b.Seq, rep.LastSeq+1)
		}
		w.Close()
		got = nil
		w2, rep2, err := hgio.OpenWAL("wal", opts, collect(&got))
		if err != nil {
			t.Fatalf("reopening a recovered log: %v", err)
		}
		w2.Close()
		if rep2.LastSeq != b.Seq || len(got) == 0 || got[len(got)-1].Seq != b.Seq {
			t.Fatalf("reopen ends at %d (report %+v), want the appended %d", rep2.LastSeq, rep2, b.Seq)
		}
	})
}

// FuzzLoadCheckpoint feeds arbitrary bytes to the checkpoint loader, which
// recovery trusts as a durable graph's base. It must never panic, and an
// image it accepts must decode to a graph that passes Validate. With
// reseal set, a version 2 image's CRC32C trailer is recomputed over the
// mutated bytes, so mutations reach the header and the decoder behind it.
// Seeds: version 2 images of Fig. 1 and the hgtest serving graphs, and
// TestCheckpointVersions' version 1 image (no trailer).
func FuzzLoadCheckpoint(f *testing.F) {
	image := func(h *hypergraph.Hypergraph) []byte {
		fs := hgtest.NewFaultFS()
		if err := fs.MkdirAll("g", 0o755); err != nil {
			f.Fatal(err)
		}
		if err := hgio.SaveCheckpoint(fs, "g", h, 7); err != nil {
			f.Fatal(err)
		}
		data, err := fs.ReadFileData(path.Join("g", hgio.CheckpointFile))
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	fig1 := image(hgtest.Fig1Data())
	v1 := bytes.Clone(fig1[:len(fig1)-4])
	binary.LittleEndian.PutUint32(v1[4:8], 1)
	f.Add(false, fig1)
	f.Add(false, v1)
	for _, g := range hgtest.ServingGraphs() {
		f.Add(false, image(g.Graph))
	}
	f.Fuzz(func(t *testing.T, reseal bool, data []byte) {
		if end := len(data) - 4; reseal && end >= 0 {
			data = bytes.Clone(data)
			binary.LittleEndian.PutUint32(data[end:], crc32.Checksum(data[:end], crc32.MakeTable(crc32.Castagnoli)))
		}
		fs := hgtest.NewFaultFS()
		if err := fs.MkdirAll("g", 0o755); err != nil {
			t.Fatal(err)
		}
		cf, err := fs.OpenFile(path.Join("g", hgio.CheckpointFile), os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cf.Write(data); err != nil {
			t.Fatal(err)
		}
		cf.Close()
		h, _, found, err := hgio.LoadCheckpoint(fs, "g")
		if !found {
			t.Fatal("the checkpoint file was not found")
		}
		if err == nil {
			if err := h.Validate(); err != nil {
				t.Fatalf("accepted checkpoint decodes to an invalid graph: %v", err)
			}
		}
	})
}
