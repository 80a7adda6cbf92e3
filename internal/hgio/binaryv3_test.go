package hgio_test

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"hgmatch/internal/hgio"
	"hgmatch/internal/hgtest"
	"hgmatch/internal/hypergraph"
)

func writeV3(t *testing.T, h *hypergraph.Hypergraph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := hgio.WriteBinaryV3(&buf, h); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// mappedEqual compares a zero-copy attached graph against the original in
// depth: shape, labels, edges, incidence, partition structure and posting
// views (which exercises the persisted bitmap sidecars).
func mappedEqual(t *testing.T, want, got *hypergraph.Hypergraph) {
	t.Helper()
	graphsEqual(t, want, got)
	if want.TotalArity() != got.TotalArity() || want.MaxArity() != got.MaxArity() {
		t.Fatalf("arity stats differ: (%d,%d) vs (%d,%d)",
			want.TotalArity(), want.MaxArity(), got.TotalArity(), got.MaxArity())
	}
	if want.NumPartitions() != got.NumPartitions() {
		t.Fatalf("partition count differs: %d vs %d", want.NumPartitions(), got.NumPartitions())
	}
	for v := 0; v < want.NumVertices(); v++ {
		a, b := want.Incident(uint32(v)), got.Incident(uint32(v))
		if len(a) != len(b) {
			t.Fatalf("incidence of %d differs in length", v)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("incidence of %d differs at %d", v, i)
			}
		}
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("attached graph invalid: %v", err)
	}
}

func TestBinaryV3HeapRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := hgtest.RandomHypergraph(rng, hgtest.RandomConfig{
			NumVertices: 40, NumEdges: 80, NumLabels: 6, MaxArity: 7,
		})
		data := writeV3(t, h)
		h2, err := hgio.ReadBinary(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		mappedEqual(t, h, h2)
	}
}

func TestBinaryV3MappedRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := hgtest.RandomHypergraph(rng, hgtest.RandomConfig{
			NumVertices: 60, NumEdges: 300, NumLabels: 3, MaxArity: 5,
		})
		m, err := hgio.MapBytes(writeV3(t, h), hgio.MapOptions{Verify: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		mappedEqual(t, h, m.Graph())
		if err := m.Release(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBinaryV3ReadsFullIndex: an HGB3 file written before small tables
// dropped their index loads on the heap with that index dropped and
// attaches with it ignored: both serve the views of a fresh build and
// pass Validate, and the heap load holds the fresh build's index bytes.
func TestBinaryV3ReadsFullIndex(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		build := func() *hypergraph.Hypergraph {
			return hgtest.RandomHypergraph(rand.New(rand.NewSource(seed)), hgtest.RandomConfig{
				NumVertices: 60, NumEdges: 300, NumLabels: 3, MaxArity: 5,
			})
		}
		h := build()
		old := fullIndexV3(t, build)
		heap, err := hgio.ReadBinary(bytes.NewReader(old))
		if err != nil {
			t.Fatalf("seed %d: heap load: %v", seed, err)
		}
		mappedEqual(t, h, heap)
		if got, want := hypergraph.ComputeStats(heap).IndexBytes, hypergraph.ComputeStats(h).IndexBytes; got != want {
			t.Fatalf("seed %d: heap load keeps %d index bytes, a fresh build %d", seed, got, want)
		}
		m, err := hgio.MapBytes(old, hgio.MapOptions{Verify: true})
		if err != nil {
			t.Fatalf("seed %d: attach: %v", seed, err)
		}
		mappedEqual(t, h, m.Graph())
		for pi := 0; pi < h.NumPartitions(); pi++ {
			if a, b := h.Partition(pi), m.Graph().Partition(pi); a.HasBaseIndex() != b.HasBaseIndex() {
				t.Fatalf("seed %d: table %d of %d edges: index %v built, %v attached", seed, pi, a.Len(), a.HasBaseIndex(), b.HasBaseIndex())
			}
		}
		if err := m.Release(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestBinaryV3DictsAndEdgeLabels(t *testing.T) {
	d := hypergraph.NewDict()
	ed := hypergraph.NewDict()
	b := hypergraph.NewBuilder().WithDicts(d, ed)
	p := b.AddVertex(d.Intern("Player"))
	tm := b.AddVertex(d.Intern("Team"))
	m := b.AddVertex(d.Intern("Match"))
	b.AddLabelledEdge(ed.Intern("played"), p, tm, m)
	b.AddEdge(p, tm)
	h := b.MustBuild()

	data := writeV3(t, h)
	for _, tc := range []struct {
		name string
		load func() (*hypergraph.Hypergraph, func() error, error)
	}{
		{"heap", func() (*hypergraph.Hypergraph, func() error, error) {
			g, err := hgio.ReadBinary(bytes.NewReader(data))
			return g, func() error { return nil }, err
		}},
		{"mapped", func() (*hypergraph.Hypergraph, func() error, error) {
			mg, err := hgio.MapBytes(data, hgio.MapOptions{})
			if err != nil {
				return nil, nil, err
			}
			return mg.Graph(), mg.Release, nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, done, err := tc.load()
			if err != nil {
				t.Fatal(err)
			}
			defer done()
			graphsEqual(t, h, g)
			if g.Dict() == nil || g.Dict().Name(g.Label(0)) != "Player" {
				t.Error("vertex dictionary lost")
			}
			if g.EdgeDict() == nil || g.EdgeDict().Name(g.EdgeLabel(0)) != "played" {
				t.Error("edge dictionary lost")
			}
		})
	}
}

func TestBinaryV3CompactsDeltaAndTombstones(t *testing.T) {
	h := hgtest.Fig1Data()
	db, err := hypergraph.NewDeltaBuffer(h)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Delete(h.Edge(0)...); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.Insert(0, 3); err != nil {
		t.Fatal(err)
	}
	snap := db.Snapshot()
	data := writeV3(t, snap)
	m, err := hgio.MapBytes(data, hgio.MapOptions{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	g := m.Graph()
	if g.NumEdges() != snap.NumLiveEdges() {
		t.Fatalf("v3 file not compacted: %d edges, want %d", g.NumEdges(), snap.NumLiveEdges())
	}
	if g.HasDelta() || g.NumDeadEdges() != 0 {
		t.Fatal("v3 load should be delta- and tombstone-free")
	}
	if _, ok := g.FindEdge([]uint32{0, 3}); !ok {
		t.Fatal("delta edge lost in v3 write")
	}
}

func TestBinaryV3EmptyAndTinyGraphs(t *testing.T) {
	b := hypergraph.NewBuilder()
	b.AddVertex(0)
	b.AddVertex(1)
	h := b.MustBuild() // vertices, no edges
	m, err := hgio.MapBytes(writeV3(t, h), hgio.MapOptions{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if m.Graph().NumVertices() != 2 || m.Graph().NumEdges() != 0 {
		t.Fatalf("edgeless graph mangled: %v", m.Graph())
	}
	m.Release()

	h2, err := hgio.ReadBinary(bytes.NewReader(writeV3(t, h)))
	if err != nil {
		t.Fatal(err)
	}
	if h2.NumVertices() != 2 {
		t.Fatal("heap load of edgeless graph failed")
	}
}

func TestBinaryV3FileAndReadAuto(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := hgtest.RandomHypergraph(rng, hgtest.RandomConfig{
		NumVertices: 30, NumEdges: 60, NumLabels: 4, MaxArity: 6,
	})
	path := filepath.Join(t.TempDir(), "g.hgb3")
	if err := hgio.WriteBinaryV3File(path, h); err != nil {
		t.Fatal(err)
	}
	h2, err := hgio.ReadAutoFile(path)
	if err != nil {
		t.Fatal(err)
	}
	graphsEqual(t, h, h2)

	m, err := hgio.MapFile(path, hgio.MapOptions{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	mappedEqual(t, h, m.Graph())
	if m.FileBytes() == 0 || m.Path() != path {
		t.Fatalf("mapped handle metadata wrong: %d bytes, path %q", m.FileBytes(), m.Path())
	}
	if err := m.Release(); err != nil {
		t.Fatal(err)
	}
}

func TestBinaryV3MapFileRejectsV2(t *testing.T) {
	h := hgtest.Fig1Data()
	path := filepath.Join(t.TempDir(), "g.hgb2")
	if err := hgio.WriteBinaryFile(path, h); err != nil {
		t.Fatal(err)
	}
	if _, err := hgio.MapFile(path, hgio.MapOptions{}); err == nil {
		t.Fatal("MapFile accepted a v2 file")
	}
}

func TestBinaryV3RefcountProtocol(t *testing.T) {
	m, err := hgio.MapBytes(writeV3(t, hgtest.Fig1Data()), hgio.MapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m.Retain()
	if err := m.Release(); err != nil {
		t.Fatal(err)
	}
	if m.Graph() == nil {
		t.Fatal("graph released while a reference remains")
	}
	if err := m.Release(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Retain on a fully released handle should panic")
		}
	}()
	m.Retain()
}

func TestPeekFile(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h := hgtest.RandomHypergraph(rng, hgtest.RandomConfig{
		NumVertices: 25, NumEdges: 50, NumLabels: 4, MaxArity: 5,
	})
	dir := t.TempDir()

	v3 := filepath.Join(dir, "g3")
	if err := hgio.WriteBinaryV3File(v3, h); err != nil {
		t.Fatal(err)
	}
	p, err := hgio.PeekFile(v3)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumVertices != h.NumVertices() || p.NumEdges != h.NumEdges() ||
		p.Partitions != h.NumPartitions() || p.TotalArity != h.TotalArity() {
		t.Fatalf("v3 peek wrong: %+v", p)
	}

	// Every other format — including an empty file, too short for any
	// magic — is reported as not mappable.
	v2, txt, empty := filepath.Join(dir, "g2"), filepath.Join(dir, "g.txt"), filepath.Join(dir, "empty")
	if err := hgio.WriteBinaryFile(v2, h); err != nil {
		t.Fatal(err)
	}
	if err := hgio.WriteFile(txt, h); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{v2, txt, empty} {
		if _, err := hgio.PeekFile(path); !errors.Is(err, hgio.ErrNotV3) {
			t.Fatalf("PeekFile(%s) = %v, want ErrNotV3", filepath.Base(path), err)
		}
	}
}
