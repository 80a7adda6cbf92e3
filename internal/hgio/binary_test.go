package hgio_test

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"hgmatch/internal/hgio"
	"hgmatch/internal/hgtest"
	"hgmatch/internal/hypergraph"
	"hgmatch/internal/setops"
)

func graphsEqual(t *testing.T, a, b *hypergraph.Hypergraph) {
	t.Helper()
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("shape mismatch: %v vs %v", a, b)
	}
	for v := 0; v < a.NumVertices(); v++ {
		if a.Label(uint32(v)) != b.Label(uint32(v)) {
			t.Fatalf("label of %d differs", v)
		}
	}
	for e := 0; e < a.NumEdges(); e++ {
		if !setops.Equal(a.Edge(uint32(e)), b.Edge(uint32(e))) {
			t.Fatalf("edge %d differs", e)
		}
		if a.EdgeLabel(uint32(e)) != b.EdgeLabel(uint32(e)) {
			t.Fatalf("edge label %d differs", e)
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := hgtest.RandomHypergraph(rng, hgtest.RandomConfig{
			NumVertices: 40, NumEdges: 80, NumLabels: 6, MaxArity: 7,
		})
		var buf bytes.Buffer
		if err := hgio.WriteBinary(&buf, h); err != nil {
			t.Fatal(err)
		}
		h2, err := hgio.ReadBinary(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		graphsEqual(t, h, h2)
	}
}

func TestBinaryRoundTripWithDictAndEdgeLabels(t *testing.T) {
	d := hypergraph.NewDict()
	ed := hypergraph.NewDict()
	b := hypergraph.NewBuilder().WithDicts(d, ed)
	p := b.AddVertex(d.Intern("Player"))
	tm := b.AddVertex(d.Intern("Team"))
	m := b.AddVertex(d.Intern("Match"))
	b.AddLabelledEdge(ed.Intern("played"), p, tm, m)
	b.AddEdge(p, tm)
	h := b.MustBuild()

	var buf bytes.Buffer
	if err := hgio.WriteBinary(&buf, h); err != nil {
		t.Fatal(err)
	}
	h2, err := hgio.ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	graphsEqual(t, h, h2)
	if h2.Dict() == nil || h2.Dict().Name(h2.Label(0)) != "Player" {
		t.Error("dictionary lost in binary round trip")
	}
}

func TestBinaryCompactness(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	h := hgtest.RandomHypergraph(rng, hgtest.RandomConfig{
		NumVertices: 200, NumEdges: 500, NumLabels: 4, MaxArity: 8,
	})
	var txt, v2 bytes.Buffer
	if err := hgio.Write(&txt, h); err != nil {
		t.Fatal(err)
	}
	if err := hgio.WriteBinary(&v2, h); err != nil {
		t.Fatal(err)
	}
	// v2 buys load-time assembly by persisting the index: at least one
	// byte per (vertex, edge) incidence in the edge section and another in
	// the posting lists. Varints keep the whole file within a small factor
	// of the text encoding, which carries no index at all.
	if v2.Len() < 2*h.TotalArity() {
		t.Errorf("binary v2 (%d bytes) under two bytes per incidence (%d): index missing?", v2.Len(), h.TotalArity())
	}
	if v2.Len() > 2*txt.Len() {
		t.Errorf("binary v2 (%d bytes) more than 2x text (%d bytes)", v2.Len(), txt.Len())
	}
}

func TestBinaryErrors(t *testing.T) {
	h := hgtest.Fig1Data()
	var buf bytes.Buffer
	if err := hgio.WriteBinary(&buf, h); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// Bad magic.
	bad := append([]byte("NOPE"), full[4:]...)
	if _, err := hgio.ReadBinary(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic accepted")
	}
	// Truncations at every prefix length must error, not panic.
	for cut := 0; cut < len(full); cut += 3 {
		if _, err := hgio.ReadBinary(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	// Corrupted counts (huge varint) rejected by sanity check.
	corrupt := append([]byte(nil), full...)
	corrupt[4] = 0xFF
	corrupt[5] = 0xFF
	corrupt[6] = 0xFF
	corrupt[7] = 0xFF
	corrupt[8] = 0xFF
	if _, err := hgio.ReadBinary(bytes.NewReader(corrupt)); err == nil {
		t.Error("corrupted size accepted")
	}
}

func TestReadAuto(t *testing.T) {
	// Use a dict-carrying graph: the text format round-trips labels by
	// NAME, so numeric label IDs are only preserved when names fix them.
	d := hypergraph.NewDict()
	b := hypergraph.NewBuilder().WithDicts(d, nil)
	b.AddVertex(d.Intern("A"))
	b.AddVertex(d.Intern("B"))
	b.AddVertex(d.Intern("A"))
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	h := b.MustBuild()
	var bin, txt bytes.Buffer
	if err := hgio.WriteBinary(&bin, h); err != nil {
		t.Fatal(err)
	}
	if err := hgio.Write(&txt, h); err != nil {
		t.Fatal(err)
	}
	hb, err := hgio.ReadAuto(&bin)
	if err != nil {
		t.Fatal(err)
	}
	ht, err := hgio.ReadAuto(&txt)
	if err != nil {
		t.Fatal(err)
	}
	graphsEqual(t, hb, ht)
}

func TestBinaryFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.hgb")
	h := hgtest.Fig1Data()
	if err := hgio.WriteBinaryFile(path, h); err != nil {
		t.Fatal(err)
	}
	h2, err := hgio.ReadBinaryFile(path)
	if err != nil {
		t.Fatal(err)
	}
	graphsEqual(t, h, h2)
	h3, err := hgio.ReadAutoFile(path)
	if err != nil {
		t.Fatal(err)
	}
	graphsEqual(t, h, h3)
	if _, err := hgio.ReadBinaryFile(filepath.Join(dir, "nope")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestReadAutoTextWithoutMagicPrefixConflict(t *testing.T) {
	// A text file starting with a comment works through ReadAuto.
	src := "# HGB1-looking comment\nv A\nv A\ne 0 1\n"
	h, err := hgio.ReadAuto(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if h.NumEdges() != 1 {
		t.Error("text-through-auto failed")
	}
}
