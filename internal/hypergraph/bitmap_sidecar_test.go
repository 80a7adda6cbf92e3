package hypergraph

import (
	"math/rand"
	"testing"

	"hgmatch/internal/setops"
)

// denseTestGraph builds a graph whose partitions comfortably exceed the
// sidecar thresholds: one label and fixed small arities concentrate
// hundreds of edges in a handful of signature tables.
func denseTestGraph(t *testing.T, seed int64, edges int) *Hypergraph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder()
	const nv = 30
	for i := 0; i < nv; i++ {
		b.AddVertex(0)
	}
	for i := 0; i < edges; i++ {
		arity := 2 + rng.Intn(2)
		vs := make([]uint32, 0, arity)
		for len(vs) < arity {
			vs = append(vs, uint32(rng.Intn(nv)))
		}
		b.AddEdge(vs...)
	}
	h, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// assertViewsMatchPostings pins PostingsView against the CSR arrays for
// every posting vertex of every partition: the hybrid view must decode to
// exactly the array representation, whatever container it chose.
func assertViewsMatchPostings(t *testing.T, h *Hypergraph, stage string) {
	t.Helper()
	for pi := 0; pi < h.NumPartitions(); pi++ {
		p := h.Partition(pi)
		for i := 0; i < p.NumPostingVertices(); i++ {
			v := p.PostingVertices()[i]
			want := p.PostingsAt(i)
			vw := p.PostingsView(v)
			var got []uint32
			if vw.Bits != nil {
				got = vw.Bits.AppendUnranked(nil, p.BaseEdges())
			} else {
				got = vw.Arr
			}
			if !setops.Equal(got, want) {
				t.Fatalf("%s: partition %d vertex %d: view %v != postings %v", stage, pi, v, got, want)
			}
			if vw.Len() != len(want) {
				t.Fatalf("%s: partition %d vertex %d: view len %d != %d", stage, pi, v, vw.Len(), len(want))
			}
		}
		// A vertex absent from the table yields the empty view.
		if vw := p.PostingsView(^VertexID(0) - 1); !vw.IsEmpty() {
			t.Fatalf("%s: partition %d: absent vertex produced %v", stage, pi, vw)
		}
	}
}

func TestBitmapSidecarBuild(t *testing.T) {
	h := denseTestGraph(t, 1, 400)
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	s := ComputeStats(h)
	if s.BitmapVertices == 0 || s.BitmapBytes == 0 {
		t.Fatalf("dense graph built no bitmap containers: %+v", s)
	}
	assertViewsMatchPostings(t, h, "offline")

	// At least one partition must actually serve bitmap views.
	bitmapViews := 0
	for pi := 0; pi < h.NumPartitions(); pi++ {
		p := h.Partition(pi)
		for i := 0; i < p.NumPostingVertices(); i++ {
			if p.PostingsView(p.PostingVertices()[i]).Bits != nil {
				bitmapViews++
			}
		}
	}
	if bitmapViews == 0 {
		t.Fatal("no posting vertex serves a bitmap view")
	}
}

func TestBitmapSidecarSparseGraphHasNone(t *testing.T) {
	// Many labels scatter signatures into tiny tables below bitmapMinEdges.
	rng := rand.New(rand.NewSource(2))
	b := NewBuilder()
	for i := 0; i < 40; i++ {
		b.AddVertex(uint32(rng.Intn(8)))
	}
	for i := 0; i < 120; i++ {
		b.AddEdge(uint32(rng.Intn(40)), uint32(rng.Intn(40)))
	}
	h, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if s := ComputeStats(h); s.BitmapVertices != 0 || s.BitmapBytes != 0 {
		t.Fatalf("sparse graph grew a sidecar: %+v", s)
	}
	assertViewsMatchPostings(t, h, "sparse")
}

// TestPostingsViewAcrossSnapshots walks one graph through the online
// lifecycle — base, insert-only delta (sidecar shared), delete-carrying
// delta (tables masked, sidecar still shared), compaction — asserting at
// every stage that views equal the CSR arrays and the full Validate
// invariants hold (which include bitmap-decodes-to-postings and rank-table
// inversion).
func TestPostingsViewAcrossSnapshots(t *testing.T) {
	base := denseTestGraph(t, 3, 300)
	d, err := NewDeltaBuffer(base)
	if err != nil {
		t.Fatal(err)
	}
	assertViewsMatchPostings(t, d.Snapshot(), "base")

	rng := rand.New(rand.NewSource(4))
	nv := uint32(base.NumVertices())
	for i := 0; i < 50; i++ {
		if _, _, err := d.Insert(rng.Uint32()%nv, rng.Uint32()%nv, rng.Uint32()%nv); err != nil {
			t.Fatal(err)
		}
	}
	snap := d.Snapshot()
	if !snap.HasDelta() {
		t.Fatal("no delta published")
	}
	if err := snap.Validate(); err != nil {
		t.Fatalf("insert delta: %v", err)
	}
	assertViewsMatchPostings(t, snap, "insert-delta")

	// Delete base edges: the touched partitions are masked at the next
	// publication, over their unchanged base segments and sidecars.
	deleted := 0
	for e := 0; e < base.NumEdges() && deleted < 20; e += 7 {
		ok, err := d.Delete(base.Edge(EdgeID(e))...)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			deleted++
		}
	}
	if deleted == 0 {
		t.Fatal("no deletions applied")
	}
	snap = d.Snapshot()
	if err := snap.Validate(); err != nil {
		t.Fatalf("delete delta: %v", err)
	}
	assertViewsMatchPostings(t, snap, "delete-delta")

	compacted, err := d.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if err := compacted.Validate(); err != nil {
		t.Fatalf("compacted: %v", err)
	}
	assertViewsMatchPostings(t, compacted, "compacted")
	if s := ComputeStats(compacted); s.BitmapVertices == 0 {
		t.Fatalf("compaction lost the sidecar: %+v", s)
	}
}

func TestWithoutBitmapSidecars(t *testing.T) {
	h := denseTestGraph(t, 5, 400)
	if s := ComputeStats(h); s.BitmapVertices == 0 {
		t.Fatal("fixture has no sidecar")
	}
	nh := h.WithoutBitmapSidecars()
	if s := ComputeStats(nh); s.BitmapVertices != 0 || s.BitmapBytes != 0 {
		t.Fatalf("clone still carries a sidecar: %+v", s)
	}
	if s := ComputeStats(h); s.BitmapVertices == 0 {
		t.Fatal("original lost its sidecar")
	}
	if err := nh.Validate(); err != nil {
		t.Fatal(err)
	}
	assertViewsMatchPostings(t, nh, "stripped")
	// Everything else is shared, not copied.
	if nh.NumEdges() != h.NumEdges() || nh.NumPartitions() != h.NumPartitions() {
		t.Fatal("clone diverged structurally")
	}
}
