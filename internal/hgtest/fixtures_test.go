package hgtest_test

import (
	"math/rand"
	"testing"

	"hgmatch/internal/hgtest"
	"hgmatch/internal/hypergraph"
)

func TestFixturesAreValid(t *testing.T) {
	for name, h := range map[string]interface{ Validate() error }{
		"Fig1Data":             hgtest.Fig1Data(),
		"Fig1Query":            hgtest.Fig1Query(),
		"Fig4PartialQuery":     hgtest.Fig4PartialQuery(),
		"Fig4PartialEmbedding": hgtest.Fig4PartialEmbedding(),
	} {
		if err := h.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestRandomHypergraphDefaults(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h := hgtest.RandomHypergraph(rng, hgtest.RandomConfig{
		NumVertices: 10, NumEdges: 10, // zero labels/arity: defaults kick in
	})
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if h.NumEdges() == 0 {
		t.Fatal("no edges generated")
	}
}

func TestConnectedQueryFromWalkBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	h := hgtest.Fig1Data()
	if q := hgtest.ConnectedQueryFromWalk(rng, h, 0); q != nil {
		t.Error("n=0 should yield nil")
	}
	if q := hgtest.ConnectedQueryFromWalk(rng, h, 100); q != nil {
		t.Error("oversized walk should yield nil")
	}
	q := hgtest.ConnectedQueryFromWalk(rng, h, 2)
	if q == nil || q.NumEdges() != 2 {
		t.Fatalf("walk query = %v", q)
	}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestServingGraphsShapes pins what ServingGraphs promises: valid graphs,
// bitmap containers on the dense one, and a delta snapshot that keeps the
// slot of a table whose every edge is a tombstone, which compaction drops.
func TestServingGraphsShapes(t *testing.T) {
	graphs := hgtest.ServingGraphs()
	for _, g := range graphs {
		if err := g.Graph.Validate(); err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
	}
	if s := hypergraph.ComputeStats(graphs[0].Graph); s.BitmapVertices == 0 {
		t.Fatalf("%s built no bitmap containers: %+v", graphs[0].Name, s)
	}
	emptied := func(h *hypergraph.Hypergraph) (n int) {
		for i := 0; i < h.NumPartitions(); i++ {
			if len(h.Partition(i).Edges) == 0 {
				n++
			}
		}
		return n
	}
	delta, compacted := graphs[2].Graph, graphs[3].Graph
	if emptied(delta) == 0 || delta.NumLiveEdges() == delta.NumEdges() {
		t.Fatalf("%s: no tombstones or no emptied table slot", graphs[2].Name)
	}
	if emptied(compacted) != 0 || compacted.NumLiveEdges() != delta.NumLiveEdges() {
		t.Fatalf("%s: %d emptied slots, %d live edges (delta has %d)", graphs[3].Name, emptied(compacted), compacted.NumLiveEdges(), delta.NumLiveEdges())
	}
}
