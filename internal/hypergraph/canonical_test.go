package hypergraph

import "testing"

func TestCanonicalKeyStable(t *testing.T) {
	labels := []uint32{0, 1, 0, 2}
	a := MustFromEdges(labels, [][]uint32{{0, 1}, {1, 2, 3}, {0, 3}})
	b := MustFromEdges(labels, [][]uint32{{0, 1}, {1, 2, 3}, {0, 3}})
	if CanonicalKey(a) != CanonicalKey(b) {
		t.Fatal("identical graphs should share a canonical key")
	}
}

// TestCanonicalKeyEdgeOrderInvariant pins the key's edge-order invariant:
// declaration order is part of the key. A plan's matching order and rows
// are numbered in the query's own edge IDs, so two texts listing the same
// edge set in different orders must not share a cached plan.
func TestCanonicalKeyEdgeOrderInvariant(t *testing.T) {
	labels := []uint32{0, 1, 0, 2}
	a := MustFromEdges(labels, [][]uint32{{0, 1}, {1, 2, 3}, {0, 3}})
	b := MustFromEdges(labels, [][]uint32{{0, 3}, {0, 1}, {1, 2, 3}})
	if CanonicalKey(a) == CanonicalKey(b) {
		t.Fatal("reordering the edges must change the canonical key")
	}
}

func TestCanonicalKeyDistinguishes(t *testing.T) {
	base := MustFromEdges([]uint32{0, 1, 0}, [][]uint32{{0, 1}, {1, 2}})
	cases := map[string]*Hypergraph{
		"different vertex label": MustFromEdges([]uint32{0, 2, 0}, [][]uint32{{0, 1}, {1, 2}}),
		"different edge set":     MustFromEdges([]uint32{0, 1, 0}, [][]uint32{{0, 1}, {0, 2}}),
		"extra vertex":           MustFromEdges([]uint32{0, 1, 0, 0}, [][]uint32{{0, 1}, {1, 2}}),
		"extra edge":             MustFromEdges([]uint32{0, 1, 0}, [][]uint32{{0, 1}, {1, 2}, {0, 2}}),
	}
	for name, h := range cases {
		if CanonicalKey(h) == CanonicalKey(base) {
			t.Errorf("%s: key collision with base graph", name)
		}
	}
}

func TestCanonicalKeyEdgeLabels(t *testing.T) {
	b1 := NewBuilder()
	b1.AddVertex(0)
	b1.AddVertex(0)
	b1.AddLabelledEdge(7, 0, 1)
	withLabel, err := b1.Build()
	if err != nil {
		t.Fatal(err)
	}
	without := MustFromEdges([]uint32{0, 0}, [][]uint32{{0, 1}})
	if CanonicalKey(withLabel) == CanonicalKey(without) {
		t.Fatal("edge label must be part of the canonical key")
	}
}
