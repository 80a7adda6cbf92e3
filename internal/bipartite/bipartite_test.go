package bipartite_test

import (
	"math/rand"
	"testing"

	"hgmatch/internal/bipartite"
	"hgmatch/internal/core"
	"hgmatch/internal/hgtest"
	"hgmatch/internal/setops"
)

// TestConvertFig1 checks the conversion against the paper's Fig. 2: the
// data hypergraph of Fig. 1b becomes a bipartite graph with 7 vertex-nodes
// below and 6 edge-nodes above, edges being incidences.
func TestConvertFig1(t *testing.T) {
	h := hgtest.Fig1Data()
	g := bipartite.Convert(h)
	if g.NumVertexNodes != 7 || len(g.Labels) != 13 {
		t.Fatalf("nodes = %d/%d, want 7 vertex nodes of 13", g.NumVertexNodes, len(g.Labels))
	}
	// Pairwise edge count = total arity = 2+2+3+3+4+4 = 18.
	if g.NumEdges() != 18 {
		t.Errorf("edges = %d, want 18", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Vertex-node labels carry over; v4 has label B.
	if g.Labels[4] != hgtest.B {
		t.Errorf("label of v4 = %d", g.Labels[4])
	}
	// Edge-node of e5 (arity 4) has an arity-derived label distinct from
	// e1's (arity 2).
	if g.Labels[7+4] == g.Labels[7+0] {
		t.Error("different arities share an edge-node label")
	}
	// v4 is incident to e1,e2,e5,e6 -> neighbours 7,8,11,12.
	if !setops.Equal(g.Adj[4], []uint32{7, 8, 11, 12}) {
		t.Errorf("Adj(v4) = %v", g.Adj[4])
	}
}

func TestMatchFig1(t *testing.T) {
	q, h := hgtest.Fig1Query(), hgtest.Fig1Data()
	res := bipartite.MatchHypergraphs(q, h, bipartite.Options{})
	if res.Embeddings != 2 {
		t.Errorf("bipartite embeddings = %d, want 2", res.Embeddings)
	}
	if res.Mappings < 2 {
		t.Errorf("mappings = %d", res.Mappings)
	}
	if res.Elapsed <= 0 {
		t.Error("Elapsed not recorded")
	}
}

// TestBipartiteAgreesWithHGMatch cross-checks the RapidMatch-style
// bipartite baseline against the match-by-hyperedge engine.
func TestBipartiteAgreesWithHGMatch(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := hgtest.RandomHypergraph(rng, hgtest.RandomConfig{
			NumVertices: 15, NumEdges: 25, NumLabels: 3, MaxArity: 4,
		})
		q := hgtest.ConnectedQueryFromWalk(rng, h, 2)
		if q == nil {
			continue
		}
		p, err := core.NewPlan(q, h)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := p.CountSequential()
		res := bipartite.MatchHypergraphs(q, h, bipartite.Options{})
		if res.Embeddings != want {
			t.Fatalf("seed %d: bipartite = %d, HGMatch = %d", seed, res.Embeddings, want)
		}
	}
}

func TestInflationShape(t *testing.T) {
	// The conversion inflates: node count = |V|+|E|, pairwise edges =
	// Σ a(e) ≥ 2|E|; for high-arity hypergraphs the blowup is large
	// (paper intro: 17M nodes → 1B edges example).
	rng := rand.New(rand.NewSource(4))
	h := hgtest.RandomHypergraph(rng, hgtest.RandomConfig{
		NumVertices: 50, NumEdges: 80, NumLabels: 3, MaxArity: 12,
	})
	g := bipartite.Convert(h)
	if len(g.Labels) != h.NumVertices()+h.NumEdges() {
		t.Errorf("node inflation wrong: %d vs %d+%d", len(g.Labels), h.NumVertices(), h.NumEdges())
	}
	if g.NumEdges() != h.TotalArity() {
		t.Errorf("edge inflation: %d vs total arity %d", g.NumEdges(), h.TotalArity())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMatchLimit(t *testing.T) {
	q, h := hgtest.Fig1Query(), hgtest.Fig1Data()
	res := bipartite.MatchHypergraphs(q, h, bipartite.Options{Limit: 1})
	if res.Mappings != 1 {
		t.Errorf("limit: %d mappings", res.Mappings)
	}
}

func TestDegreeAccessor(t *testing.T) {
	g := bipartite.Convert(hgtest.Fig1Data())
	if g.Degree(4) != 4 { // v4 in 4 hyperedges
		t.Errorf("Degree(v4) = %d", g.Degree(4))
	}
	if g.Degree(11) != 4 { // e5 node has arity 4
		t.Errorf("Degree(e5 node) = %d", g.Degree(11))
	}
}
