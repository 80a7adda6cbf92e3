// Package hgtest provides shared fixtures for tests across the repository,
// chiefly the running example of the paper's Fig. 1 and small random
// hypergraph/query pairs for cross-checking engines.
package hgtest

import (
	"math/rand"
	"slices"
	"strconv"

	"hgmatch/internal/hypergraph"
)

// Labels of the Fig. 1 example, named as in the paper.
const (
	A uint32 = 0
	B uint32 = 1
	C uint32 = 2
)

// Fig1Data builds the data hypergraph H of the paper's Fig. 1b:
//
//	v0:A v1:C v2:A v3:A v4:B v5:C v6:A
//	e1={v2,v4} e2={v4,v6} e3={v0,v1,v2} e4={v3,v5,v6}
//	e5={v0,v1,v4,v6} e6={v2,v3,v4,v5}
//
// Note: edge IDs in the built graph are 0-based and assigned in insertion
// order, so paper e1 == EdgeID 0, ..., e6 == EdgeID 5.
func Fig1Data() *hypergraph.Hypergraph {
	labels := []uint32{A, C, A, A, B, C, A}
	edges := [][]uint32{
		{2, 4},       // e1
		{4, 6},       // e2
		{0, 1, 2},    // e3
		{3, 5, 6},    // e4
		{0, 1, 4, 6}, // e5
		{2, 3, 4, 5}, // e6
	}
	return hypergraph.MustFromEdges(labels, edges)
}

// Fig1Query builds the query hypergraph q of the paper's Fig. 1a:
//
//	u0:A u1:C u2:A u3:A u4:B
//	eq0={u2,u4} eq1={u0,u1,u2} eq2={u0,u1,u3,u4}
//
// It has exactly two embeddings in Fig1Data: (e1,e3,e5) and (e2,e4,e6).
func Fig1Query() *hypergraph.Hypergraph {
	labels := []uint32{A, C, A, A, B}
	edges := [][]uint32{
		{2, 4},
		{0, 1, 2},
		{0, 1, 3, 4},
	}
	return hypergraph.MustFromEdges(labels, edges)
}

// Fig4PartialQuery builds the partial query q' of the paper's Fig. 4a
// (the embedding-validation counterexample):
//
//	u0:B u1:A u2:A u3:A u4:A u5:A
//	e0={u0,u1,u2} e1={u3,u4,u5} e2={u2,u3,u4}
func Fig4PartialQuery() *hypergraph.Hypergraph {
	labels := []uint32{B, A, A, A, A, A}
	edges := [][]uint32{
		{0, 1, 2},
		{3, 4, 5},
		{2, 3, 4},
	}
	return hypergraph.MustFromEdges(labels, edges)
}

// Fig4PartialEmbedding builds the candidate partial embedding m' of the
// paper's Fig. 4b:
//
//	v0:B v1:A v2:A v3:A v4:A v5:A
//	e0'={v0,v1,v2} e1'={v3,v4,v5} e2'={v1,v2,v3}
//
// m' is NOT a valid embedding of Fig4PartialQuery (the vertex-profile
// multisets differ), which the validation tests assert.
func Fig4PartialEmbedding() *hypergraph.Hypergraph {
	labels := []uint32{B, A, A, A, A, A}
	edges := [][]uint32{
		{0, 1, 2},
		{3, 4, 5},
		{1, 2, 3},
	}
	return hypergraph.MustFromEdges(labels, edges)
}

// RandomConfig controls RandomHypergraph.
type RandomConfig struct {
	NumVertices int
	NumEdges    int
	NumLabels   int
	MaxArity    int // arities drawn uniformly from [2, MaxArity]
}

// RandomHypergraph generates a small random labelled hypergraph for
// cross-check tests. Determinism is guaranteed by the seed. Duplicate edges
// produced by chance are removed by the builder, so the result may have
// fewer than cfg.NumEdges hyperedges.
func RandomHypergraph(rng *rand.Rand, cfg RandomConfig) *hypergraph.Hypergraph {
	if cfg.NumLabels < 1 {
		cfg.NumLabels = 1
	}
	if cfg.MaxArity < 2 {
		cfg.MaxArity = 2
	}
	b := hypergraph.NewBuilder()
	for i := 0; i < cfg.NumVertices; i++ {
		b.AddVertex(uint32(rng.Intn(cfg.NumLabels)))
	}
	for i := 0; i < cfg.NumEdges; i++ {
		arity := 2 + rng.Intn(cfg.MaxArity-1)
		if arity > cfg.NumVertices {
			arity = cfg.NumVertices
		}
		vs := make([]uint32, 0, arity)
		for len(vs) < arity {
			vs = append(vs, uint32(rng.Intn(cfg.NumVertices)))
		}
		b.AddEdge(vs...)
	}
	return b.MustBuild()
}

// ConnectedQueryFromWalk samples a connected query hypergraph of n
// hyperedges from h via a hyperedge random walk, mirroring the paper's
// query workload (§VII-A). It returns nil if h has no edges or the walk
// cannot reach n edges. Vertices are renumbered densely; labels carry over.
func ConnectedQueryFromWalk(rng *rand.Rand, h *hypergraph.Hypergraph, n int) *hypergraph.Hypergraph {
	if h.NumEdges() == 0 || n < 1 {
		return nil
	}
	start := hypergraph.EdgeID(rng.Intn(h.NumEdges()))
	chosen := map[hypergraph.EdgeID]bool{start: true}
	frontier := []hypergraph.EdgeID{start}
	for len(chosen) < n && len(frontier) > 0 {
		// Gather candidate adjacent edges of a random frontier edge.
		e := frontier[rng.Intn(len(frontier))]
		adj := h.AdjacentEdges(e)
		var fresh []hypergraph.EdgeID
		for _, a := range adj {
			if !chosen[a] {
				fresh = append(fresh, a)
			}
		}
		if len(fresh) == 0 {
			// Remove exhausted edge from frontier.
			nf := frontier[:0]
			for _, f := range frontier {
				if f != e {
					nf = append(nf, f)
				}
			}
			frontier = nf
			continue
		}
		next := fresh[rng.Intn(len(fresh))]
		chosen[next] = true
		frontier = append(frontier, next)
	}
	if len(chosen) < n {
		return nil
	}
	// Renumber vertices densely.
	remap := make(map[uint32]uint32)
	b := hypergraph.NewBuilder()
	for e := range chosen {
		for _, v := range h.Edge(e) {
			if _, ok := remap[v]; !ok {
				remap[v] = b.AddVertex(h.Label(v))
			}
		}
	}
	for e := range chosen {
		vs := make([]uint32, 0, h.Arity(e))
		for _, v := range h.Edge(e) {
			vs = append(vs, remap[v])
		}
		b.AddEdge(vs...)
	}
	return b.MustBuild()
}

// NamedGraph is a fixture graph with a name for test messages.
type NamedGraph struct {
	Name  string
	Graph *hypergraph.Hypergraph
}

// ServingGraphs returns data graphs in the four storage shapes every
// matching path must answer alike:
//
//	dense      one label and small arities: tables large and dense enough
//	           for bitmap posting containers
//	arrays     two labels, every table array-only
//	delta      arrays behind a DeltaBuffer after ApplyDelta: delta
//	           postings, tombstones and one table emptied by them
//	compacted  delta folded into a fresh base
//
// Label l is named "L<l>" in each graph's dictionary — the name hgio.Write
// gives a label of a dictionary-less graph — so a query sampled from the
// graph and sent in text format aligns back onto the same label IDs.
func ServingGraphs() []NamedGraph {
	rng := rand.New(rand.NewSource(26))
	dense := withLabelNames(RandomHypergraph(rng, RandomConfig{
		NumVertices: 24, NumEdges: 200, NumLabels: 1, MaxArity: 3,
	}))
	arrays := withLabelNames(RandomHypergraph(rng, RandomConfig{
		NumVertices: 30, NumEdges: 240, NumLabels: 2, MaxArity: 3,
	})).WithoutBitmapSidecars()
	buf, err := hypergraph.NewDeltaBuffer(arrays)
	if err != nil {
		panic(err)
	}
	if err := ApplyDelta(buf); err != nil {
		panic(err)
	}
	delta := buf.Snapshot()
	compacted, err := buf.Compact()
	if err != nil {
		panic(err)
	}
	return []NamedGraph{{"dense", dense}, {"arrays", arrays}, {"delta", delta}, {"compacted", compacted}}
}

// ApplyDelta writes a fixed batch of online updates into buf and publishes
// them: inserts of random hyperedges, then deletes of some inserted and
// some base hyperedges and of every hyperedge of the smallest base table
// holding at least two, which leaves that table's slot in the snapshot with
// no live edge.
func ApplyDelta(buf *hypergraph.DeltaBuffer) error {
	rng := rand.New(rand.NewSource(27))
	var inserted []hypergraph.EdgeID
	for i := 0; i < 40; i++ {
		perm := rng.Perm(buf.NumVertices())[:2+rng.Intn(3)]
		vs := make([]uint32, len(perm))
		for j, v := range perm {
			vs[j] = uint32(v)
		}
		e, added, err := buf.Insert(vs...)
		if err != nil {
			return err
		}
		if added {
			inserted = append(inserted, e)
		}
	}
	h := buf.Publish()
	var deletes []hypergraph.EdgeID
	for i := 0; i < len(inserted); i += 4 {
		deletes = append(deletes, inserted[i])
	}
	for e := 0; e < h.NumEdges(); e += 17 {
		deletes = append(deletes, hypergraph.EdgeID(e))
	}
	// The emptied table must be a base table: one only the delta created
	// vanishes with its last edge instead of keeping its slot.
	baseEdges := hypergraph.EdgeID(buf.Base().NumEdges())
	smallest := -1
	for i := 0; i < h.NumPartitions(); i++ {
		p := h.Partition(i)
		if n := len(p.Edges); n >= 2 && p.Edges[0] < baseEdges && (smallest < 0 || n < len(h.Partition(smallest).Edges)) {
			smallest = i
		}
	}
	for _, e := range append(deletes, h.Partition(smallest).Edges...) {
		if _, err := buf.Delete(h.Edge(e)...); err != nil {
			return err
		}
	}
	buf.Publish()
	return nil
}

// withLabelNames rebuilds h with a vertex-label dictionary naming label l
// "L<l>".
func withLabelNames(h *hypergraph.Hypergraph) *hypergraph.Hypergraph {
	dict := hypergraph.NewDict()
	for l := 0; l <= int(slices.Max(h.Labels())); l++ {
		dict.Intern("L" + strconv.Itoa(l))
	}
	b := hypergraph.NewBuilder().WithDicts(dict, nil)
	for v := 0; v < h.NumVertices(); v++ {
		b.AddVertex(h.Label(uint32(v)))
	}
	for e := 0; e < h.NumEdges(); e++ {
		b.AddEdge(h.Edge(hypergraph.EdgeID(e))...)
	}
	return b.MustBuild()
}
