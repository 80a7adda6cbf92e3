package engine_test

import (
	"testing"

	"hgmatch/internal/core"
	"hgmatch/internal/engine"
	"hgmatch/internal/hypergraph"
)

// TestTheoremVI1MemoryBound checks the paper's memory-bound claim for the
// task scheduler: with LIFO scheduling, live tasks never exceed
// O(|E(q)| × |E(H)|) per worker — each of the |E(q)| dataflow operators can
// have at most |C(e_q)| ≤ |E(H)| tasks outstanding per queue — so peak
// bytes stay within O(a_q × |E(q)|² × |E(H)|) overall. The pool model checks
// the block-unit form of the bound on every request, at every width and on
// every way out of a run. A BFS materialiser deliberately violates this (it
// holds whole levels), which Exp-5 demonstrates (internal/experiments).
func TestTheoremVI1MemoryBound(t *testing.T) {
	poolModel(t, pmPlan{from: 3701, to: 3704, rounds: 15, ops: "workers nostl solo rows", must: "complete nq4"})
}

// TestEdgeLabelledMatching exercises the footnote-2 extension end to end:
// hyperedge labels partition the tables, and queries only match data
// hyperedges carrying the same edge label.
func TestEdgeLabelledMatching(t *testing.T) {
	// Data: two facts over the same vertex set with different relation
	// labels, plus one more "likes" fact.
	d := hypergraph.NewDict()
	ed := hypergraph.NewDict()
	person := d.Intern("Person")
	item := d.Intern("Item")
	likes := ed.Intern("likes")
	owns := ed.Intern("owns")

	b := hypergraph.NewBuilder().WithDicts(d, ed)
	p1 := b.AddVertex(person)
	p2 := b.AddVertex(person)
	i1 := b.AddVertex(item)
	i2 := b.AddVertex(item)
	b.AddLabelledEdge(likes, p1, i1)
	b.AddLabelledEdge(owns, p1, i1)
	b.AddLabelledEdge(likes, p2, i2)
	h := b.MustBuild()

	// Query: one "likes" relation between a Person and an Item.
	qb := hypergraph.NewBuilder().WithDicts(d, ed)
	qp := qb.AddVertex(person)
	qi := qb.AddVertex(item)
	qb.AddLabelledEdge(likes, qp, qi)
	q := qb.MustBuild()

	plan, err := core.NewPlan(q, h)
	if err != nil {
		t.Fatal(err)
	}
	res := engine.Run(plan, engine.Options{Workers: 2})
	if res.Embeddings != 2 {
		t.Fatalf("edge-labelled match found %d, want 2 (only the 'likes' facts)", res.Embeddings)
	}

	// Unlabelled query edge against edge-labelled data: NoEdgeLabel keys
	// a different partition family, so nothing matches — relations are
	// typed.
	qb2 := hypergraph.NewBuilder().WithDicts(d, ed)
	qp2 := qb2.AddVertex(person)
	qi2 := qb2.AddVertex(item)
	qb2.AddEdge(qp2, qi2)
	q2 := qb2.MustBuild()
	plan2, err := core.NewPlan(q2, h)
	if err != nil {
		t.Fatal(err)
	}
	if n := engine.Run(plan2, engine.Options{Workers: 1}).Embeddings; n != 0 {
		t.Fatalf("unlabelled query matched %d labelled facts", n)
	}
}

// TestEdgeLabelledTwoStep: a connected 2-edge edge-labelled query runs
// through EXPAND (not just SCAN).
func TestEdgeLabelledTwoStep(t *testing.T) {
	ed := hypergraph.NewDict()
	r1 := ed.Intern("r1")
	r2 := ed.Intern("r2")
	b := hypergraph.NewBuilder().WithDicts(nil, ed)
	for i := 0; i < 6; i++ {
		b.AddVertex(0)
	}
	b.AddLabelledEdge(r1, 0, 1)
	b.AddLabelledEdge(r2, 1, 2)
	b.AddLabelledEdge(r1, 3, 4)
	b.AddLabelledEdge(r1, 4, 5) // r1-r1 chain: must NOT match r1-r2 query
	h := b.MustBuild()

	qb := hypergraph.NewBuilder().WithDicts(nil, ed)
	u0 := qb.AddVertex(0)
	u1 := qb.AddVertex(0)
	u2 := qb.AddVertex(0)
	qb.AddLabelledEdge(r1, u0, u1)
	qb.AddLabelledEdge(r2, u1, u2)
	q := qb.MustBuild()

	plan, err := core.NewPlan(q, h)
	if err != nil {
		t.Fatal(err)
	}
	if n := engine.Run(plan, engine.Options{Workers: 2}).Embeddings; n != 1 {
		t.Fatalf("edge-labelled 2-step count = %d, want 1", n)
	}
}
