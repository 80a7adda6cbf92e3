package core_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"hgmatch/internal/core"
	"hgmatch/internal/hgtest"
	"hgmatch/internal/hypergraph"
)

// embeddingSet collects embeddings as canonical strings for set comparison.
func embeddingSet(p *core.Plan) map[string]bool {
	out := make(map[string]bool)
	p.EnumerateSequential(func(m []hypergraph.EdgeID) {
		// Canonicalise by sorting edge IDs (an embedding is a sub-
		// hypergraph; the tuple order depends on the matching order).
		s := append([]hypergraph.EdgeID(nil), m...)
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		out[fmt.Sprint(s)] = true
	})
	return out
}

// TestExplainMatchesFig5a checks the rendering against the paper's Fig. 5a
// dataflow graph: SCAN({u2,u4}) -> EXPAND({u0,u1,u2}) ->
// EXPAND({u0,u1,u3,u4}) -> SINK.
func TestExplainMatchesFig5a(t *testing.T) {
	p, err := core.NewPlan(hgtest.Fig1Query(), hgtest.Fig1Data())
	if err != nil {
		t.Fatal(err)
	}
	got := p.Explain()
	want := "SCAN({u2,u4}) -> EXPAND({u0,u1,u2}) -> EXPAND({u0,u1,u3,u4}) -> SINK"
	if got != want {
		t.Errorf("Explain:\n got %q\nwant %q", got, want)
	}
}

func TestMatchingOrderFig1(t *testing.T) {
	q, h := hgtest.Fig1Query(), hgtest.Fig1Data()
	p, err := core.NewPlan(q, h)
	if err != nil {
		t.Fatal(err)
	}
	order := p.Order
	// The paper's Example V.1 order: ({u2,u4}, {u0,u1,u2}, {u0,u1,u3,u4}),
	// which are query edges 0, 1, 2 (all cardinalities are 2; ties break
	// to smaller IDs).
	want := []hypergraph.EdgeID{0, 1, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if err := core.ValidateOrder(q, order); err != nil {
		t.Fatal(err)
	}
}

func TestMatchingOrderStartsAtMinCardinality(t *testing.T) {
	// Data: many {A,A} edges, one {B,B} edge. Query has both shapes; the
	// order must start with the {B,B} query edge.
	b := hypergraph.NewBuilder()
	for i := 0; i < 10; i++ {
		b.AddVertex(0) // A
	}
	v1 := b.AddVertex(1) // B
	v2 := b.AddVertex(1) // B
	for i := 0; i < 9; i++ {
		b.AddEdge(uint32(i), uint32(i+1))
	}
	b.AddEdge(v1, v2)
	b.AddEdge(uint32(9), v1) // connect: {A,B}
	h := b.MustBuild()

	qb := hypergraph.NewBuilder()
	a0 := qb.AddVertex(0)
	a1 := qb.AddVertex(0)
	b0 := qb.AddVertex(1)
	b1 := qb.AddVertex(1)
	qb.AddEdge(a0, a1) // {A,A}: card 9
	qb.AddEdge(a1, b0) // {A,B}: card 1
	qb.AddEdge(b0, b1) // {B,B}: card 1
	q := qb.MustBuild()

	p, err := core.NewPlan(q, h)
	if err != nil {
		t.Fatal(err)
	}
	order := p.Order
	first := q.Edge(order[0])
	sig := hypergraph.SignatureOf(first, q.Labels())
	if h.Cardinality(sig) != 1 {
		t.Errorf("order starts with cardinality %d edge, want 1 (order %v)", h.Cardinality(sig), order)
	}
}

func TestDisconnectedQuery(t *testing.T) {
	qb := hypergraph.NewBuilder()
	for i := 0; i < 4; i++ {
		qb.AddVertex(0)
	}
	qb.AddEdge(0, 1)
	qb.AddEdge(2, 3)
	q := qb.MustBuild()
	h := hgtest.Fig1Data()
	if _, err := core.NewPlan(q, h); err == nil {
		t.Fatal("NewPlan should fail for a disconnected query")
	}
}

func TestValidateOrderErrors(t *testing.T) {
	q := hgtest.Fig1Query()
	cases := [][]hypergraph.EdgeID{
		{0, 1},    // wrong length
		{0, 0, 1}, // repeat
		{0, 9, 1}, // unknown edge
	}
	for _, o := range cases {
		if err := core.ValidateOrder(q, o); err == nil {
			t.Errorf("ValidateOrder(%v) should fail", o)
		}
	}
	if err := core.ValidateOrder(q, []hypergraph.EdgeID{2, 1, 0}); err != nil {
		t.Errorf("reverse order should be valid (all edges connected): %v", err)
	}
}

// TestFig1Embeddings checks the paper's running example: q has exactly two
// embeddings in H, (e1,e3,e5) and (e2,e4,e6).
func TestFig1Embeddings(t *testing.T) {
	q, h := hgtest.Fig1Query(), hgtest.Fig1Data()
	p, err := core.NewPlan(q, h)
	if err != nil {
		t.Fatal(err)
	}
	got := embeddingSet(p)
	want := map[string]bool{
		fmt.Sprint([]hypergraph.EdgeID{0, 2, 4}): true, // e1,e3,e5
		fmt.Sprint([]hypergraph.EdgeID{1, 3, 5}): true, // e2,e4,e6
	}
	if len(got) != len(want) {
		t.Fatalf("got %d embeddings %v, want %v", len(got), got, want)
	}
	for k := range want {
		if !got[k] {
			t.Errorf("missing embedding %s", k)
		}
	}
	n, ct := p.CountSequential()
	if n != 2 {
		t.Errorf("CountSequential = %d", n)
	}
	if ct.Candidates == 0 || ct.Valid < 2 {
		t.Errorf("counters look wrong: %+v", ct)
	}
}

// TestExampleV1Candidates reproduces the paper's Example V.1: with
// m = (e1, e3) the candidates of {u0,u1,u3,u4} are exactly {e5}.
func TestExampleV1Candidates(t *testing.T) {
	q, h := hgtest.Fig1Query(), hgtest.Fig1Data()
	order := []hypergraph.EdgeID{0, 1, 2}
	p, err := core.NewPlanWithOrder(q, h, order)
	if err != nil {
		t.Fatal(err)
	}
	m := []hypergraph.EdgeID{0, 2, 0} // e1, e3, (unmatched)
	cands := p.CandidatesOnly(2, m)
	if len(cands) != 1 || cands[0] != 4 {
		t.Fatalf("CandidatesOnly = %v, want [4] (e5)", cands)
	}
}

// TestFig4ValidationCounterexample reproduces the paper's Example V.2: the
// candidate partial embedding of Fig. 4b must be rejected by the vertex-
// profile validation even though it is signature-compatible.
func TestFig4ValidationCounterexample(t *testing.T) {
	q := hgtest.Fig4PartialQuery()
	h := hgtest.Fig4PartialEmbedding()
	order := []hypergraph.EdgeID{0, 1, 2} // e0, e1, e2 as in the paper
	// e0 and e1 are disconnected in q until e2 joins them, so the paper's
	// order is not connected at position 1; use (e0, e2, e1) instead and
	// check the same conclusion: no embedding maps q onto H entirely.
	order = []hypergraph.EdgeID{0, 2, 1}
	p, err := core.NewPlanWithOrder(q, h, order)
	if err != nil {
		t.Fatal(err)
	}
	n, _ := p.CountSequential()
	if n != 0 {
		t.Fatalf("Fig.4 partial embedding accepted: count = %d, want 0", n)
	}
	// Ground truth agrees.
	if core.VerifyEmbedding(q, h, order, []hypergraph.EdgeID{0, 2, 1}) {
		t.Fatal("VerifyEmbedding accepted the Fig.4 counterexample")
	}
}

func TestSelfMatch(t *testing.T) {
	// Any hypergraph matches itself at least once.
	h := hgtest.Fig1Data()
	rng := rand.New(rand.NewSource(7))
	for n := 1; n <= 3; n++ {
		q := hgtest.ConnectedQueryFromWalk(rng, h, n)
		if q == nil {
			t.Fatalf("walk failed for n=%d", n)
		}
		p, err := core.NewPlan(q, h)
		if err != nil {
			t.Fatal(err)
		}
		cnt, _ := p.CountSequential()
		if cnt == 0 {
			t.Fatalf("query sampled from data has no embedding (n=%d)", n)
		}
	}
}

// bruteForceCount enumerates all distinct-edge tuples aligned with the
// order and counts those accepted by VerifyEmbedding — an independent
// ground truth for small graphs.
func bruteForceCount(q, h *hypergraph.Hypergraph, order []hypergraph.EdgeID) uint64 {
	n := len(order)
	var cnt uint64
	tuple := make([]hypergraph.EdgeID, n)
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			if core.VerifyEmbedding(q, h, order, tuple) {
				cnt++
			}
			return
		}
		qa := q.Arity(order[i])
	next:
		for e := 0; e < h.NumEdges(); e++ {
			if h.Arity(uint32(e)) != qa {
				continue
			}
			for j := 0; j < i; j++ {
				if tuple[j] == hypergraph.EdgeID(e) {
					continue next
				}
			}
			tuple[i] = hypergraph.EdgeID(e)
			rec(i + 1)
		}
	}
	rec(0)
	return cnt
}

// TestAgainstBruteForce cross-checks HGMatch against exhaustive
// verification on many random (data, query) pairs.
func TestAgainstBruteForce(t *testing.T) {
	if testing.Short() {
		t.Skip("brute force is slow")
	}
	checked := 0
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := hgtest.RandomHypergraph(rng, hgtest.RandomConfig{
			NumVertices: 12, NumEdges: 14, NumLabels: 2, MaxArity: 4,
		})
		for _, nq := range []int{1, 2, 3} {
			q := hgtest.ConnectedQueryFromWalk(rng, h, nq)
			if q == nil {
				continue
			}
			p, err := core.NewPlan(q, h)
			if err != nil {
				t.Fatal(err)
			}
			got, _ := p.CountSequential()
			want := bruteForceCount(q, h, p.Order)
			if got != want {
				t.Fatalf("seed %d nq %d: HGMatch=%d brute=%d\nquery=%v\ndata=%v",
					seed, nq, got, want, q, h)
			}
			checked++
		}
	}
	if checked < 60 {
		t.Fatalf("only %d cross-checks ran", checked)
	}
}

// TestEveryEmittedEmbeddingVerifies asserts soundness: every tuple HGMatch
// emits passes the first-principles Definition III.3 oracle.
func TestEveryEmittedEmbeddingVerifies(t *testing.T) {
	for seed := int64(100); seed < 130; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := hgtest.RandomHypergraph(rng, hgtest.RandomConfig{
			NumVertices: 15, NumEdges: 25, NumLabels: 3, MaxArity: 4,
		})
		q := hgtest.ConnectedQueryFromWalk(rng, h, 3)
		if q == nil {
			continue
		}
		p, err := core.NewPlan(q, h)
		if err != nil {
			t.Fatal(err)
		}
		p.EnumerateSequential(func(m []hypergraph.EdgeID) {
			if !core.VerifyEmbedding(q, h, p.Order, m) {
				t.Fatalf("seed %d: emitted non-embedding %v", seed, m)
			}
		})
	}
}

// TestAnyConnectedOrderSameCount: HGMatch works with any connected matching
// order (§V-A); counts must not depend on the order.
func TestAnyConnectedOrderSameCount(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	h := hgtest.RandomHypergraph(rng, hgtest.RandomConfig{
		NumVertices: 20, NumEdges: 40, NumLabels: 2, MaxArity: 4,
	})
	q := hgtest.ConnectedQueryFromWalk(rng, h, 4)
	if q == nil {
		t.Skip("no 4-edge query")
	}
	base, err := core.NewPlan(q, h)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := base.CountSequential()
	// Try all permutations of E(q) that are connected.
	perms := permutations(q.NumEdges())
	tried := 0
	for _, perm := range perms {
		order := make([]hypergraph.EdgeID, len(perm))
		for i, x := range perm {
			order[i] = hypergraph.EdgeID(x)
		}
		if core.ValidateOrder(q, order) != nil {
			continue
		}
		p, err := core.NewPlanWithOrder(q, h, order)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := p.CountSequential()
		if got != want {
			t.Fatalf("order %v: count %d, want %d", order, got, want)
		}
		tried++
	}
	if tried < 2 {
		t.Skipf("only %d connected orders", tried)
	}
}

func permutations(n int) [][]int {
	var out [][]int
	perm := make([]int, n)
	used := make([]bool, n)
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			out = append(out, append([]int(nil), perm...))
			return
		}
		for x := 0; x < n; x++ {
			if used[x] {
				continue
			}
			used[x] = true
			perm[i] = x
			rec(i + 1)
			used[x] = false
		}
	}
	rec(0)
	return out
}

func TestEmptyPlanShortCircuit(t *testing.T) {
	// Query label that does not exist in data.
	qb := hypergraph.NewBuilder()
	v0 := qb.AddVertex(99)
	v1 := qb.AddVertex(99)
	qb.AddEdge(v0, v1)
	q := qb.MustBuild()
	h := hgtest.Fig1Data()
	p, err := core.NewPlan(q, h)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Empty {
		t.Error("plan should be Empty")
	}
	if n, _ := p.CountSequential(); n != 0 {
		t.Errorf("count = %d", n)
	}
	if p.InitialCandidates() != nil {
		t.Error("InitialCandidates should be nil")
	}
}

func TestSingleEdgeQuery(t *testing.T) {
	h := hgtest.Fig1Data()
	qb := hypergraph.NewBuilder()
	a := qb.AddVertex(hgtest.A)
	b := qb.AddVertex(hgtest.B)
	qb.AddEdge(a, b)
	q := qb.MustBuild()
	p, err := core.NewPlan(q, h)
	if err != nil {
		t.Fatal(err)
	}
	// Two data edges have signature {A,B}: e1, e2.
	if n, _ := p.CountSequential(); n != 2 {
		t.Errorf("count = %d, want 2", n)
	}
}

func TestTaskBytesAndStepSignature(t *testing.T) {
	q, h := hgtest.Fig1Query(), hgtest.Fig1Data()
	p, err := core.NewPlan(q, h)
	if err != nil {
		t.Fatal(err)
	}
	if p.TaskBytes() < 4*p.NumSteps() {
		t.Errorf("TaskBytes = %d", p.TaskBytes())
	}
	for i := 0; i < p.NumSteps(); i++ {
		sig := p.StepSignature(i)
		if sig.Arity() != p.Query.Arity(p.Order[i]) {
			t.Errorf("step %d signature arity mismatch", i)
		}
	}
}

func TestVerifyEmbeddingRejects(t *testing.T) {
	q, h := hgtest.Fig1Query(), hgtest.Fig1Data()
	order := []hypergraph.EdgeID{0, 1, 2}
	// Mixed tuple from the two true embeddings is invalid.
	if core.VerifyEmbedding(q, h, order, []hypergraph.EdgeID{0, 2, 5}) {
		t.Error("mixed tuple accepted")
	}
	// Arity mismatch.
	if core.VerifyEmbedding(q, h, order, []hypergraph.EdgeID{2, 2, 4}) {
		t.Error("arity mismatch accepted")
	}
	// Wrong length.
	if core.VerifyEmbedding(q, h, order, []hypergraph.EdgeID{0, 2}) {
		t.Error("short tuple accepted")
	}
	// The true ones are accepted.
	if !core.VerifyEmbedding(q, h, order, []hypergraph.EdgeID{0, 2, 4}) {
		t.Error("true embedding (e1,e3,e5) rejected")
	}
	if !core.VerifyEmbedding(q, h, order, []hypergraph.EdgeID{1, 3, 5}) {
		t.Error("true embedding (e2,e4,e6) rejected")
	}
}

func TestTooManyQueryEdges(t *testing.T) {
	b := hypergraph.NewBuilder()
	for i := 0; i < 70; i++ {
		b.AddVertex(0)
	}
	for i := 0; i < 66; i++ {
		b.AddEdge(uint32(i), uint32(i+1))
	}
	q := b.MustBuild()
	h := q
	order := make([]hypergraph.EdgeID, q.NumEdges())
	for i := range order {
		order[i] = hypergraph.EdgeID(i)
	}
	if _, err := core.NewPlanWithOrder(q, h, order); err == nil {
		t.Fatal("expected error for >64 query edges")
	}
}
