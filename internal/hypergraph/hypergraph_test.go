package hypergraph_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hgmatch/internal/hgtest"
	"hgmatch/internal/hypergraph"
	"hgmatch/internal/setops"
)

func TestFig1BasicStats(t *testing.T) {
	h := hgtest.Fig1Data()
	if h.NumVertices() != 7 {
		t.Errorf("NumVertices = %d, want 7", h.NumVertices())
	}
	if h.NumEdges() != 6 {
		t.Errorf("NumEdges = %d, want 6", h.NumEdges())
	}
	if h.NumLabels() != 3 {
		t.Errorf("NumLabels = %d, want 3", h.NumLabels())
	}
	if h.MaxArity() != 4 {
		t.Errorf("MaxArity = %d, want 4", h.MaxArity())
	}
	wantAvg := float64(2+2+3+3+4+4) / 6
	if h.AvgArity() != wantAvg {
		t.Errorf("AvgArity = %f, want %f", h.AvgArity(), wantAvg)
	}
	if err := h.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

// TestFig1Partitions reproduces the data layout of the paper's Table I:
// three partitions with signatures {A,B}, {A,A,C}, {A,A,B,C}, each with its
// inverted index. Under the default small-table cutoff these two-edge
// tables carry none, so the index is checked with every table indexed.
func TestFig1Partitions(t *testing.T) {
	for pi, p := range partitionsOf(hgtest.Fig1Data()) {
		if p.HasBaseIndex() {
			t.Errorf("two-edge table %d carries an index under the default cutoff", pi)
		}
	}
	defer hypergraph.ForceScanMax(0)()
	h := hgtest.Fig1Data()
	if h.NumPartitions() != 3 {
		t.Fatalf("NumPartitions = %d, want 3", h.NumPartitions())
	}
	// Partition 1 of Table I: S = {A, B} holding e1={v2,v4}, e2={v4,v6}.
	sigAB := hypergraph.Signature{hgtest.A, hgtest.B}
	p := h.PartitionFor(sigAB)
	if p.Len() == 0 {
		t.Fatal("no partition for {A,B}")
	}
	if p.Len() != 2 {
		t.Errorf("partition {A,B} has %d edges, want 2", p.Len())
	}
	if got := p.Postings(4); !setops.Equal(got, []uint32{0, 1}) {
		t.Errorf("postings(v4) in {A,B} = %v, want [0 1] (e1,e2)", got)
	}
	if got := p.Postings(2); !setops.Equal(got, []uint32{0}) {
		t.Errorf("postings(v2) in {A,B} = %v, want [0]", got)
	}
	if got := p.Postings(6); !setops.Equal(got, []uint32{1}) {
		t.Errorf("postings(v6) in {A,B} = %v, want [1]", got)
	}
	if got := p.Postings(0); got != nil {
		t.Errorf("postings(v0) in {A,B} = %v, want nil", got)
	}

	// Partition 2: S = {A, A, C} holding e3, e4.
	sigAAC := hypergraph.Signature{hgtest.A, hgtest.A, hgtest.C}
	p2 := h.PartitionFor(sigAAC)
	if p2.Len() != 2 {
		t.Fatalf("partition {A,A,C} = %v", p2)
	}
	for _, v := range []uint32{0, 1, 2} {
		if got := p2.Postings(v); !setops.Equal(got, []uint32{2}) {
			t.Errorf("postings(v%d) in {A,A,C} = %v, want [2] (e3)", v, got)
		}
	}
	for _, v := range []uint32{3, 5, 6} {
		if got := p2.Postings(v); !setops.Equal(got, []uint32{3}) {
			t.Errorf("postings(v%d) in {A,A,C} = %v, want [3] (e4)", v, got)
		}
	}

	// Partition 3: S = {A, A, B, C} holding e5, e6; v4 in both.
	sigAABC := hypergraph.Signature{hgtest.A, hgtest.A, hgtest.B, hgtest.C}
	p3 := h.PartitionFor(sigAABC)
	if p3.Len() != 2 {
		t.Fatalf("partition {A,A,B,C} = %v", p3)
	}
	if got := p3.Postings(4); !setops.Equal(got, []uint32{4, 5}) {
		t.Errorf("postings(v4) in {A,A,B,C} = %v, want [4 5] (e5,e6)", got)
	}

	// Cardinality fetches (Definition V.2).
	if c := h.Cardinality(sigAB); c != 2 {
		t.Errorf("Card({A,B}) = %d, want 2", c)
	}
	if c := h.Cardinality(hypergraph.Signature{hgtest.B, hgtest.B}); c != 0 {
		t.Errorf("Card({B,B}) = %d, want 0", c)
	}
}

func TestIncidenceAndDegree(t *testing.T) {
	h := hgtest.Fig1Data()
	// v4 ∈ e1, e2, e5, e6 -> degree 4.
	if d := h.Degree(4); d != 4 {
		t.Errorf("Degree(v4) = %d, want 4", d)
	}
	if got := h.Incident(4); !setops.Equal(got, []uint32{0, 1, 4, 5}) {
		t.Errorf("Incident(v4) = %v", got)
	}
	// v0 ∈ e3, e5.
	if got := h.Incident(0); !setops.Equal(got, []uint32{2, 4}) {
		t.Errorf("Incident(v0) = %v", got)
	}
}

func TestAdjacency(t *testing.T) {
	h := hgtest.Fig1Data()
	// adj(v0): vertices sharing an edge with v0 = e3{v0,v1,v2} ∪ e5{v0,v1,v4,v6} minus v0.
	want := []uint32{1, 2, 4, 6}
	if got := h.AdjacentVertices(0); !setops.Equal(got, want) {
		t.Errorf("AdjacentVertices(v0) = %v, want %v", got, want)
	}
	// adj(e1): edges sharing a vertex with e1={v2,v4} -> e2 (v4), e3 (v2), e5 (v4), e6 (v2,v4).
	wantE := []uint32{1, 2, 4, 5}
	if got := h.AdjacentEdges(0); !setops.Equal(got, wantE) {
		t.Errorf("AdjacentEdges(e1) = %v, want %v", got, wantE)
	}
}

func TestArityHistogram(t *testing.T) {
	h := hgtest.Fig1Data()
	// v4: e1(2), e2(2), e5(4), e6(4).
	hist := h.ArityHistogram(4)
	if hist[2] != 2 || hist[4] != 2 || len(hist) != 2 {
		t.Errorf("ArityHistogram(v4) = %v", hist)
	}
}

func TestFindEdge(t *testing.T) {
	h := hgtest.Fig1Data()
	if e, ok := h.FindEdge([]uint32{0, 1, 4, 6}); !ok || e != 4 {
		t.Errorf("FindEdge(e5 set) = %d,%v", e, ok)
	}
	if _, ok := h.FindEdge([]uint32{0, 1}); ok {
		t.Error("FindEdge({v0,v1}) should not exist")
	}
	if _, ok := h.FindEdge(nil); ok {
		t.Error("FindEdge(nil) should not exist")
	}
}

func TestBuilderNormalisation(t *testing.T) {
	b := hypergraph.NewBuilder()
	for i := 0; i < 4; i++ {
		b.AddVertex(0)
	}
	b.AddEdge(2, 1, 2, 1) // duplicates within edge
	b.AddEdge(1, 2)       // duplicate of the previous after normalisation
	b.AddEdge(3, 0)
	b.AddEdge() // empty, dropped
	h := b.MustBuild()
	if h.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2 (dedup)", h.NumEdges())
	}
	if got := h.Edge(0); !setops.Equal(got, []uint32{1, 2}) {
		t.Errorf("Edge(0) = %v, want [1 2]", got)
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderUnknownVertex(t *testing.T) {
	b := hypergraph.NewBuilder()
	b.AddVertex(0)
	b.AddEdge(0, 5)
	if _, err := b.Build(); err == nil {
		t.Fatal("Build should fail for unknown vertex reference")
	}
}

func TestEdgeLabelledPartitions(t *testing.T) {
	b := hypergraph.NewBuilder()
	for i := 0; i < 3; i++ {
		b.AddVertex(0)
	}
	b.AddLabelledEdge(7, 0, 1)
	b.AddLabelledEdge(8, 0, 1) // same vertices, different edge label: kept
	b.AddLabelledEdge(7, 1, 2)
	h := b.MustBuild()
	if h.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3", h.NumEdges())
	}
	if !h.EdgeLabelled() {
		t.Fatal("EdgeLabelled() = false")
	}
	sig := hypergraph.Signature{0, 0}
	p7 := h.PartitionForLabelled(7, sig)
	p8 := h.PartitionForLabelled(8, sig)
	if p7.Len() != 2 || p8.Len() != 1 {
		t.Errorf("labelled partitions: |p7|=%d |p8|=%d, want 2,1", p7.Len(), p8.Len())
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSignature(t *testing.T) {
	labels := []uint32{3, 1, 2, 1}
	s := hypergraph.SignatureOf([]uint32{0, 1, 2, 3}, labels)
	want := hypergraph.Signature{1, 1, 2, 3}
	if !s.Equal(want) {
		t.Errorf("SignatureOf = %v, want %v", s, want)
	}
	if s.Arity() != 4 {
		t.Errorf("Arity = %d", s.Arity())
	}
	// Permutation invariance, property-based.
	f := func(vs []uint32) bool {
		if len(vs) == 0 {
			return true
		}
		lbl := make([]uint32, 256)
		for i := range lbl {
			lbl[i] = uint32(i % 5)
		}
		a := make([]uint32, len(vs))
		for i, v := range vs {
			a[i] = v % 256
		}
		s1 := hypergraph.SignatureOf(a, lbl)
		// Reverse the vertex order.
		b := make([]uint32, len(a))
		for i := range a {
			b[i] = a[len(a)-1-i]
		}
		s2 := hypergraph.SignatureOf(b, lbl)
		return s1.Equal(s2) && string(s1.Key()) == string(s2.Key())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSignatureKeyInjective(t *testing.T) {
	// Distinct multisets must map to distinct keys.
	f := func(xs, ys []uint32) bool {
		a := make(hypergraph.Signature, len(xs))
		for i, x := range xs {
			a[i] = x % 7
		}
		b := make(hypergraph.Signature, len(ys))
		for i, y := range ys {
			b[i] = y % 7
		}
		// Canonicalise by building via SignatureOf on identity labels.
		ga := hypergraph.SignatureOf(seq(len(a)), a)
		gb := hypergraph.SignatureOf(seq(len(b)), b)
		sameKey := string(ga.Key()) == string(gb.Key())
		return sameKey == ga.Equal(gb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func seq(n int) []uint32 {
	s := make([]uint32, n)
	for i := range s {
		s[i] = uint32(i)
	}
	return s
}

func TestDict(t *testing.T) {
	d := hypergraph.NewDict()
	a := d.Intern("Actor")
	b := d.Intern("Team")
	if a2 := d.Intern("Actor"); a2 != a {
		t.Errorf("re-intern changed ID: %d vs %d", a2, a)
	}
	if d.Len() != 2 {
		t.Errorf("Len = %d", d.Len())
	}
	if d.Name(a) != "Actor" || d.Name(b) != "Team" {
		t.Error("Name roundtrip failed")
	}
	if _, ok := d.Lookup("Match"); ok {
		t.Error("Lookup of unknown name succeeded")
	}
	if d.Name(99) != "#99" {
		t.Errorf("Name(99) = %q", d.Name(99))
	}
	s := hypergraph.Signature{a, a, b}
	if got := s.Format(d); got != "{Actor, Actor, Team}" {
		t.Errorf("Format = %q", got)
	}
}

func TestRandomGraphInvariants(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := hgtest.RandomHypergraph(rng, hgtest.RandomConfig{
			NumVertices: 30, NumEdges: 60, NumLabels: 4, MaxArity: 5,
		})
		if err := h.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Partition sizes sum to edge count; cardinality lookups agree.
		sum := 0
		for i := 0; i < h.NumPartitions(); i++ {
			p := h.Partition(i)
			sum += p.Len()
			if c := h.Cardinality(p.Sig); c != p.Len() {
				t.Fatalf("seed %d: Cardinality(%v)=%d want %d", seed, p.Sig, c, p.Len())
			}
		}
		if sum != h.NumEdges() {
			t.Fatalf("seed %d: partitions cover %d of %d edges", seed, sum, h.NumEdges())
		}
	}
}

func TestStats(t *testing.T) {
	h := hgtest.Fig1Data()
	s := hypergraph.ComputeStats(h)
	if s.NumVertices != 7 || s.NumEdges != 6 || s.NumLabels != 3 || s.MaxArity != 4 {
		t.Errorf("Stats = %+v", s)
	}
	if s.IndexBytes <= 0 || s.GraphBytes <= 0 {
		t.Errorf("sizes not positive: %+v", s)
	}
	if s.Partitions != 3 {
		t.Errorf("Partitions = %d", s.Partitions)
	}
}

func TestPartitionOfAndSignatureOf(t *testing.T) {
	h := hgtest.Fig1Data()
	for e := hypergraph.EdgeID(0); int(e) < h.NumEdges(); e++ {
		p := h.PartitionBySig(h.SigIDOf(e))
		if !setops.Contains(p.Edges, e) {
			t.Errorf("the table of SigIDOf(%d) does not contain the edge", e)
		}
		want := hypergraph.SignatureOf(h.Edge(e), h.Labels())
		if !h.SignatureOf(e).Equal(want) {
			t.Errorf("SignatureOf(%d) mismatch", e)
		}
	}
}

func TestDeterministicPartitionOrder(t *testing.T) {
	build := func() []string {
		h := hgtest.Fig1Data()
		var keys []string
		for i := 0; i < h.NumPartitions(); i++ {
			keys = append(keys, string(h.Partition(i).Sig.Key()))
		}
		return keys
	}
	a, b := build(), build()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("partition order not deterministic")
		}
	}
	// And sorted ascending by key.
	for i := 1; i < len(a); i++ {
		if a[i] <= a[i-1] {
			t.Fatal("partition keys not sorted")
		}
	}
}

// partitionsOf returns a view of every table of h.
func partitionsOf(h *hypergraph.Hypergraph) []hypergraph.Partition {
	ps := make([]hypergraph.Partition, h.NumPartitions())
	for pi := range ps {
		ps[pi] = h.Partition(pi)
	}
	return ps
}
