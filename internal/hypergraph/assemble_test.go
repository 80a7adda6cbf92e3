package hypergraph

import (
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// storageOf extracts Assemble's input from a built graph as private
// copies — the same arrays the binary formats persist — without the
// derived parts Assemble rebuilds.
func storageOf(h *Hypergraph) Storage {
	src := h.Storage()
	return Storage{
		Labels:     slices.Clone(src.Labels),
		EdgeOff:    slices.Clone(src.EdgeOff),
		EdgeVerts:  slices.Clone(src.EdgeVerts),
		EdgeLabels: slices.Clone(src.EdgeLabels),
		Tables:     slices.Clone(src.Tables),
		PartEdges:  slices.Clone(src.PartEdges),
		PartVerts:  slices.Clone(src.PartVerts),
		PartOffs:   slices.Clone(src.PartOffs),
		PartPosts:  slices.Clone(src.PartPosts),
		Dict:       src.Dict,
		EdgeDict:   src.EdgeDict,
	}
}

func buildRandom(seed int64) *Hypergraph {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder()
	nv := 10 + rng.Intn(40)
	for i := 0; i < nv; i++ {
		b.AddVertex(Label(rng.Intn(5)))
	}
	ne := 5 + rng.Intn(60)
	for i := 0; i < ne; i++ {
		a := 1 + rng.Intn(5)
		vs := make([]uint32, a)
		for j := range vs {
			vs[j] = uint32(rng.Intn(nv))
		}
		if seed%2 == 0 && rng.Intn(3) == 0 {
			b.AddLabelledEdge(Label(rng.Intn(3)), vs...)
		} else {
			b.AddEdge(vs...)
		}
	}
	return b.MustBuild()
}

func TestAssembleRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		h := buildRandom(seed)
		got, err := Assemble(storageOf(h))
		if err != nil {
			t.Fatalf("seed %d: Assemble: %v", seed, err)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("seed %d: assembled graph invalid: %v", seed, err)
		}
		if CanonicalKey(got) != CanonicalKey(h) {
			t.Fatalf("seed %d: assembled graph differs from source", seed)
		}
		if got.NumSignatures() != h.NumSignatures() || got.NumPartitions() != h.NumPartitions() {
			t.Fatalf("seed %d: index shape differs: %d/%d sigs, %d/%d partitions",
				seed, got.NumSignatures(), h.NumSignatures(), got.NumPartitions(), h.NumPartitions())
		}
		// Posting views must agree for every (partition, vertex).
		for pi := 0; pi < h.NumPartitions(); pi++ {
			p, q := h.Partition(pi), got.Partition(pi)
			for _, v := range p.PostingVertices() {
				a, b := p.Postings(v), q.Postings(v)
				if len(a) != len(b) {
					t.Fatalf("seed %d: partition %d vertex %d postings differ", seed, pi, v)
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("seed %d: partition %d vertex %d postings differ", seed, pi, v)
					}
				}
			}
		}
	}
}

func TestAssembleRejectsMalformed(t *testing.T) {
	h := MustFromEdges(
		[]Label{0, 1, 0, 1},
		[][]uint32{{0, 1}, {2, 3}, {0, 1, 2}},
	)
	// Table 0 is {0,1}-signature edges 0 and 1; table 1 is edge 2.
	cases := []struct {
		name   string
		mutate func(st *Storage)
	}{
		{"unsorted edge", func(st *Storage) {
			st.EdgeVerts[0], st.EdgeVerts[1] = st.EdgeVerts[1], st.EdgeVerts[0]
		}},
		{"vertex out of range", func(st *Storage) {
			st.EdgeVerts[1] = 99
		}},
		{"edge offsets decreasing", func(st *Storage) {
			st.EdgeOff[1] = st.EdgeOff[2] + 1
		}},
		{"empty edge", func(st *Storage) {
			st.EdgeOff[1] = 0
		}},
		{"offsets too short", func(st *Storage) {
			st.PartOffs = st.PartOffs[:len(st.PartOffs)-1]
		}},
		{"offsets decreasing", func(st *Storage) {
			st.PartOffs[1] = st.PartOffs[st.Tables[1].Verts] + 1
		}},
		{"offsets not spanning", func(st *Storage) {
			st.PartOffs[st.Tables[1].Verts]--
		}},
		{"posting edge out of range", func(st *Storage) {
			st.PartPosts[0] = 99
		}},
		{"foreign posting edge", func(st *Storage) {
			st.PartPosts[0] = st.PartEdges[st.Tables[1].Edges]
		}},
		{"duplicated partition edge", func(st *Storage) {
			st.PartEdges[st.Tables[1].Edges] = st.PartEdges[0]
		}},
		{"missing partition", func(st *Storage) {
			st.Tables = append(st.Tables[:1], st.Tables[2:]...)
		}},
		{"missing sentinel", func(st *Storage) {
			st.Tables = st.Tables[:len(st.Tables)-1]
		}},
		{"directory past its arrays", func(st *Storage) {
			st.Tables[len(st.Tables)-1].Posts++
		}},
		{"signature mismatch", func(st *Storage) {
			st.Labels[0] = 5
		}},
		{"empty partition", func(st *Storage) {
			st.Tables[1].Edges = st.Tables[0].Edges
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// The verdict must not depend on how many cores checked it.
			var verdicts [2]string
			for i, procs := range []int{1, 4} {
				st := storageOf(h)
				tc.mutate(&st)
				got, err := assembleAt(procs, st)
				if err == nil {
					// A mutation may coincidentally produce a valid graph;
					// it must then satisfy every invariant.
					if verr := got.Validate(); verr != nil {
						t.Fatalf("GOMAXPROCS=%d: Assemble accepted malformed input; Validate: %v", procs, verr)
					}
					continue
				}
				verdicts[i] = err.Error()
			}
			if verdicts[0] != verdicts[1] {
				t.Fatalf("verdict depends on core count:\n  GOMAXPROCS=1: %q\n  GOMAXPROCS=4: %q", verdicts[0], verdicts[1])
			}
		})
	}
}

// assembleAt runs Assemble with GOMAXPROCS set to procs.
func assembleAt(procs int, st Storage) (*Hypergraph, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	return Assemble(st)
}

// TestAssembleFirstErrorIndependentOfCores feeds Assemble inputs that
// break two checks at once, in different tables. At one core and at four
// the error must be the same: the first in the sequential phase order
// (shape and cover, canonical CSR, interning, coherence, duplicates), and
// within a phase the lowest table's.
func TestAssembleFirstErrorIndependentOfCores(t *testing.T) {
	// One label, so the tables are the arities 2, 3 and 4, in that order.
	h := MustFromEdges(make([]Label, 12), [][]uint32{
		{0, 1}, {0, 2}, {3, 4},
		{0, 1, 2}, {0, 3, 4}, {5, 6, 7},
		{0, 1, 2, 3}, {0, 1, 4, 5}, {8, 9, 10, 11},
	})
	// swapPostings reverses vertex 0's two-entry posting list in table pi:
	// the table's CSR is no longer canonical.
	swapPostings := func(st *Storage, pi int) {
		r := st.Tables[pi]
		i := int(r.Verts)
		if st.PartVerts[i] != 0 || st.PartOffs[i+pi+1] != 2 {
			t.Fatalf("table %d: vertex 0 does not lead with two postings", pi)
		}
		p := st.PartPosts[r.Posts:]
		p[0], p[1] = p[1], p[0]
	}
	// relabel breaks coherence in every table holding vertex v.
	relabel := func(st *Storage, v int) { st.Labels[v] = 1 }
	cases := []struct {
		name   string
		mutate func(st *Storage)
		want   string
	}{
		{"CSR beats an earlier table's coherence", func(st *Storage) {
			relabel(st, 4) // edges {3,4}, {0,3,4}, {0,1,4,5}: tables 0, 1, 2
			swapPostings(st, 2)
		}, "hypergraph: partition 2 posting list of vertex 0 diverges"},
		{"lowest table wins within CSR", func(st *Storage) {
			swapPostings(st, 2)
			swapPostings(st, 0)
		}, "hypergraph: partition 0 posting list of vertex 0 diverges"},
		{"lowest table wins within coherence", func(st *Storage) {
			relabel(st, 7) // edge {5,6,7}: table 1
			relabel(st, 9) // edge {8,9,10,11}: table 2
		}, "hypergraph: edge 5 signature differs from partition 1's"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, procs := range []int{1, 4} {
				st := storageOf(h)
				tc.mutate(&st)
				_, err := assembleAt(procs, st)
				if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
					t.Fatalf("GOMAXPROCS=%d: got %v, want %q", procs, err, tc.want)
				}
			}
		})
	}
}

func TestAssembleRejectsDuplicateEdges(t *testing.T) {
	// Two identical edges with consistent CSR entries: only the dedup
	// check can catch this.
	st := Storage{
		Labels:    []Label{0, 1},
		EdgeOff:   []uint32{0, 2, 4},
		EdgeVerts: []uint32{0, 1, 0, 1},
		Tables:    []TableRow{{EdgeLabel: NoEdgeLabel}, {Edges: 2, Verts: 2, Posts: 4}},
		PartEdges: []EdgeID{0, 1},
		PartVerts: []VertexID{0, 1},
		PartOffs:  []uint32{0, 2, 4},
		PartPosts: []EdgeID{0, 1, 0, 1},
	}
	if _, err := Assemble(st); err == nil {
		t.Fatal("Assemble accepted duplicate hyperedges")
	}
}
