package core_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"hgmatch/internal/core"
	"hgmatch/internal/engine"
	"hgmatch/internal/hgtest"
	"hgmatch/internal/hypergraph"
	"hgmatch/internal/querygen"
)

// tombstoneQueryRows caps the answers TestTombstonedSnapshotEquivalence
// enumerates in full.
const tombstoneQueryRows = 3000

// TestTombstonedSnapshotEquivalence drives a DeltaBuffer over every serving
// fixture through random insert / delete / resurrect / publish rounds and
// checks, after each publication, that matching on the snapshot — whose
// tombstoned tables are masked, not re-indexed — is matching on its
// compacted twin: per random query the same rows as vertex-set tuples and
// the same Counters, and capped Run streams that are the sequential
// order's prefix. The scripted first rounds cover a delete from a sidecar
// table that gains no insert, a delete of a max-arity edge, a table
// emptied by tombstones and the resurrection of base edges.
func TestTombstonedSnapshotEquivalence(t *testing.T) {
	type round struct {
		name string
		do   func()
	}
	sawMasked, sawSidecarMask, sawEmptied := false, false, false
	for gi, g := range hgtest.ServingGraphs() {
		rng := rand.New(rand.NewSource(int64(300 + gi)))
		buf, err := hypergraph.NewDeltaBuffer(g.Graph)
		if err != nil {
			t.Fatal(err)
		}
		base := buf.Base()
		var deleted [][]uint32 // base edges tombstoned so far, for resurrection
		del := func(e hypergraph.EdgeID) {
			t.Helper()
			s := buf.Snapshot()
			if s.IsDeadEdge(e) {
				return // an earlier round got it
			}
			vs := s.Edge(e)
			ok, err := buf.Delete(vs...)
			if err != nil || !ok {
				t.Fatalf("%s: delete %v: %v %v", g.Name, vs, ok, err)
			}
			if int(e) < base.NumEdges() {
				deleted = append(deleted, vs)
			}
		}
		randomLive := func() hypergraph.EdgeID {
			s := buf.Snapshot()
			for {
				if e := hypergraph.EdgeID(rng.Intn(s.NumEdges())); !s.IsDeadEdge(e) {
					return e
				}
			}
		}
		rounds := []round{
			{"delete from a sidecar table with no inserts", func() {
				pi := largestTable(base)
				for _, e := range base.Partition(pi).Edges[:3] {
					del(e)
				}
			}},
			{"delete a max-arity edge", func() {
				s := buf.Snapshot()
				for e := hypergraph.EdgeID(0); int(e) < s.NumEdges(); e++ {
					if !s.IsDeadEdge(e) && s.Arity(e) == s.MaxArity() {
						del(e)
						return
					}
				}
			}},
			{"empty a table", func() {
				pi := smallestTable(base, 2)
				for _, e := range base.Partition(pi).Edges {
					del(e)
				}
			}},
			{"resurrect base edges", func() {
				for _, vs := range deleted[len(deleted)-2:] {
					if _, added, err := buf.Insert(vs...); err != nil || !added {
						t.Fatalf("%s: resurrect %v: %v %v", g.Name, vs, added, err)
					}
				}
				del(randomLive())
			}},
		}
		for r := 0; r < 4; r++ {
			rounds = append(rounds, round{fmt.Sprintf("random round %d", r), func() {
				for i := 0; i < 6; i++ {
					vs := make([]uint32, 2+rng.Intn(3))
					for j := range vs {
						vs[j] = uint32(rng.Intn(base.NumVertices()))
					}
					if _, _, err := buf.Insert(vs...); err != nil {
						t.Fatal(err)
					}
					del(randomLive())
				}
				if i := rng.Intn(len(deleted)); rng.Intn(2) == 0 {
					buf.Insert(deleted[i]...) // may already be live again
				}
			}})
		}
		for _, r := range rounds {
			r.do()
			snap := buf.Publish()
			what := fmt.Sprintf("%s after %q", g.Name, r.name)
			for pi := 0; pi < snap.NumPartitions(); pi++ {
				if p := snap.Partition(pi); len(p.DeadEdges()) > 0 {
					sawMasked = true
					sawSidecarMask = sawSidecarMask || (p.HasBitmaps() && !p.HasDelta())
					sawEmptied = sawEmptied || p.Len() == 0
				}
			}
			checkTombstonedSnapshot(t, what, snap, rand.New(rand.NewSource(rng.Int63())))
		}
	}
	if !sawMasked || !sawSidecarMask || !sawEmptied {
		t.Fatalf("masked table %v, masked sidecar table without a delta %v, emptied table %v: the fixture misses a case",
			sawMasked, sawSidecarMask, sawEmptied)
	}
}

// checkTombstonedSnapshot compares snap against snap.Compacted() on random
// queries of one to four hyperedges, and on a one-edge query for each table
// tombstones emptied (no answer on either graph).
func checkTombstonedSnapshot(t *testing.T, what string, snap *hypergraph.Hypergraph, rng *rand.Rand) {
	t.Helper()
	if err := snap.Validate(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	comp, err := snap.Compacted()
	if err != nil {
		t.Fatal(err)
	}
	if snap.MaxArity() != comp.MaxArity() || snap.TotalArity() != comp.TotalArity() || snap.NumLiveEdges() != comp.NumEdges() {
		t.Fatalf("%s: aggregates (amax %d, Σa %d, |E| %d) differ from the compacted graph's (%d, %d, %d)", what,
			snap.MaxArity(), snap.TotalArity(), snap.NumLiveEdges(), comp.MaxArity(), comp.TotalArity(), comp.NumEdges())
	}
	// Sampled from the compacted twin, so every query has an answer on live
	// edges.
	var queries []*hypergraph.Hypergraph
	for nq := 1; nq <= 4; nq++ {
		for try := 0; try < 3; try++ {
			if q := querygen.Sample(rng, comp, querygen.Setting{NumEdges: nq, MinVertices: 1, MaxVertices: 64}); q != nil {
				queries = append(queries, q)
			}
		}
	}
	for pi := 0; pi < snap.NumPartitions(); pi++ {
		if p := snap.Partition(pi); p.Len() == 0 {
			b := hypergraph.NewBuilder()
			vs := make([]uint32, len(p.Sig))
			for j, l := range p.Sig {
				vs[j] = b.AddVertex(l)
			}
			b.AddEdge(vs...)
			queries = append(queries, b.MustBuild())
		}
	}
	for _, q := range queries {
		nq := q.NumEdges()
		want, err := core.NewPlan(q, comp)
		if err != nil {
			t.Fatal(err)
		}
		if n, _ := want.CountSequential(); n > tombstoneQueryRows {
			continue
		}
		got, err := core.NewPlan(q, snap)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Order, want.Order) {
			t.Fatalf("%s, %d-edge query: matching order %v, compacted graph's %v", what, nq, got.Order, want.Order)
		}
		gotRows, gotCt := vertexRows(got)
		wantRows, wantCt := vertexRows(want)
		if gotCt != wantCt || !slices.Equal(gotRows, wantRows) {
			t.Fatalf("%s, %d-edge query: %d rows, %+v; compacted graph: %d rows, %+v",
				what, nq, len(gotRows), gotCt, len(wantRows), wantCt)
		}
		var seq [][]hypergraph.EdgeID
		got.EnumerateSequential(func(m []hypergraph.EdgeID) { seq = append(seq, slices.Clone(m)) })
		if res := engine.Run(got, engine.Options{Workers: 2}); res.Embeddings != uint64(len(seq)) || res.Counters != gotCt {
			t.Fatalf("%s, %d-edge query: Run found %d embeddings, %+v; sequential %d, %+v",
				what, nq, res.Embeddings, res.Counters, len(seq), gotCt)
		}
		for _, limit := range []int{1, 7, len(seq) + 1} {
			var rows [][]hypergraph.EdgeID
			res := engine.Run(got, engine.Options{Workers: 2, Limit: uint64(limit), OnEmbedding: func(m []hypergraph.EdgeID) {
				rows = append(rows, slices.Clone(m))
			}})
			if prefix := seq[:min(limit, len(seq))]; !slices.EqualFunc(rows, prefix, slices.Equal) || res.LeakedBlocks != 0 {
				t.Fatalf("%s, %d-edge query, limit %d: Run streamed %d rows (%d leaked blocks), want the first %d of the sequential order",
					what, nq, limit, len(rows), res.LeakedBlocks, len(prefix))
			}
		}
	}
}

// vertexRows enumerates p sequentially and returns its rows as sorted
// vertex-set tuples, which survive the edge renumbering of a compaction.
func vertexRows(p *core.Plan) ([]string, core.Counters) {
	var rows []string
	ct := p.EnumerateSequential(func(m []hypergraph.EdgeID) {
		row := make([][]uint32, len(m))
		for i, e := range m {
			row[i] = p.Data.Edge(e)
		}
		rows = append(rows, fmt.Sprint(row))
	})
	slices.Sort(rows)
	return rows, ct
}

// largestTable returns the index of h's largest table, the one most
// likely to carry a bitmap sidecar.
func largestTable(h *hypergraph.Hypergraph) int {
	best := 0
	for pi := 1; pi < h.NumPartitions(); pi++ {
		if p, b := h.Partition(pi), h.Partition(best); p.Len() > b.Len() {
			best = pi
		}
	}
	return best
}

// smallestTable returns the index of h's smallest table holding at least
// min members.
func smallestTable(h *hypergraph.Hypergraph, min int) int {
	best := -1
	for pi := 0; pi < h.NumPartitions(); pi++ {
		if p := h.Partition(pi); p.Len() >= min && (best < 0 || p.Len() < len(h.Partition(best).Edges)) {
			best = pi
		}
	}
	return best
}
