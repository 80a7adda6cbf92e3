package core_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

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

// TestIncrementalPublishEquivalence: a publication rebuilds the views of
// the tables its batch touched and re-attaches every other one as the
// snapshot before it published it. A table T is touched (inserts and a
// delete, so its view is a delta segment over a mask), left alone while
// writes land elsewhere, touched again (a delete, a cancelled insert, a
// resurrection) and left alone again. After each publication every table
// no write touched must be the very view of the previous snapshot, and
// matching on the snapshot — random queries and a one-edge query on T,
// uncapped and capped — must be matching on its compacted twin.
func TestIncrementalPublishEquivalence(t *testing.T) {
	for gi, g := range hgtest.ServingGraphs()[:2] {
		rng := rand.New(rand.NewSource(int64(700 + gi)))
		buf, err := hypergraph.NewDeltaBuffer(g.Graph)
		if err != nil {
			t.Fatal(err)
		}
		base := buf.Base()
		target := base.Partition(largestTable(base))
		keyOf := func(el hypergraph.Label, sig hypergraph.Signature) string {
			return fmt.Sprint(el, sig)
		}
		tKey := keyOf(target.EdgeLabel, target.Sig)
		touched := map[string]bool{}
		keyOfEdge := func(vs []uint32) string {
			return keyOf(hypergraph.NoEdgeLabel, hypergraph.SignatureOf(vs, base.Labels()))
		}
		insert := func(inT bool) []uint32 {
			t.Helper()
			for {
				var vs []uint32
				if inT { // a fresh edge with T's signature
					for _, l := range target.Sig {
						for {
							v := uint32(rng.Intn(base.NumVertices()))
							if base.Label(v) == l && !slices.Contains(vs, v) {
								vs = append(vs, v)
								break
							}
						}
					}
				} else {
					vs = make([]uint32, 2+rng.Intn(4))
					for j := range vs {
						vs[j] = uint32(rng.Intn(base.NumVertices()))
					}
				}
				slices.Sort(vs)
				vs = slices.Compact(vs)
				if k := keyOfEdge(vs); (k == tKey) != inT {
					continue
				}
				if _, added, err := buf.Insert(vs...); err != nil {
					t.Fatal(err)
				} else if added {
					touched[keyOfEdge(vs)] = true
					return vs
				}
			}
		}
		del := func(vs []uint32) {
			t.Helper()
			if ok, err := buf.Delete(vs...); err != nil || !ok {
				t.Fatalf("%s: delete %v: %v %v", g.Name, vs, ok, err)
			}
			touched[keyOfEdge(vs)] = true
		}
		deleteElsewhere := func() {
			t.Helper()
			s := buf.Snapshot()
			for {
				e := hypergraph.EdgeID(rng.Intn(s.NumEdges()))
				if vs := s.Edge(e); !s.IsDeadEdge(e) && keyOfEdge(vs) != tKey {
					del(vs)
					return
				}
			}
		}
		var tInserts [][]uint32
		steps := []struct {
			name   string
			touchT bool
			writes func()
		}{
			{"touch T", true, func() {
				tInserts = append(tInserts, insert(true), insert(true))
				del(base.Edge(target.Edges[0]))
				for i := 0; i < 3; i++ {
					insert(false)
				}
				deleteElsewhere()
			}},
			{"leave T alone", false, func() {
				for i := 0; i < 3; i++ {
					insert(false)
				}
				deleteElsewhere()
				deleteElsewhere()
			}},
			{"touch T again", true, func() {
				del(base.Edge(target.Edges[1]))
				del(tInserts[0])
				if _, added, err := buf.Insert(base.Edge(target.Edges[0])...); err != nil || !added {
					t.Fatalf("%s: resurrect: %v %v", g.Name, added, err)
				}
				insert(false)
			}},
			{"leave T alone again", false, func() {
				insert(false)
				deleteElsewhere()
			}},
		}
		prev := buf.Publish()
		for _, st := range steps {
			clear(touched)
			st.writes()
			snap := buf.Publish()
			what := fmt.Sprintf("%s after %q", g.Name, st.name)
			if touched[tKey] != st.touchT {
				t.Fatalf("%s: T touched %v, want %v", what, touched[tKey], st.touchT)
			}
			shared := 0
			for pi := 0; pi < prev.NumPartitions(); pi++ {
				a, b := prev.Partition(pi), snap.Partition(pi)
				if touched[keyOf(a.EdgeLabel, a.Sig)] {
					continue
				}
				if !sameView(a, b) {
					t.Fatalf("%s: untouched table %d (%v) was rebuilt", what, pi, a.Sig)
				}
				shared++
			}
			tp := snap.PartitionBySigLabelled(target.EdgeLabel, target.SigID)
			if !tp.HasDelta() || len(tp.DeadEdges()) == 0 {
				t.Fatalf("%s: T is not a delta over a mask (delta %v, dead %v)", what, tp.HasDelta(), tp.DeadEdges())
			}
			if shared == 0 {
				t.Fatalf("%s: no untouched table to compare", what)
			}
			checkTombstonedSnapshot(t, what, snap, rand.New(rand.NewSource(rng.Int63())))
			comp, err := snap.Compacted()
			if err != nil {
				t.Fatal(err)
			}
			b := hypergraph.NewBuilder()
			vs := make([]uint32, len(target.Sig))
			for j, l := range target.Sig {
				vs[j] = b.AddVertex(l)
			}
			b.AddEdge(vs...)
			checkQueryOnSnapshot(t, what+", one-edge query on T", b.MustBuild(), snap, comp)
			prev = snap
		}
	}
}

// sameView reports whether a and b are one table view: the same member,
// dead and base lists and the same delta dictionary, array for array.
func sameView(a, b hypergraph.Partition) bool {
	same := func(x, y []uint32) bool {
		return len(x) == len(y) && unsafe.SliceData(x) == unsafe.SliceData(y)
	}
	return same(a.Edges, b.Edges) && same(a.DeadEdges(), b.DeadEdges()) &&
		same(a.BaseEdges(), b.BaseEdges()) && same(a.DeltaPostingVertices(), b.DeltaPostingVertices())
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
		checkQueryOnSnapshot(t, what, q, snap, comp)
	}
}

// checkQueryOnSnapshot compares query q on snap against its compacted twin
// comp: the same matching order, rows as vertex-set tuples and Counters,
// Run agreeing with the sequential enumeration, and capped Run streams
// that are the sequential order's prefix and, edge by edge, the vertex
// sets the same capped run streams on comp (compaction renumbers in prior
// ID order, so the capped order survives it). Queries with more than
// tombstoneQueryRows answers are skipped.
func checkQueryOnSnapshot(t *testing.T, what string, q, snap, comp *hypergraph.Hypergraph) {
	t.Helper()
	nq := q.NumEdges()
	want, err := core.NewPlan(q, comp)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := want.CountSequential(); n > tombstoneQueryRows {
		return
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
	capped := func(p *core.Plan, limit int) (rows [][]hypergraph.EdgeID, tuples []string) {
		res := engine.Run(p, engine.Options{Workers: 2, Limit: uint64(limit), OnEmbedding: func(m []hypergraph.EdgeID) {
			rows = append(rows, slices.Clone(m))
		}})
		if res.LeakedBlocks != 0 {
			t.Fatalf("%s, %d-edge query, limit %d: %d leaked blocks", what, nq, limit, res.LeakedBlocks)
		}
		for _, m := range rows {
			tuples = append(tuples, vertexTuple(p, m))
		}
		return rows, tuples
	}
	for _, limit := range []int{1, 7, len(seq) + 1} {
		rows, tuples := capped(got, limit)
		if prefix := seq[:min(limit, len(seq))]; !slices.EqualFunc(rows, prefix, slices.Equal) {
			t.Fatalf("%s, %d-edge query, limit %d: Run streamed %d rows, want the first %d of the sequential order",
				what, nq, limit, len(rows), len(prefix))
		}
		if _, wantTuples := capped(want, limit); !slices.Equal(tuples, wantTuples) {
			t.Fatalf("%s, %d-edge query, limit %d: capped rows %v, compacted graph's %v", what, nq, limit, tuples, wantTuples)
		}
	}
}

// vertexRows enumerates p sequentially and returns its rows as sorted
// vertex-set tuples, which survive the edge renumbering of a compaction.
func vertexRows(p *core.Plan) ([]string, core.Counters) {
	var rows []string
	ct := p.EnumerateSequential(func(m []hypergraph.EdgeID) {
		rows = append(rows, vertexTuple(p, m))
	})
	slices.Sort(rows)
	return rows, ct
}

// vertexTuple renders row m of p as its hyperedges' vertex sets.
func vertexTuple(p *core.Plan, m []hypergraph.EdgeID) string {
	row := make([][]uint32, len(m))
	for i, e := range m {
		row[i] = p.Data.Edge(e)
	}
	return fmt.Sprint(row)
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
