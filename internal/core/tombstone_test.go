package core_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"hgmatch/internal/core"
	"hgmatch/internal/hgtest"
	"hgmatch/internal/hypergraph"
)

// TestTombstonedSnapshotEquivalence drives a DeltaBuffer over every serving
// fixture through random insert / delete / resurrect / publish rounds and
// checks, after each publication, that the snapshot — whose tombstoned
// tables are masked, not re-indexed — validates and aggregates like its
// compacted twin. The scripted first rounds cover a delete from a sidecar
// table that gains no insert, a delete of a max-arity edge, a table
// emptied by tombstones and the resurrection of base edges, and the test
// fails if the fixtures miss one of those shapes. The answers on such
// snapshots are TestAnswerMatrix's (internal/server) to check.
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
			checkTombstonedSnapshot(t, what, snap)
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
// no write touched must be the very view of the previous snapshot, T must
// stay a delta over a mask, and the snapshot must validate and aggregate
// like its compacted twin. A two-edge query matching an edge adjacent to
// one of T's delta members, then that member, reads T at depth 1: the step
// must run word-parallel whenever T carries a sidecar, and count and
// Counters must equal those on the sidecar-free and the compacted twins.
func TestIncrementalPublishEquivalence(t *testing.T) {
	sawSidecar := false
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
			checkTombstonedSnapshot(t, what, snap)
			checkDeltaStep(t, what, snap, tp)
			sawSidecar = sawSidecar || tp.HasBitmaps()
			prev = snap
		}
	}
	if !sawSidecar {
		t.Fatal("T never carried a bitmap sidecar: the fixture misses the word-parallel case")
	}
}

// checkDeltaStep matches, on snap, the query {y, x} in the order y, x: x
// is the first delta member of the table tp and y an edge adjacent to it,
// so the plan reads tp at depth 1 and x is one of its answers.
func checkDeltaStep(t *testing.T, what string, snap *hypergraph.Hypergraph, tp hypergraph.Partition) {
	t.Helper()
	x := tp.DeltaEdges()[0]
	y := x
	for _, e := range snap.Incident(snap.Edge(x)[0]) {
		if e != x {
			y = e
			break
		}
	}
	if y == x {
		t.Fatalf("%s: delta member %d has no adjacent edge", what, x)
	}
	remap := map[uint32]uint32{}
	b := hypergraph.NewBuilder()
	var xs []uint32
	for _, e := range []hypergraph.EdgeID{y, x} {
		xs = xs[:0]
		for _, v := range snap.Edge(e) {
			if _, ok := remap[v]; !ok {
				remap[v] = b.AddVertex(snap.Label(v))
			}
			xs = append(xs, remap[v])
		}
		b.AddEdge(xs...)
	}
	q := b.MustBuild()
	slices.Sort(xs)
	order := []hypergraph.EdgeID{0, 1}
	if !slices.Equal(q.Edge(1), xs) {
		order = []hypergraph.EdgeID{1, 0}
	}
	count := func(h *hypergraph.Hypergraph) (*core.Plan, uint64, core.Counters) {
		t.Helper()
		p, err := core.NewPlanWithOrder(q, h, order)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		n, ct := p.CountSequential()
		return p, n, ct
	}
	p, n, ct := count(snap)
	if p.StepSigID(1) != tp.SigID {
		t.Fatalf("%s: step 1 reads signature %d, not T's %d", what, p.StepSigID(1), tp.SigID)
	}
	if p.StepWordParallel(1) != tp.HasBitmaps() {
		t.Fatalf("%s: step 1 word-parallel %v on a table with a sidecar %v", what, p.StepWordParallel(1), tp.HasBitmaps())
	}
	comp, err := snap.Compacted()
	if err != nil {
		t.Fatal(err)
	}
	for _, twin := range []struct {
		name string
		h    *hypergraph.Hypergraph
	}{{"sidecar-free", snap.WithoutBitmapSidecars()}, {"compacted", comp}} {
		if _, tn, tct := count(twin.h); tn != n || tct != ct {
			t.Fatalf("%s: %d embeddings, counters %+v; the %s twin: %d, %+v", what, n, ct, twin.name, tn, tct)
		}
	}
	if n == 0 {
		t.Fatalf("%s: the query matched nothing", what)
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

// checkTombstonedSnapshot checks that snap validates and that its
// aggregates count live edges only, as its compacted twin's do. What snap
// answers is TestAnswerMatrix's (internal/server) to check.
func checkTombstonedSnapshot(t *testing.T, what string, snap *hypergraph.Hypergraph) {
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
