package hypergraph

import (
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"hgmatch/internal/setops"
)

// deltaBase builds the small fixture graph the delta tests grow online.
func deltaBase(t *testing.T) *Hypergraph {
	t.Helper()
	h, err := FromEdges(
		[]Label{0, 1, 0, 1, 2, 0},
		[][]uint32{{0, 1}, {2, 3}, {1, 2, 4}, {0, 5}},
	)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func newBuf(t *testing.T, base *Hypergraph) *DeltaBuffer {
	t.Helper()
	d, err := NewDeltaBuffer(base)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDeltaInsertPublish(t *testing.T) {
	base := deltaBase(t)
	d := newBuf(t, base)

	if got := d.Snapshot(); got != base {
		t.Fatal("clean buffer must return the base snapshot pointer")
	}

	id, added, err := d.Insert(3, 2) // normalises to {2,3}'s sibling {2,3}? no: {2,3} exists
	if err != nil {
		t.Fatal(err)
	}
	if added || id != 1 {
		t.Fatalf("inserting existing edge {2,3}: got id=%d added=%v", id, added)
	}

	id, added, err = d.Insert(4, 5)
	if err != nil || !added {
		t.Fatalf("Insert(4,5) = %d, %v, %v", id, added, err)
	}
	if id != EdgeID(base.NumEdges()) {
		t.Fatalf("first online edge got ID %d, want %d", id, base.NumEdges())
	}

	s := d.Snapshot()
	if s == base {
		t.Fatal("dirty buffer must publish a fresh snapshot")
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("snapshot invalid: %v", err)
	}
	if s.NumLiveEdges() != base.NumEdges()+1 {
		t.Fatalf("live edges = %d, want %d", s.NumLiveEdges(), base.NumEdges()+1)
	}
	if !s.HasDelta() {
		t.Fatal("snapshot with pending inserts must report HasDelta")
	}
	if !setops.Equal(s.Edge(id), []uint32{4, 5}) {
		t.Fatalf("online edge content = %v", s.Edge(id))
	}
	// The base snapshot is untouched (MVCC).
	if base.NumEdges() != 4 || base.HasDelta() {
		t.Fatal("base snapshot mutated by publication")
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("base invalidated by publication: %v", err)
	}

	// Dedup among pending inserts.
	if _, added, _ := d.Insert(5, 4); added {
		t.Fatal("duplicate pending insert must not add")
	}

	// Cardinality is delta-aware: {4,5} has the previously unseen
	// signature (0,2) and lands in a fresh partition.
	sig := SignatureOf([]uint32{4, 5}, s.Labels())
	if got := s.Cardinality(sig); got != 1 {
		t.Fatalf("Cardinality(new sig) = %d, want 1", got)
	}

	// An insert whose signature has a base table gets an append-side
	// segment there: {2,5} has signature (0,0), the table of base edge
	// {0,5}.
	id2, added, err := d.Insert(2, 5)
	if err != nil || !added {
		t.Fatalf("Insert(2,5): %v %v", added, err)
	}
	s = d.Snapshot()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	p := s.PartitionFor(SignatureOf([]uint32{2, 5}, s.Labels()))
	if !p.HasDelta() || p.NumDeltaEdges() != 1 || p.Len() != 2 {
		t.Fatalf("delta partition shape: hasDelta=%v nDelta=%d len=%d", p.HasDelta(), p.NumDeltaEdges(), p.Len())
	}
	if got := p.DeltaPostings(2); !setops.Equal(got, []uint32{id2}) {
		t.Fatalf("DeltaPostings(2) = %v", got)
	}
	if got := p.Postings(5); !setops.Equal(got, []uint32{3}) {
		t.Fatalf("base Postings(5) = %v", got)
	}
}

func TestDeltaDeleteAndResurrect(t *testing.T) {
	d := newBuf(t, deltaBase(t))

	if ok, _ := d.Delete(0, 9); ok {
		t.Fatal("deleting a non-edge must report false")
	}
	ok, err := d.Delete(1, 0) // base edge 0, any order
	if err != nil || !ok {
		t.Fatalf("Delete base edge: %v %v", ok, err)
	}
	s := d.Snapshot()
	if err := s.Validate(); err != nil {
		t.Fatalf("snapshot with tombstone invalid: %v", err)
	}
	if s.NumLiveEdges() != 3 || s.NumDeadEdges() != 1 || !s.IsDeadEdge(0) {
		t.Fatalf("tombstone accounting: live=%d dead=%d", s.NumLiveEdges(), s.NumDeadEdges())
	}
	// Arity aggregates are over live edges: arities 2+3+2 across 3 live.
	if got := s.AvgArity(); got != 7.0/3.0 {
		t.Fatalf("AvgArity with tombstone = %v, want %v", got, 7.0/3.0)
	}
	if _, ok := s.FindEdge([]uint32{0, 1}); ok {
		t.Fatal("tombstoned edge still reachable through incidence")
	}

	// Re-inserting the tombstoned edge resurrects the original ID.
	id, added, err := d.Insert(0, 1)
	if err != nil || !added || id != 0 {
		t.Fatalf("resurrection: id=%d added=%v err=%v", id, added, err)
	}
	s = d.Snapshot()
	if s.NumDeadEdges() != 0 || s.NumLiveEdges() != 4 {
		t.Fatalf("after resurrection: live=%d dead=%d", s.NumLiveEdges(), s.NumDeadEdges())
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}

	// Deleting a pending insert cancels it.
	if _, added, _ := d.Insert(3, 5); !added {
		t.Fatal("fresh insert must add")
	}
	if ok, _ := d.Delete(5, 3); !ok {
		t.Fatal("deleting a pending insert must succeed")
	}
	s = d.Snapshot()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.NumLiveEdges() != 4 {
		t.Fatalf("cancelled pending insert still live: %d", s.NumLiveEdges())
	}
}

func TestDeltaAddVertexAndNewSignature(t *testing.T) {
	d := newBuf(t, deltaBase(t))
	v := d.AddVertex(7) // a label the base has never seen
	id, added, err := d.Insert(uint32(v), 0)
	if err != nil || !added {
		t.Fatalf("insert with new vertex: %v %v", added, err)
	}
	s := d.Snapshot()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.NumVertices() != 7 || s.Label(v) != 7 {
		t.Fatalf("new vertex not published: V=%d", s.NumVertices())
	}
	sig := SignatureOf(s.Edge(id), s.Labels())
	sid, ok := s.LookupSig(sig)
	if !ok {
		t.Fatal("new signature not interned in snapshot")
	}
	if got := s.CardinalityBySig(sid); got != 1 {
		t.Fatalf("CardinalityBySig(new sig) = %d", got)
	}
	if s.NumLabels() != 4 {
		t.Fatalf("NumLabels = %d, want 4", s.NumLabels())
	}
}

func TestDeltaCompactEquivalence(t *testing.T) {
	base := deltaBase(t)
	d := newBuf(t, base)
	inserts := [][]uint32{{4, 5}, {0, 2}, {1, 3, 5}}
	for _, vs := range inserts {
		if _, added, err := d.Insert(vs...); err != nil || !added {
			t.Fatalf("Insert(%v): %v %v", vs, added, err)
		}
	}
	snap := d.Snapshot()
	compacted, err := d.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if compacted.HasDelta() || compacted.NumDeadEdges() != 0 {
		t.Fatal("compacted graph still carries delta state")
	}
	if err := compacted.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.Snapshot() != compacted {
		t.Fatal("Compact must publish the new base")
	}

	// Cold offline build of the same edge sequence.
	b := NewBuilder()
	for v := 0; v < base.NumVertices(); v++ {
		b.AddVertex(base.Label(uint32(v)))
	}
	for e := 0; e < base.NumEdges(); e++ {
		b.AddEdge(base.Edge(EdgeID(e))...)
	}
	for _, vs := range inserts {
		b.AddEdge(vs...)
	}
	cold := b.MustBuild()

	for _, got := range []*Hypergraph{snap, compacted} {
		if got.NumLiveEdges() != cold.NumEdges() {
			t.Fatalf("edge count %d != cold %d", got.NumLiveEdges(), cold.NumEdges())
		}
		for e := 0; e < cold.NumEdges(); e++ {
			if !setops.Equal(got.Edge(EdgeID(e)), cold.Edge(EdgeID(e))) {
				t.Fatalf("edge %d: %v != cold %v", e, got.Edge(EdgeID(e)), cold.Edge(EdgeID(e)))
			}
		}
		// Same partitioned view: every signature has identical member sets.
		for pi := 0; pi < cold.NumPartitions(); pi++ {
			cp := cold.Partition(pi)
			gp := got.PartitionForLabelled(cp.EdgeLabel, cp.Sig)
			if !setops.Equal(gp.Edges, cp.Edges) {
				t.Fatalf("partition %v members diverge: %v != %v", cp.Sig, gp.Edges, cp.Edges)
			}
			// Full posting lists (base ++ delta) must agree per vertex.
			for _, v := range cp.PostingVertices() {
				want := cp.Postings(v)
				merged := append(append([]EdgeID(nil), gp.Postings(v)...), gp.DeltaPostings(v)...)
				if !setops.Equal(merged, want) {
					t.Fatalf("postings(%d) %v != %v", v, merged, want)
				}
			}
		}
	}

	// Compacting with deletes renumbers like a cold build of the survivors.
	if ok, _ := d.Delete(0, 1); !ok {
		t.Fatal("delete failed")
	}
	c2, err := d.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if c2.NumEdges() != cold.NumEdges()-1 {
		t.Fatalf("post-delete compact has %d edges", c2.NumEdges())
	}
	if err := c2.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.FindEdge([]uint32{0, 1}); ok {
		t.Fatal("deleted edge survived compaction")
	}
}

func TestDeltaVersionsMonotonic(t *testing.T) {
	d := newBuf(t, deltaBase(t))
	v0 := d.Version()
	d.Insert(4, 5)
	v1 := d.Version()
	if v1 <= v0 {
		t.Fatalf("version did not advance on publish: %d -> %d", v0, v1)
	}
	if again := d.Version(); again != v1 {
		t.Fatalf("version advanced without writes: %d -> %d", v1, again)
	}
	d.Compact()
	v2 := d.Version()
	if v2 <= v1 {
		t.Fatalf("version did not advance on compact: %d -> %d", v1, v2)
	}
	// An idle compaction is a no-op: same base, same version, no
	// plan-cache churn upstream.
	c, err := d.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if c != d.Base() || d.Version() != v2 {
		t.Fatalf("idle compaction republished: version %d -> %d", v2, d.Version())
	}

	// A delete + resurrect cycle leaves pending state empty but the
	// published snapshot diverged from the base; compacting then must
	// advance the version, never regress it to the base's.
	if ok, _ := d.Delete(4, 5); !ok {
		t.Fatal("delete failed")
	}
	vDel := d.Version()
	if _, added, _ := d.Insert(4, 5); !added {
		t.Fatal("resurrection failed")
	}
	vRes := d.Version()
	if vRes <= vDel {
		t.Fatalf("resurrection did not publish: %d -> %d", vDel, vRes)
	}
	if _, err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	if v := d.Version(); v < vRes {
		t.Fatalf("compaction moved the version backwards: %d -> %d", vRes, v)
	}
}

// TestDeltaRandomisedValidate fuzzes a mixed insert/delete/compact workload
// and validates every published snapshot plus the final compaction against
// a cold rebuild of the surviving edge set.
func TestDeltaRandomisedValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	base := deltaBase(t)
	d := newBuf(t, base)
	for step := 0; step < 200; step++ {
		switch rng.Intn(10) {
		case 0:
			d.AddVertex(Label(rng.Intn(4)))
		case 1, 2:
			n := d.NumVertices()
			vs := []uint32{uint32(rng.Intn(n)), uint32(rng.Intn(n))}
			d.Delete(vs...)
		case 3:
			if rng.Intn(4) == 0 {
				if _, err := d.Compact(); err != nil {
					t.Fatal(err)
				}
			}
		default:
			n := d.NumVertices()
			k := 2 + rng.Intn(3)
			vs := make([]uint32, k)
			for i := range vs {
				vs[i] = uint32(rng.Intn(n))
			}
			if _, _, err := d.Insert(vs...); err != nil {
				t.Fatal(err)
			}
		}
		if step%17 == 0 {
			if err := d.Snapshot().Validate(); err != nil {
				t.Fatalf("step %d: snapshot invalid: %v", step, err)
			}
		}
	}
	s := d.Snapshot()
	if err := s.Validate(); err != nil {
		t.Fatalf("final snapshot invalid: %v", err)
	}
	c, err := d.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("final compaction invalid: %v", err)
	}
	if c.NumEdges() != s.NumLiveEdges() {
		t.Fatalf("compaction kept %d edges, snapshot had %d live", c.NumEdges(), s.NumLiveEdges())
	}
	// Cold rebuild of the survivors must produce the identical storage
	// layout (Compacted == Builder output by construction).
	cc, err := s.Compacted()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(statsNoBytes(ComputeStats(c)), statsNoBytes(ComputeStats(cc))) {
		t.Fatalf("Compact and Compacted diverge: %+v vs %+v", ComputeStats(c), ComputeStats(cc))
	}
}

// statsNoBytes strips footprint fields that may differ by map sizing.
func statsNoBytes(s Stats) Stats {
	s.SigTableBytes = 0
	return s
}

// TestIncidenceOnDemand: a snapshot's incidence overlay is derived from the
// snapshot alone, the first time a reader asks, and never by Publish. Random
// rounds of inserts, deletes of base and pending edges, resurrections,
// cancelled inserts and AddVertex calls (with an occasional compaction) are
// published one by one; eight goroutines then race to the first Incident
// call, and every vertex's list must equal a scan of the snapshot's live
// edges.
func TestIncidenceOnDemand(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	labels := make([]Label, 30)
	for v := range labels {
		labels[v] = Label(rng.Intn(3))
	}
	randomEdge := func(nv int) []uint32 {
		vs := make([]uint32, 2+rng.Intn(3))
		for i := range vs {
			vs[i] = uint32(rng.Intn(nv))
		}
		return vs
	}
	var edges [][]uint32
	for len(edges) < 120 {
		edges = append(edges, randomEdge(len(labels)))
	}
	base, err := FromEdges(labels, edges)
	if err != nil {
		t.Fatal(err)
	}
	d := newBuf(t, base)
	var deleted [][]uint32 // deleted edges, for resurrection
	for round := 0; round < 40; round++ {
		for op := 0; op < 6; op++ {
			s := d.Snapshot()
			switch rng.Intn(6) {
			case 0, 1:
				if _, _, err := d.Insert(randomEdge(d.NumVertices())...); err != nil {
					t.Fatal(err)
				}
			case 2: // delete any live edge, base or pending
				if e := EdgeID(rng.Intn(s.NumEdges())); !s.IsDeadEdge(e) {
					if ok, err := d.Delete(s.Edge(e)...); err != nil || !ok {
						t.Fatalf("delete %v: %v %v", s.Edge(e), ok, err)
					}
					deleted = append(deleted, s.Edge(e))
				}
			case 3: // cancel a pending insert
				if nb := d.Base().NumEdges(); s.NumEdges() > nb {
					if e := EdgeID(nb + rng.Intn(s.NumEdges()-nb)); !s.IsDeadEdge(e) {
						if ok, err := d.Delete(s.Edge(e)...); err != nil || !ok {
							t.Fatalf("cancel %v: %v %v", s.Edge(e), ok, err)
						}
					}
				}
			case 4:
				if len(deleted) > 0 {
					if _, _, err := d.Insert(deleted[rng.Intn(len(deleted))]...); err != nil {
						t.Fatal(err)
					}
				}
			case 5:
				d.AddVertex(Label(rng.Intn(4)))
			}
		}
		if _, _, err := d.Insert(randomEdge(d.NumVertices())...); err != nil {
			t.Fatal(err)
		}
		if round%13 == 12 {
			if _, err := d.Compact(); err != nil {
				t.Fatal(err)
			}
			deleted = nil
			if _, _, err := d.Insert(randomEdge(d.NumVertices())...); err != nil {
				t.Fatal(err)
			}
		}
		s := d.Publish()
		if s.inc == nil || s.inc.lists.Load() != nil {
			t.Fatalf("round %d: Publish left the overlay %v, want an unbuilt one", round, s.inc)
		}

		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(v VertexID) {
				defer wg.Done()
				<-start
				s.Incident(v)
			}(VertexID(rng.Intn(s.NumVertices())))
		}
		close(start)
		wg.Wait()

		want := make([][]EdgeID, s.NumVertices())
		for e := EdgeID(0); int(e) < s.NumEdges(); e++ {
			if !s.IsDeadEdge(e) {
				for _, v := range s.Edge(e) {
					want[v] = append(want[v], e)
				}
			}
		}
		for v, w := range want {
			if got := s.Incident(VertexID(v)); !slices.Equal(got, w) {
				t.Fatalf("round %d: Incident(%d) = %v, want %v", round, v, got, w)
			}
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}
