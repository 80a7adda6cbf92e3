package hypergraph_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"hgmatch/internal/hgtest"
	"hgmatch/internal/hypergraph"
)

// checkViews compares every view accessor of h against a naive
// recomputation from h's own live edge list: the incidence lists, each
// table's member list, and per (table, vertex) the base postings, the delta
// postings and the decoded hybrid view. A masked table's base postings may
// also list its own tombstones, and nothing else may list one. It is
// self-contained — nothing but Edge, EdgeLabel and IsDeadEdge is trusted —
// so it can run on any snapshot from any goroutine.
func checkViews(h *hypergraph.Hypergraph) error {
	if err := h.Validate(); err != nil {
		return fmt.Errorf("Validate: %w", err)
	}
	type tableKey struct {
		label hypergraph.Label
		sig   string
	}
	incident := make([][]uint32, h.NumVertices())
	members := map[tableKey][]hypergraph.EdgeID{}
	for e := hypergraph.EdgeID(0); int(e) < h.NumEdges(); e++ {
		if h.IsDeadEdge(e) {
			continue
		}
		for _, v := range h.Edge(e) {
			incident[v] = append(incident[v], e)
		}
		k := tableKey{h.EdgeLabel(e), string(hypergraph.SignatureOf(h.Edge(e), h.Labels()).Key())}
		members[k] = append(members[k], e)
	}
	for v, want := range incident {
		if got := h.Incident(hypergraph.VertexID(v)); !slices.Equal(got, want) {
			return fmt.Errorf("Incident(%d) = %v, want %v", v, got, want)
		}
	}
	seen := 0
	for pi := 0; pi < h.NumPartitions(); pi++ {
		p := h.Partition(pi)
		key := tableKey{p.EdgeLabel, string(p.Sig.Key())}
		for _, e := range p.DeadEdges() {
			if !h.IsDeadEdge(e) || h.EdgeLabel(e) != p.EdgeLabel || string(hypergraph.SignatureOf(h.Edge(e), h.Labels()).Key()) != key.sig {
				return fmt.Errorf("table %d (%v) masks edge %d, not one of its own tombstones", pi, p.Sig, e)
			}
		}
		if p.Len() > 0 {
			seen++ // else emptied by tombstones, awaiting compaction
		}
		want := members[key]
		if !slices.Equal(p.Edges, want) {
			return fmt.Errorf("table %d (%v) members = %v, want %v", pi, p.Sig, p.Edges, want)
		}
		if q := h.PartitionForLabelled(p.EdgeLabel, p.Sig); !slices.Equal(q.Edges, want) {
			return fmt.Errorf("table %d (%v) does not resolve by signature", pi, p.Sig)
		}
		// The base index covers the live base members plus the masked ones.
		nLiveBase := p.Len() - p.NumDeltaEdges()
		indexed := slices.Sorted(slices.Values(append(slices.Clone(want[:nLiveBase]), p.DeadEdges()...)))
		if !slices.Equal(p.BaseEdges(), indexed) {
			return fmt.Errorf("table %d (%v) base members = %v, want %v", pi, p.Sig, p.BaseEdges(), indexed)
		}
		for v := hypergraph.VertexID(0); int(v) < h.NumVertices(); v++ {
			var base, delta []hypergraph.EdgeID
			for _, e := range indexed {
				if slices.Contains(h.Edge(e), v) {
					base = append(base, e)
				}
			}
			for _, e := range want[nLiveBase:] {
				if slices.Contains(h.Edge(e), v) {
					delta = append(delta, e)
				}
			}
			if got := p.Postings(v); !slices.Equal(got, base) {
				return fmt.Errorf("table %d Postings(%d) = %v, want %v", pi, v, got, base)
			}
			if got := p.DeltaPostings(v); !slices.Equal(got, delta) {
				return fmt.Errorf("table %d DeltaPostings(%d) = %v, want %v", pi, v, got, delta)
			}
			view := p.PostingsView(v)
			decoded := view.Arr
			if view.Bits != nil {
				decoded = view.Bits.AppendUnranked(nil, p.BaseEdges())
			}
			if !slices.Equal(decoded, base) {
				return fmt.Errorf("table %d PostingsView(%d) decodes to %v, want %v", pi, v, decoded, base)
			}
		}
	}
	if seen != len(members) {
		return fmt.Errorf("graph serves %d non-empty tables, its edges form %d", seen, len(members))
	}
	return nil
}

// liveEdges returns h's live (edge label, vertex set) pairs in a canonical
// order: what a snapshot must agree on with the model of the writes.
func liveEdges(h *hypergraph.Hypergraph) []string {
	var out []string
	for e := hypergraph.EdgeID(0); int(e) < h.NumEdges(); e++ {
		if !h.IsDeadEdge(e) {
			out = append(out, fmt.Sprint(h.EdgeLabel(e), h.Edge(e)))
		}
	}
	slices.Sort(out)
	return out
}

// denseConfig yields graphs whose few tables are big and dense enough to
// carry bitmap sidecars next to plenty of tiny ones.
var denseConfig = hgtest.RandomConfig{NumVertices: 24, NumEdges: 900, NumLabels: 2, MaxArity: 4}

// constructorPaths returns the same graph by every way the package can make
// one: built, assembled from copies of the flat arrays, adopted over the
// arrays as they lie, and compacted out of a buffer that ingested it.
func constructorPaths(t *testing.T, built *hypergraph.Hypergraph) map[string]*hypergraph.Hypergraph {
	t.Helper()
	st := built.Storage()
	copied := st
	copied.Tables = slices.Clone(st.Tables)
	assembled, err := hypergraph.Assemble(copied)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	adoptedSt := st
	adoptedSt.Tables = slices.Clone(st.Tables)
	adopted, err := hypergraph.AdoptForeign(adoptedSt)
	if err != nil {
		t.Fatalf("AdoptForeign: %v", err)
	}
	empty, err := hypergraph.FromEdges(built.Labels(), nil)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := hypergraph.NewDeltaBuffer(empty)
	if err != nil {
		t.Fatal(err)
	}
	for e := hypergraph.EdgeID(0); int(e) < built.NumEdges(); e++ {
		if _, _, err := buf.Insert(built.Edge(e)...); err != nil {
			t.Fatal(err)
		}
	}
	compacted, err := buf.Compact()
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*hypergraph.Hypergraph{"build": built, "assemble": assembled, "adopt": adopted, "compact": compacted}
}

func TestLayoutDifferentialConstructors(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		built := hgtest.RandomHypergraph(rand.New(rand.NewSource(seed)), denseConfig)
		sidecars := len(built.Storage().Sidecars)
		if sidecars == 0 {
			t.Fatalf("seed %d: fixture has no bitmap sidecar to differ on", seed)
		}
		want := liveEdges(built)
		for name, h := range constructorPaths(t, built) {
			if err := checkViews(h); err != nil {
				t.Errorf("seed %d, %s: %v", seed, name, err)
			}
			if !slices.Equal(liveEdges(h), want) {
				t.Errorf("seed %d, %s: edge set differs from the built graph's", seed, name)
			}
			if got := len(h.Storage().Sidecars); got != sidecars {
				t.Errorf("seed %d, %s: %d sidecars, built graph has %d", seed, name, got, sidecars)
			}
			if err := checkViews(h.WithoutBitmapSidecars()); err != nil {
				t.Errorf("seed %d, %s without sidecars: %v", seed, name, err)
			}
		}
	}
}

// TestLayoutDifferentialPublish drives a buffer over each constructor's
// graph through the publication shapes — inserts only, inserts and deletes,
// a table deleted whole, its resurrection, compaction — checking every
// snapshot's views and that earlier snapshots still read what they read
// when published (they share the base arrays with everything after them).
func TestLayoutDifferentialPublish(t *testing.T) {
	built := hgtest.RandomHypergraph(rand.New(rand.NewSource(9)), denseConfig)
	for name, base := range constructorPaths(t, built) {
		rng := rand.New(rand.NewSource(17))
		buf, err := hypergraph.NewDeltaBuffer(base)
		if err != nil {
			t.Fatal(err)
		}
		type held struct {
			h    *hypergraph.Hypergraph
			want []string
		}
		var history []held
		step := func(what string) {
			t.Helper()
			snap := buf.Publish()
			if err := checkViews(snap); err != nil {
				t.Fatalf("%s, after %s: %v", name, what, err)
			}
			if err := checkViews(snap.WithoutBitmapSidecars()); err != nil {
				t.Fatalf("%s, after %s, without sidecars: %v", name, what, err)
			}
			for i, old := range history {
				if !slices.Equal(liveEdges(old.h), old.want) {
					t.Fatalf("%s, after %s: snapshot %d no longer reads what it published", name, what, i)
				}
				if err := checkViews(old.h); err != nil {
					t.Fatalf("%s, after %s: snapshot %d: %v", name, what, i, err)
				}
			}
			history = append(history, held{snap, liveEdges(snap)})
		}
		randomEdge := func() []uint32 {
			vs := make([]uint32, 2+rng.Intn(4))
			for i := range vs {
				vs[i] = uint32(rng.Intn(base.NumVertices()))
			}
			return vs
		}
		for round := 0; round < 3; round++ {
			for i := 0; i < 40; i++ {
				if _, _, err := buf.Insert(randomEdge()...); err != nil {
					t.Fatal(err)
				}
			}
			step("inserts")
		}
		buf.AddVertex(1)
		for i := 0; i < 30; i++ {
			snap := buf.Snapshot()
			victim := hypergraph.EdgeID(rng.Intn(snap.NumEdges()))
			if _, err := buf.Delete(snap.Edge(victim)...); err != nil {
				t.Fatal(err)
			}
			if _, _, err := buf.Insert(append(randomEdge(), uint32(base.NumVertices()))...); err != nil {
				t.Fatal(err)
			}
		}
		step("inserts and deletes")

		// Delete a sidecar-carrying table whole, then bring part of it back.
		table := base.Partition(int(base.Storage().Sidecars[0].Table))
		cur := buf.Snapshot()
		for _, e := range cur.PartitionBySigLabelled(table.EdgeLabel, table.SigID).Edges {
			if _, err := buf.Delete(cur.Edge(e)...); err != nil {
				t.Fatal(err)
			}
		}
		step("deleting a whole table")
		if p := buf.Snapshot().PartitionBySigLabelled(table.EdgeLabel, table.SigID); p.Len() != 0 {
			t.Fatalf("%s: table still has %d members after deleting all of them", name, p.Len())
		}
		for _, e := range table.Edges[:len(table.Edges)/2] {
			if _, _, err := buf.Insert(base.Edge(e)...); err != nil {
				t.Fatalf("%s: resurrecting edge %d: %v", name, e, err)
			}
		}
		step("resurrection")
		for i := 0; i < 20; i++ {
			if _, _, err := buf.Insert(randomEdge()...); err != nil {
				t.Fatal(err)
			}
		}
		step("inserts over a reborn table")

		want := liveEdges(buf.Snapshot())
		compacted, err := buf.Compact()
		if err != nil {
			t.Fatal(err)
		}
		if compacted.HasDelta() || !slices.Equal(liveEdges(compacted), want) {
			t.Fatalf("%s: compaction changed the edge set or left a delta", name)
		}
		step("compaction")
		if _, _, err := buf.Insert(randomEdge()...); err != nil {
			t.Fatal(err)
		}
		step("first insert on the compacted base")
	}
}

// TestSnapshotSharingStress: readers walk every view of whatever snapshot
// they last picked up while one writer inserts, deletes, publishes and
// compacts. Snapshots share the base arrays and the growing edge table, so
// under -race this is the proof that a publication never writes what an
// older snapshot can read.
func TestSnapshotSharingStress(t *testing.T) {
	base := hgtest.RandomHypergraph(rand.New(rand.NewSource(5)), hgtest.RandomConfig{NumVertices: 20, NumEdges: 220, NumLabels: 2, MaxArity: 4})
	buf, err := hypergraph.NewDeltaBuffer(base)
	if err != nil {
		t.Fatal(err)
	}
	rounds := 60
	if testing.Short() {
		rounds = 15
	}
	done := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				snap := buf.Snapshot()
				if err := checkViews(snap); err != nil {
					t.Errorf("reader on version %d: %v", snap.DeltaVersion(), err)
					return
				}
			}
		}()
	}
	rng := rand.New(rand.NewSource(23))
	for round := 0; round < rounds; round++ {
		for i := 0; i < 8; i++ {
			vs := make([]uint32, 2+rng.Intn(3))
			for j := range vs {
				vs[j] = uint32(rng.Intn(base.NumVertices()))
			}
			if _, _, err := buf.Insert(vs...); err != nil {
				t.Fatal(err)
			}
			snap := buf.Snapshot()
			if _, err := buf.Delete(snap.Edge(hypergraph.EdgeID(rng.Intn(snap.NumEdges())))...); err != nil {
				t.Fatal(err)
			}
		}
		buf.Publish()
		if round%7 == 6 {
			if _, err := buf.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(done)
	readers.Wait()
}
