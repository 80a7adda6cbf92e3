package hgmatch_test

import (
	"math/rand"
	"sync"
	"testing"

	"hgmatch"
	"hgmatch/internal/hgtest"
)

// TestOnlineDedup pins the online dedup contract at the public surface:
// duplicates of base edges, of pending inserts, and deletes of unknown
// edges all leave the graph unchanged.
func TestOnlineDedup(t *testing.T) {
	h, err := hgmatch.FromEdges(
		[]hgmatch.Label{0, 1, 0, 1},
		[][]uint32{{0, 1}, {1, 2, 3}},
	)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := hgmatch.NewDeltaBuffer(h)
	if err != nil {
		t.Fatal(err)
	}
	if id, added, _ := buf.Insert(1, 0); added || id != 0 {
		t.Fatalf("duplicate of base edge: id=%d added=%v", id, added)
	}
	if _, added, _ := buf.Insert(2, 3); !added {
		t.Fatal("fresh insert rejected")
	}
	if id, added, _ := buf.Insert(3, 2, 2); added || id != 2 {
		t.Fatalf("duplicate of pending insert (with repeated vertex): id=%d added=%v", id, added)
	}
	if ok, _ := buf.Delete(0, 3); ok {
		t.Fatal("delete of unknown edge reported success")
	}
	s := buf.Snapshot()
	if s.NumLiveEdges() != 3 {
		t.Fatalf("live edges = %d, want 3", s.NumLiveEdges())
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}

	// A tombstone-carrying snapshot is a fine data graph but must be
	// rejected as a QUERY (compilation would require an embedding for the
	// deleted hyperedge); compacting it makes it compilable again.
	// Cancelling the pending {2,3} leaves {0,1},{1,2,3} — still connected.
	if ok, _ := buf.Delete(2, 3); !ok {
		t.Fatal("delete failed")
	}
	dead := buf.Snapshot()
	if _, err := hgmatch.Compile(dead, h); err == nil {
		t.Fatal("Compile accepted a query with tombstoned hyperedges")
	}
	if _, err := hgmatch.Match(h, dead); err != nil {
		t.Fatalf("tombstoned snapshot rejected as data graph: %v", err)
	}
	compacted, err := buf.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hgmatch.Compile(compacted, h); err != nil {
		t.Fatalf("compacted query rejected: %v", err)
	}
}

// TestConcurrentIngestWhileMatching hammers a DeltaBuffer with concurrent
// writers (inserts, deletes, compactions) while reader goroutines run
// matches on whatever snapshot is current. Run under -race this is the
// MVCC safety test: snapshots must stay internally consistent however the
// writers interleave.
func TestConcurrentIngestWhileMatching(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	base := hgtest.RandomHypergraph(rng, hgtest.RandomConfig{
		NumVertices: 40, NumEdges: 80, NumLabels: 3, MaxArity: 3,
	})
	q := hgtest.ConnectedQueryFromWalk(rng, base, 2)
	if q == nil {
		t.Fatal("no query sampled")
	}
	buf, err := hgmatch.NewDeltaBuffer(base)
	if err != nil {
		t.Fatal(err)
	}

	const writers, readers, opsPerWriter = 2, 3, 150
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < opsPerWriter; i++ {
				switch r.Intn(12) {
				case 0:
					if _, err := buf.Compact(); err != nil {
						t.Errorf("compact: %v", err)
						return
					}
				case 1, 2:
					buf.Delete(uint32(r.Intn(base.NumVertices())), uint32(r.Intn(base.NumVertices())))
				default:
					k := 2 + r.Intn(2)
					vs := make([]uint32, k)
					for j := range vs {
						vs[j] = uint32(r.Intn(base.NumVertices()))
					}
					if _, _, err := buf.Insert(vs...); err != nil {
						t.Errorf("insert: %v", err)
						return
					}
				}
			}
		}(int64(100 + w))
	}
	done := make(chan struct{})
	var rwg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				s := buf.Snapshot()
				if _, err := hgmatch.Count(q, s, hgmatch.WithWorkers(2)); err != nil {
					t.Errorf("match on live snapshot: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	rwg.Wait()

	// The settled snapshot must equal its own compaction, result for
	// result.
	snap := buf.Snapshot()
	if err := snap.Validate(); err != nil {
		t.Fatalf("settled snapshot invalid: %v", err)
	}
	compacted, err := buf.Compact()
	if err != nil {
		t.Fatal(err)
	}
	n1, err := hgmatch.Count(q, snap)
	if err != nil {
		t.Fatal(err)
	}
	n2, err := hgmatch.Count(q, compacted)
	if err != nil {
		t.Fatal(err)
	}
	if n1 != n2 {
		t.Fatalf("snapshot count %d != compacted count %d", n1, n2)
	}
}
