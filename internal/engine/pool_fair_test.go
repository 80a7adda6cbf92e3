package engine

import (
	"slices"
	"sync"
	"testing"

	"hgmatch/internal/core"
	"hgmatch/internal/hgtest"
	"hgmatch/internal/hypergraph"
)

// TestFairnessCountedSlots is the fairness regression test, made
// deterministic through the counted-slot hook: fairPick is the exact
// decision function the pool workers run (fewest slots first), so
// simulating the pick→consume loop reproduces the scheduler's slot
// allocation without any wall clock. Three tenants submitting continuously
// must split N slots evenly, no two more than one slot apart at any prefix
// of the schedule.
func TestFairnessCountedSlots(t *testing.T) {
	slots := []uint64{0, 0, 0}
	const n = 3000
	for i := 1; i <= n; i++ {
		slots[fairPick(slots)]++
		if lo, hi := slices.Min(slots), slices.Max(slots); hi-lo > 1 {
			t.Fatalf("step %d: slots %v are more than one apart", i, slots)
		}
	}
	if slots[0] != n/3 || slots[1] != n/3 || slots[2] != n/3 {
		t.Errorf("final split %v, want %d each", slots, n/3)
	}
}

// TestFairPickProperties pins fairPick's choice and tie-breaking: the
// request with the fewest slots is picked, ties resolve to the lowest index
// (registration order), and a zero-slot newcomer is always picked.
func TestFairPickProperties(t *testing.T) {
	if got := fairPick([]uint64{5, 5, 5}); got != 0 {
		t.Errorf("three-way tie picked %d, want 0", got)
	}
	if got := fairPick([]uint64{7, 0}); got != 1 {
		t.Errorf("zero-slot newcomer not picked: got %d", got)
	}
	if got := fairPick([]uint64{6, 3, 3, 4}); got != 1 {
		t.Errorf("fewest slots, tied, picked %d, want 1", got)
	}
	if got := fairPick([]uint64{9, 8, 2}); got != 2 {
		t.Errorf("fewest slots picked %d, want 2", got)
	}
}

// TestPoolNewcomerStartsAtFewestSlots pins Submit's slot normalisation on
// the real pool with two tenants registered at once: the second tenant
// starts at the first one's slot count, not at zero, so it cannot
// monopolise the pool while it catches up. Deterministic: the first tenant
// is parked in its row callback while the second registers and reads the
// request list from inside its own run.
func TestPoolNewcomerStartsAtFewestSlots(t *testing.T) {
	plan, err := core.NewPlan(hgtest.Fig1Query(), hgtest.Fig1Data())
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(2)
	defer pool.Close()

	parked, gate := make(chan struct{}), make(chan struct{})
	var park sync.Once
	first := make(chan Result, 1)
	go func() {
		first <- pool.Submit(plan, Options{Workers: 1, OnGroup: hgtest.RowsOf(func(int, []hypergraph.EdgeID) {
			park.Do(func() { close(parked); <-gate })
		})})
	}()
	<-parked
	const firstSlots = 1000
	pool.mu.Lock()
	pool.reqs[0].slots.Store(firstSlots)
	pool.mu.Unlock()

	var slots []uint64
	var read sync.Once
	second := pool.Submit(plan, Options{OnGroup: hgtest.RowsOf(func(int, []hypergraph.EdgeID) {
		read.Do(func() {
			pool.mu.Lock()
			defer pool.mu.Unlock()
			for _, r := range pool.reqs {
				slots = append(slots, r.slots.Load())
			}
		})
	})})
	close(gate)
	if res := <-first; res.Embeddings != 2 || second.Embeddings != 2 {
		t.Fatalf("tenants found %d and %d embeddings, want 2 each", res.Embeddings, second.Embeddings)
	}
	// The second tenant's counter started at firstSlots and has only grown
	// by the few tasks it ran before its first row.
	if len(slots) != 2 || slots[0] != firstSlots || slots[1] < firstSlots || slots[1] > firstSlots+second.TotalTasks() {
		t.Errorf("slots %v, want [%d, %d+(tasks run, at most %d)]", slots, firstSlots, firstSlots, second.TotalTasks())
	}
}
