package engine

import (
	"sync"
	"testing"

	"hgmatch/internal/core"
	"hgmatch/internal/hgtest"
	"hgmatch/internal/hypergraph"
)

// TestFairnessCountedSlots is the fairness regression test, made
// deterministic through the counted-slot hook: fairPick is the exact
// decision function the pool workers run (minimum virtual time
// slots/weight, cross-multiplied), so simulating the pick→consume loop
// reproduces the scheduler's slot allocation without any wall clock. Two
// tenants with weights 1 and 3 submitting continuously must split N slots
// in ratio 1:3, bounded within one slot of exact proportionality at every
// prefix of the schedule.
func TestFairnessCountedSlots(t *testing.T) {
	weights := []uint64{1, 3}
	slots := []uint64{0, 0}
	const n = 4000
	for i := 1; i <= n; i++ {
		slots[fairPick(slots, weights)]++
		// Invariant at every step: tenant j holds within 1 slot of its
		// proportional share weight_j/Σweights of the slots handed out.
		total := slots[0] + slots[1]
		for j := range weights {
			share := float64(total) * float64(weights[j]) / 4.0
			if d := float64(slots[j]) - share; d > 1 || d < -1 {
				t.Fatalf("step %d: tenant %d has %d slots, proportional share %.1f", i, j, slots[j], share)
			}
		}
	}
	if slots[0] != n/4 || slots[1] != 3*n/4 {
		t.Errorf("final split %v, want [%d %d]", slots, n/4, 3*n/4)
	}
}

// TestFairPickProperties pins fairPick's tie-breaking and weighting: ties
// resolve to the lowest index (registration order), a zero-slot newcomer
// is always picked, and a heavier tenant with proportionally more slots is
// not preferred over a lighter one at the same virtual time.
func TestFairPickProperties(t *testing.T) {
	if got := fairPick([]uint64{5, 5, 5}, []uint64{1, 1, 1}); got != 0 {
		t.Errorf("three-way tie picked %d, want 0", got)
	}
	if got := fairPick([]uint64{7, 0}, []uint64{1, 1}); got != 1 {
		t.Errorf("zero-slot newcomer not picked: got %d", got)
	}
	// vt equal: 6/2 == 3/1 → tie resolves to the lower index.
	if got := fairPick([]uint64{6, 3}, []uint64{2, 1}); got != 0 {
		t.Errorf("equal virtual times picked %d, want 0", got)
	}
	// 5/2 < 3/1 → the weighted tenant is behind and must be picked.
	if got := fairPick([]uint64{5, 3}, []uint64{2, 1}); got != 0 {
		t.Errorf("weighted tenant behind on vt not picked: got %d", got)
	}
}

// TestPoolSlotRatioTwoTenants pins Submit's weight plumbing on the real
// pool with two tenants registered at once: a Weight of 0 registers as 1, a
// weight above maxWeight is clamped to it, and the second tenant starts at
// the first one's virtual time, so their slot counters stand in the ratio of
// their weights. Deterministic: the first tenant is parked in its row
// callback while the second registers and reads the request list from
// inside its own run.
func TestPoolSlotRatioTwoTenants(t *testing.T) {
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
		first <- pool.Submit(plan, Options{Workers: 1, OnEmbeddingWorker: func(int, []hypergraph.EdgeID) {
			park.Do(func() { close(parked); <-gate })
		}})
	}()
	<-parked
	const firstSlots = 3
	pool.mu.Lock()
	pool.reqs[0].slots.Store(firstSlots)
	pool.mu.Unlock()

	var weights, slots []uint64
	var read sync.Once
	second := pool.Submit(plan, Options{Weight: maxWeight + 7, OnEmbeddingWorker: func(int, []hypergraph.EdgeID) {
		read.Do(func() {
			pool.mu.Lock()
			defer pool.mu.Unlock()
			for _, r := range pool.reqs {
				weights = append(weights, r.weight)
				slots = append(slots, r.slots.Load())
			}
		})
	}})
	close(gate)
	if res := <-first; res.Embeddings != 2 || second.Embeddings != 2 {
		t.Fatalf("tenants found %d and %d embeddings, want 2 each", res.Embeddings, second.Embeddings)
	}
	if len(weights) != 2 || weights[0] != 1 || weights[1] != maxWeight {
		t.Fatalf("registered weights %v, want [1 %d]", weights, maxWeight)
	}
	// The second tenant's counter started at firstSlots·maxWeight and has
	// only grown by the few tasks it ran before its first row.
	if slots[0] != firstSlots || slots[1]/weights[1] != firstSlots {
		t.Errorf("slots %v with weights %v: virtual times %d and %d, want both %d",
			slots, weights, slots[0]/weights[0], slots[1]/weights[1], firstSlots)
	}
}
