package engine_test

import (
	"testing"

	"hgmatch/internal/core"
	"hgmatch/internal/engine"
	"hgmatch/internal/hgtest"
)

// The tests below that call poolModel are focused runs of the pool
// lifecycle model (TestPoolLifecycle): each draws only the settings its
// guarantee needs and must see the events that exercise it.

func TestFig1Parallel(t *testing.T) {
	p, err := core.NewPlan(hgtest.Fig1Query(), hgtest.Fig1Data())
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		res := engine.Run(p, engine.Options{Workers: workers})
		if res.Embeddings != 2 {
			t.Errorf("workers=%d: embeddings = %d, want 2", workers, res.Embeddings)
		}
		if res.TimedOut {
			t.Errorf("workers=%d: spurious timeout", workers)
		}
	}
}

// TestParallelMatchesSequential: at every width, with and without
// stealing, solo and pooled, a run counts the oracle's answer and
// reproduces the sequential enumeration's kernel counters.
func TestParallelMatchesSequential(t *testing.T) {
	poolModel(t, pmPlan{from: 101, to: 104, rounds: 20, ops: "solo workers nostl", must: "solo pool wide nostl complete nq1 nq2 nq3 nq4 nq5"})
}

// TestCollectedEmbeddingsIdentical: the rows a run delivers are the
// oracle's, each once, at every width.
func TestCollectedEmbeddingsIdentical(t *testing.T) {
	poolModel(t, pmPlan{from: 201, to: 204, rounds: 15, ops: "rows solo workers", must: "rows complete"})
}

// TestLimit: a capped run counts exactly min(Limit, answer).
func TestLimit(t *testing.T) {
	poolModel(t, pmPlan{from: 301, to: 302, rounds: 20, ops: "limit", must: "limit-count"})
}

// TestTimeoutReported: a run whose deadline passes stops early and says
// so; one whose deadline passed before it started serves nothing.
func TestTimeoutReported(t *testing.T) {
	poolModel(t, pmPlan{from: 401, to: 402, rounds: 20, ops: "timeout rows", must: "timeout-expired"})
}

// TestFilterOperator: Filter keeps exactly the oracle rows passing it.
func TestFilterOperator(t *testing.T) {
	poolModel(t, pmPlan{from: 501, to: 502, rounds: 15, ops: "filter rows", must: "filter"})
}

// TestAggregateOperator: Aggregate's groups count the oracle rows per key.
func TestAggregateOperator(t *testing.T) {
	poolModel(t, pmPlan{from: 601, to: 602, rounds: 15, ops: "aggregate filter", must: "aggregate"})
}

// TestWorkerStatsConservation: every task executed was an initial scan
// task or spawned by another, and every embedding was sunk by one worker.
func TestWorkerStatsConservation(t *testing.T) {
	poolModel(t, pmPlan{from: 701, to: 704, rounds: 10, ops: "solo workers", must: "complete"})
}

// TestEmptyPlanRun: a query whose signature no table carries finds nothing.
func TestEmptyPlanRun(t *testing.T) {
	poolModel(t, pmPlan{from: 801, to: 802, rounds: 15, ops: "solo", must: "empty"})
}

// TestSingleEdgeQueryParallel: a one-hyperedge query is answered by SCAN
// alone, at every width.
func TestSingleEdgeQueryParallel(t *testing.T) {
	poolModel(t, pmPlan{from: 901, to: 904, rounds: 10, ops: "solo workers", must: "nq1"})
}

// TestContextCancellation: a pre-cancelled Context stops the run before it
// serves anything, and a live one lets it complete.
func TestContextCancellation(t *testing.T) {
	poolModel(t, pmPlan{from: 1001, to: 1002, rounds: 20, ops: "cancel", must: "pre-cancelled complete"})
}

// TestShardScanSubsetUnion: a run over a subset of the SCAN seed set
// answers exactly the oracle rows rooted at those seeds, so disjoint
// subsets partition the answer.
func TestShardScanSubsetUnion(t *testing.T) {
	poolModel(t, pmPlan{from: 1101, to: 1102, rounds: 20, ops: "scan rows solo", must: "scan"})
}

// TestShardScanEmptyShortCircuit: a non-nil empty Scan completes with a
// zero result without registering with the pool.
func TestShardScanEmptyShortCircuit(t *testing.T) {
	poolModel(t, pmPlan{from: 1201, to: 1202, rounds: 15, ops: "scan solo", must: "scan-empty"})
}
