package engine_test

import "testing"

// TestLimitExactMidBlock: limits below one block, inside a group and past
// the answer; a capped run's count and its deliveries are both exactly the
// oracle's first Limit rows, under contention.
func TestLimitExactMidBlock(t *testing.T) {
	poolModel(t, pmPlan{from: 2101, to: 2104, rounds: 20, ops: "limit rows aggregate workers big", must: "ordered big"})
}

// TestLimitNeverExceeded: however the workers race, a capped run never
// counts or delivers more than Limit.
func TestLimitNeverExceeded(t *testing.T) {
	poolModel(t, pmPlan{from: 2201, to: 2204, rounds: 15, ops: "limit rows workers solo big", must: "ordered limit-count big"})
}

// TestWorkerCallbackSharded: OnGroup worker indexes stay in range and each
// worker's deliveries match its SinkCount.
func TestWorkerCallbackSharded(t *testing.T) {
	poolModel(t, pmPlan{from: 2301, to: 2304, rounds: 10, ops: "rows solo workers", must: "rows"})
}

// TestCancelMidBlock: a Context cancelled while workers are inside block
// expansion stops the run, which reports TimedOut and a subset of the
// oracle's rows; some runs of the big query stop part-way, with some but
// not all of its rows.
func TestCancelMidBlock(t *testing.T) {
	poolModel(t, pmPlan{from: 2401, to: 2404, rounds: 25, ops: "cancel rows big", must: "cancelled stopped-partial"})
}

// TestDisableStealingTerminates: with stealing off every worker, up to 8,
// drains its static share, no worker hangs on an empty deque, and the
// shares union to the oracle's answer with no steal.
func TestDisableStealingTerminates(t *testing.T) {
	poolModel(t, pmPlan{from: 2501, to: 2504, rounds: 10, ops: "nostl solo", must: "nostl nostl-wide"})
}

// TestPeakBlockAccounting: the peak is counted in blocks, each
// TaskBlockBytes.
func TestPeakBlockAccounting(t *testing.T) {
	poolModel(t, pmPlan{from: 2601, to: 2602, rounds: 10, ops: "workers", must: "complete"})
}

// TestDeepQueryInlineRecursion: inline depth-first dispatch across four
// and five matching-order levels answers the oracle's rows, with and
// without stealing.
func TestDeepQueryInlineRecursion(t *testing.T) {
	poolModel(t, pmPlan{from: 2701, to: 2704, rounds: 10, ops: "nostl solo workers rows", must: "nq4 nq5 nostl"})
}
