package engine_test

import "testing"

// TestCounterFlush: workers count into private state and merge it when
// they detach, on every way out of a run — clean, capped, cancelled, timed
// out, poisoned — solo and pooled: the per-worker SinkCounts sum to the
// run's count and the tasks and busy time are attributed.
func TestCounterFlush(t *testing.T) {
	poolModel(t, pmPlan{from: 1801, to: 1804, rounds: 30, ops: "limit cancel timeout panic rows solo", must: "limit-count cancelled panic-fired complete"})
}

// TestGroupCallbackEquivalence: OnGroup hands over the last EXPAND's
// candidate run whole; with Filter, Limit and Aggregate it sees exactly the
// rows they keep (a capped filtered run the first passing rows, in order,
// on worker 0), and the sink fault point fires once per group.
func TestGroupCallbackEquivalence(t *testing.T) {
	poolModel(t, pmPlan{from: 1901, to: 1904, rounds: 20, ops: "rows filter limit aggregate panic solo", must: "rows filter ordered aggregate panic-clean"})
}

// TestGroupCallbackAbnormalRuns: a run that streams by group still ends the
// way every run must when it is cancelled mid-stream or its callback
// panics: the rows delivered are the rows counted.
func TestGroupCallbackAbnormalRuns(t *testing.T) {
	poolModel(t, pmPlan{from: 2001, to: 2004, rounds: 30, ops: "rows cancel callback-panic solo", must: "cancelled callback-panic"})
}
