package engine_test

import "testing"

// The chaos batteries are focused runs of the pool model; with
// HGMATCH_CHAOS=1 (the CI chaos job) they run four times the seeds.

// TestChaosSoloPanics: a panic injected at a random fault point of a run,
// solo or pooled, poisons only that run: ErrRequestPoisoned with the
// captured stack, nothing leaked; a run whose target lay beyond the points
// it crossed is a clean, exact run.
func TestChaosSoloPanics(t *testing.T) {
	poolModel(t, pmPlan{from: 1301, to: 1304, rounds: 40, ops: "solo panic", must: "solo panic-fired panic-clean"})
}

// TestChaosPointLabels: each instrumented point label can be hit in
// isolation, and a panic thrown there is contained at the task boundary.
func TestChaosPointLabels(t *testing.T) {
	poolModel(t, pmPlan{from: 1401, to: 1402, rounds: 40, ops: "solo panic rows", must: "panic@task panic@expand panic@sink"})
}

// TestChaosPoolIsolation: requests poisoned by injected panics share the
// pool with clean ones that yield to them and to which they yield, some
// rounds seeing a poisoned request, a yield and an exact neighbour
// together. The clean ones answer the oracle's rows, the pool counts one
// recovered panic per poisoned request, and every poisoned submitter
// returns: a round that hangs panics with its seed.
func TestChaosPoolIsolation(t *testing.T) {
	poolModel(t, pmPlan{from: 1501, to: 1504, rounds: 25, ops: "panic block rows workers", must: "panic-fired yield beside-fault concurrent yield-beside-panic"})
}

// TestChaosSinkCallbackPanic: the caller's own OnGroup panicking is
// contained as a poisoned request with nothing leaked.
func TestChaosSinkCallbackPanic(t *testing.T) {
	poolModel(t, pmPlan{from: 1601, to: 1602, rounds: 30, ops: "callback-panic solo", must: "callback-panic"})
}

// TestChaosBudgetSweep: MaxMemory budgets from below one block to past the
// peak; every aborted run reports ErrBudgetExceeded and leaks nothing, every
// admitted one is exact.
func TestChaosBudgetSweep(t *testing.T) {
	poolModel(t, pmPlan{from: 1701, to: 1702, rounds: 30, ops: "budget solo workers", must: "budget-abort budget-pass"})
}
