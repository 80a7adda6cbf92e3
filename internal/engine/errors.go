package engine

import (
	"errors"
	"fmt"

	"hgmatch/internal/hgio"
)

// Fault containment: the error surface of a run that failed without
// taking the process (or any other request) with it. Result.Err carries
// exactly one of these classes; errors.Is against the sentinels below is
// the supported way to classify it.

// ErrRequestPoisoned marks a request that a worker panic was recovered
// from: the panicking task's request was detached with partial results
// while the worker set kept serving every other request, and all of the
// request's embedding blocks were returned to the free lists
// (Result.LeakedBlocks stays 0). The concrete error in Result.Err is a
// *PoisonedError wrapping this sentinel, carrying the panic value and the
// captured stack.
var ErrRequestPoisoned = errors.New("engine: request poisoned by worker panic")

// ErrBudgetExceeded marks a run aborted because its accounted memory —
// live embedding blocks at TaskBlockBytes each, plus a scatter gather
// window — crossed Options.MaxMemory. The abort is cooperative: counts in
// the Result are lower bounds over what was enumerated in budget.
var ErrBudgetExceeded = errors.New("engine: request memory budget exceeded")

// ErrPoolClosed is returned by Pool.Submit once Close has begun: the
// shutdown sentinel, shared with the registry via hgio.ErrShuttingDown so
// the solo and sharded serving paths report shutdown identically (the
// HTTP layer maps it to 503/shutting_down).
var ErrPoolClosed = fmt.Errorf("engine: pool closed: %w", hgio.ErrShuttingDown)

// PoisonedError is the concrete error behind ErrRequestPoisoned: the
// recovered panic value and the stack captured at the recovery point.
// One request records at most one (the first panic wins; later panics in
// concurrently attached workers are recovered and dropped).
type PoisonedError struct {
	Value any    // the value passed to panic()
	Stack []byte // debug.Stack() at the recovery point
	Point string // worker boundary that recovered it ("task", "pool", "gather")
}

func (e *PoisonedError) Error() string {
	return fmt.Sprintf("engine: request poisoned: panic at %s boundary: %v", e.Point, e.Value)
}

// Unwrap ties the concrete error to the ErrRequestPoisoned sentinel.
func (e *PoisonedError) Unwrap() error { return ErrRequestPoisoned }
