package hgio

import "errors"

// This file is the serving stack's error taxonomy: the shared sentinels
// and the machine-readable error codes that travel in ErrorResponse.Code
// and MatchSummary.ErrorCode. The taxonomy lives here — next to the wire
// types — because its whole point is that every layer (engine pool,
// registry, HTTP handlers) classifies failures the same way, so a client
// sees one code per failure class no matter which layer tripped first.

// ErrShuttingDown is the single shutdown sentinel of the serving stack:
// engine.Pool.Submit on a closed pool, Registry.Acquire after Close and
// every path layered on them wrap this error, and the HTTP layer maps it
// to 503 with CodeShuttingDown. One sentinel means the pool and the
// registry cannot drift apart in how they report shutdown.
var ErrShuttingDown = errors.New("hgio: shutting down")

// Error codes carried in ErrorResponse.Code and MatchSummary.ErrorCode.
// Codes are append-only: clients switch on them, so a published code
// never changes meaning.
const (
	// CodeShuttingDown: the request was refused (or cut short) because
	// the process is draining for shutdown. Retry against another
	// instance, or the same one after restart. HTTP 503.
	CodeShuttingDown = "shutting_down"
	// CodeBudgetExceeded: the run was aborted because its accounted
	// memory (embedding blocks) crossed the per-request budget
	// (-request-max-bytes). The request is over-broad, not the server
	// overloaded: narrow the query or raise the budget. HTTP 413.
	CodeBudgetExceeded = "budget_exceeded"
	// CodeRequestPoisoned: a worker panic was recovered while serving
	// this request; the request was detached with partial results while
	// the pool kept serving others. The server logs the captured stack —
	// report it, this is always a bug. HTTP 500.
	CodeRequestPoisoned = "request_poisoned"
	// CodeSlowClient appears only in logs/stats (the client that earns
	// it is, by definition, not reading responses): the connection
	// missed its write deadline and the run was cancelled to free its
	// pool workers and admission cost.
	CodeSlowClient = "slow_client"
)
