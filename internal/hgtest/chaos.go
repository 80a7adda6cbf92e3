// Chaos-testing harness for the serving path: deterministic panic
// injection at the engine's instrumented fault points, fault-point
// counting to randomize injection sites, and raw-connection HTTP clients
// that stall or disconnect mid-stream. Engine and server batteries
// compose these to assert the fault-containment contract (process
// survives, pool drains, zero leaked blocks, concurrent requests
// untouched); see docs/OPERATIONS.md.
package hgtest

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// PanicInjector is an engine FaultHook that panics on its Target'th
// eligible invocation. With Point set, only hook calls for that point
// label count ("task", "expand", "sink"); otherwise every call
// counts, so Target indexes the run's global fault-point sequence.
//
// A single run's hook invocation order is deterministic only for one
// worker; under concurrency Target selects "some" interleaving-dependent
// point, which is exactly what a randomized battery wants. The injector
// is safe for concurrent use and fires at most once.
type PanicInjector struct {
	Target int64  // 1-based index of the eligible call to panic on
	Point  string // restrict to one point label; "" = any

	calls atomic.Int64
	fired atomic.Bool
}

// Hook is the engine.Options.FaultHook callback.
func (pi *PanicInjector) Hook(point string) {
	if pi.Point != "" && point != pi.Point {
		return
	}
	if pi.calls.Add(1) == pi.Target && pi.fired.CompareAndSwap(false, true) {
		panic(fmt.Sprintf("hgtest: injected fault at %q (call %d)", point, pi.Target))
	}
}

// Fired reports whether the injector reached its target and panicked.
// A battery uses it to tell "fault exercised" from "run ended before the
// target point was hit" (both are legal outcomes of a randomized target).
func (pi *PanicInjector) Fired() bool { return pi.fired.Load() }

// Calls returns how many eligible fault points the run passed through.
func (pi *PanicInjector) Calls() int64 { return pi.calls.Load() }

// FaultCounter is a FaultHook that only counts. A battery first runs the
// workload once under a FaultCounter to learn how many fault points the
// run crosses per label, then draws PanicInjector targets from that range.
type FaultCounter struct {
	total atomic.Int64

	mu     sync.Mutex
	points map[string]int64
}

// Hook is the engine.Options.FaultHook callback.
func (fc *FaultCounter) Hook(point string) {
	fc.total.Add(1)
	fc.mu.Lock()
	if fc.points == nil {
		fc.points = make(map[string]int64)
	}
	fc.points[point]++
	fc.mu.Unlock()
}

// Total returns the number of fault points crossed so far.
func (fc *FaultCounter) Total() int64 { return fc.total.Load() }

// Count returns how many times the given point label was crossed.
func (fc *FaultCounter) Count(point string) int64 {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return fc.points[point]
}

// DialRequest opens a raw TCP connection to addr (host:port) and writes a
// minimal HTTP/1.1 request with a JSON body, returning the open
// connection without reading the response. The caller drives the read
// side: never reading simulates a stalled (slow) client once the kernel
// socket buffers fill, reading a little then closing simulates a
// mid-stream disconnect, and closing only the read half leaves a
// half-closed connection. The caller owns conn.Close.
func DialRequest(addr, method, path, body string) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	req := fmt.Sprintf("%s %s HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
		method, path, addr, len(body), body)
	if _, err := conn.Write([]byte(req)); err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}
