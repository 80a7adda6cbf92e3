// Package engine implements HGMatch's parallel execution engine (paper
// §VI): a task-based scheduler over per-worker LIFO deques with
// fine-grained dynamic work stealing, giving bounded-memory execution
// (Theorem VI.1) and near-perfect load balancing; plus the BFS-style
// scheduler used as the memory-consumption baseline in Exp-5.
package engine

import (
	"sync"
)

// task is the minimal scheduling unit (paper Definition VI.1, morsel-driven
// variant). A task is either a SCAN range over the start partition's edge
// list (blk == nil) or a block of up to morselRows partial embeddings to
// EXPAND. Carrying a block instead of one embedding keeps the paper's task
// semantics (LIFO order, stealable units, bounded live set) while
// eliminating the per-embedding allocation and most scheduler round-trips.
type task struct {
	blk    *block // block of partial embeddings; nil for scan tasks
	lo, hi uint32 // scan range [lo, hi) into the start partition
}

// deque is one worker's task queue. The owner pushes and pops at the head
// (LIFO order, which bounds memory, §VI-B); idle workers steal half of the
// tasks from the tail (§VI-C). The paper uses a non-blocking Chase-Lev
// deque [17]; we guard the tiny critical sections with a per-deque mutex
// instead — the stealing semantics (half from the tail) are identical, and
// the owner path is a few nanoseconds of uncontended locking (see
// docs/ARCHITECTURE.md, "§VI-B scheduler, morsel-driven variant";
// BenchmarkAblationDeque compares the two).
type deque struct {
	mu  sync.Mutex
	buf []task // buf[0] is the tail (oldest), buf[len-1] the head (newest)
}

// push adds a task at the head.
func (d *deque) push(t task) {
	d.mu.Lock()
	d.buf = append(d.buf, t)
	d.mu.Unlock()
}

// pushN adds tasks at the head in order.
func (d *deque) pushN(ts []task) {
	d.mu.Lock()
	d.buf = append(d.buf, ts...)
	d.mu.Unlock()
}

// pop removes the most recent task (head). ok is false when empty.
func (d *deque) pop() (t task, ok bool) {
	d.mu.Lock()
	if n := len(d.buf); n > 0 {
		t = d.buf[n-1]
		d.buf[n-1] = task{} // release references
		d.buf = d.buf[:n-1]
		ok = true
	}
	d.mu.Unlock()
	return t, ok
}

// stealHalf removes ⌈len/2⌉ tasks from the tail and returns them. The
// returned slice is freshly allocated and owned by the thief.
func (d *deque) stealHalf() []task {
	d.mu.Lock()
	n := len(d.buf)
	if n == 0 {
		d.mu.Unlock()
		return nil
	}
	k := (n + 1) / 2
	stolen := make([]task, k)
	copy(stolen, d.buf[:k])
	m := copy(d.buf, d.buf[k:])
	for i := m; i < n; i++ {
		d.buf[i] = task{}
	}
	d.buf = d.buf[:m]
	d.mu.Unlock()
	return stolen
}

// size returns the current length (approximate under concurrency; used for
// victim selection and diagnostics only).
func (d *deque) size() int {
	d.mu.Lock()
	n := len(d.buf)
	d.mu.Unlock()
	return n
}
