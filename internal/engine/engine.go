package engine

import (
	"context"
	"math/rand/v2"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"hgmatch/internal/core"
	"hgmatch/internal/dataflow"
	"hgmatch/internal/hypergraph"
)

// scanChunk bounds how many first-hyperedge matches one SCAN task expands
// before splitting; small enough to give thieves work, large enough to
// amortise scheduling.
const scanChunk = 64

// publishThreshold is the deque-starvation bound of the morsel scheduler: a
// full block is published (pushed, stealable) only while the worker's own
// deque holds fewer than this many tasks; otherwise it is expanded inline,
// skipping the scheduler round-trip entirely. Thieves drain published
// blocks; a busy worker with a stocked deque runs allocation- and
// synchronisation-free.
const publishThreshold = 2

// busyWindow is how many tasks share one BusyTime clock sample. Sampling
// time.Now() once per window instead of twice per task removes the clock
// from the micro-task cost at the price of WorkerStats.BusyTime resolution:
// busy spans are measured in windows of up to busyWindow tasks (block tasks
// are coarse, so a window is typically milliseconds of real work).
const busyWindow = 16

// cancelCheckRows is how many embedding rows a worker expands between
// deadline/context polls while inside a block (blocks are also checked once
// per task pop). Bounds cancellation latency without a clock read per row.
const cancelCheckRows = 1024

// maxFreeBlocks caps a worker's block free list; beyond it drained blocks
// are dropped for the GC (only reachable under pathological steal churn).
const maxFreeBlocks = 64

// blockHeaderBytes is the accounted fixed overhead of one block task:
// the block struct, its slice header and the task wrapper.
const blockHeaderBytes = 48

// TaskBlockBytes returns the accounted in-memory size of one block task for
// plan p: a fixed header plus morselRows rows of |E(q)| edge IDs. It is the
// per-task size of Theorem VI.1's accounting, restated in block units;
// Result.PeakTaskBytes is PeakTasks times this value.
func TaskBlockBytes(p *core.Plan) int {
	return blockHeaderBytes + 4*morselRows*p.NumSteps()
}

// Options configures a Run.
type Options struct {
	// Workers is the thread-pool size p; 0 means GOMAXPROCS.
	Workers int
	// DisableStealing turns dynamic work stealing off, leaving only the
	// static initial split of first-hyperedge matches across workers —
	// the "HGMatch-NOSTL" configuration of Exp-6 (paper Fig. 12).
	DisableStealing bool
	// OnEmbedding, when non-nil, receives every embedding (the tuple is
	// aligned with plan.Order and reused; copy to retain). Calls are
	// serialised by the engine, so the callback needs no locking — at the
	// cost of a global lock on the sink path; high-throughput consumers
	// should prefer OnEmbeddingWorker.
	OnEmbedding func(m []hypergraph.EdgeID)
	// OnEmbeddingWorker, when non-nil, receives every embedding on the
	// worker that found it, tagged with the worker index in [0, Workers).
	// Calls are NOT serialised across workers — two workers may call
	// concurrently (always with distinct worker indexes), so fn must
	// shard its state by worker or synchronise internally. The tuple is
	// reused; copy to retain. This is the per-worker sink path: no global
	// lock is taken per embedding.
	OnEmbeddingWorker func(worker int, m []hypergraph.EdgeID)
	// OnGroup, when non-nil, receives every embedding on the worker that
	// found it, in the shape match-by-hyperedge produces them: one call
	// stands for the len(last) embeddings prefix+[c], c ranging over last in
	// order, where prefix is a partial embedding aligned with the plan's
	// matching order and last holds the valid data hyperedges of the final
	// EXPAND (paper Algorithms 3-5; a one-hyperedge query has an empty
	// prefix and a SCAN range as last). A run nothing inspects row by row —
	// no Limit, Filter, Aggregate, FaultHook, OnEmbedding or
	// OnEmbeddingWorker — hands over each parent row's whole candidate run;
	// any other run delivers the same embeddings in the same per-worker
	// order as groups of one. Concurrency is OnEmbeddingWorker's: calls from
	// different workers overlap, always with distinct worker indexes. Both
	// slices are the engine's own storage, reused between calls: read only,
	// copy to retain.
	OnGroup func(worker int, prefix, last []hypergraph.EdgeID)
	// Limit stops the run after this many embeddings (0 = unlimited). A
	// capped run that delivers rows — OnEmbedding, OnEmbeddingWorker,
	// OnGroup or Aggregate set — keeps the first Limit rows of the
	// sequential depth-first order (core.Plan.EnumerateSequential), which
	// are the Limit lexicographically smallest tuples in plan order. It
	// runs on one worker at a time, streams those rows in that order with
	// no buffering, and every callback sees worker index 0. A capped run
	// that only counts keeps the parallel path: its count does not depend
	// on which rows are kept.
	Limit uint64
	// Timeout aborts the run after this duration (0 = none). Aborted runs
	// report TimedOut = true and a lower-bound embedding count.
	Timeout time.Duration
	// Context, when non-nil, aborts the run on cancellation (checked at
	// task granularity and every cancelCheckRows embeddings within a
	// block). Cancelled runs report TimedOut = true.
	Context context.Context
	// Filter drops complete embeddings failing the predicate before they
	// reach the sink (dataflow FILTER operator).
	Filter dataflow.Predicate
	// Aggregate, when non-nil, groups embeddings by key and counts per
	// group (dataflow AGGREGATE operator). Groups are accumulated in
	// per-worker maps merged at run end and returned in Result.Groups.
	Aggregate dataflow.KeyFunc
	// Weight is the request's fair-share weight on a shared Pool: a
	// request of weight 2 receives twice the morsel slots of a weight-1
	// request while both are runnable. 0 means 1. Run, a pool of one
	// request, has nobody to share with and ignores it.
	Weight int
	// Scan, when non-nil, replaces the plan's full start partition as the
	// run's SCAN seed set: only these first-hyperedge candidates are
	// expanded. A caller that splits InitialCandidates() into disjoint
	// subsets and runs one sub-run per subset (internal/shard's unit
	// fan-out) gets exactly the whole run's embeddings, with no overlap,
	// because every embedding is rooted at exactly one scan candidate. The
	// slice must be a subset of the plan's start partition and is not
	// copied; a non-nil empty slice short-circuits the run.
	Scan []hypergraph.EdgeID
	// MaxMemory bounds the run's accounted memory in bytes: live embedding
	// blocks at TaskBlockBytes(plan) each (Theorem VI.1's accounting). 0
	// means unlimited. A run that would cross the budget stops
	// cooperatively and reports ErrBudgetExceeded in Result.Err with
	// lower-bound counts; because the check sits at block acquisition the
	// instantaneous overshoot is bounded by one block per attached worker.
	MaxMemory int64
	// FaultHook, when non-nil, is called at the engine's instrumented
	// execution points with the point's label: "task" once per scheduled
	// task, "expand" once per block expansion, "sink" once per embedding.
	// It exists for the chaos harness (internal/hgtest): a hook that
	// panics exercises the panic containment at exactly that boundary.
	// Serving paths leave it nil; a nil-check per point is the only cost
	// then.
	FaultHook func(point string)
}

// ordered reports whether the run's answer is the first Limit rows of the
// sequential order (see Limit): a cap on a run that delivers rows.
func (o *Options) ordered() bool {
	return o.Limit > 0 && (o.OnEmbedding != nil || o.OnEmbeddingWorker != nil || o.OnGroup != nil || o.Aggregate != nil)
}

// seedCandidates resolves a run's SCAN seed set: the Scan override when
// set, the plan's full start partition otherwise.
func seedCandidates(p *core.Plan, opts *Options) []hypergraph.EdgeID {
	if opts.Scan != nil {
		return opts.Scan
	}
	return p.InitialCandidates()
}

// WorkerStats reports one worker's contribution; Exp-6 (Fig. 12) plots the
// per-worker busy times to show load balance. BusyTime is sampled once per
// busyWindow tasks, not per task, so its resolution is one window.
type WorkerStats struct {
	Tasks     uint64        // tasks executed
	Spawned   uint64        // tasks spawned (pushed to a deque)
	Steals    uint64        // successful steal operations performed
	Stolen    uint64        // tasks obtained via stealing
	BusyTime  time.Duration // time spent executing tasks (window-sampled)
	SinkCount uint64        // embeddings this worker sank
}

// Add accumulates o into s.
func (s *WorkerStats) Add(o WorkerStats) {
	s.Tasks += o.Tasks
	s.Spawned += o.Spawned
	s.Steals += o.Steals
	s.Stolen += o.Stolen
	s.BusyTime += o.BusyTime
	s.SinkCount += o.SinkCount
}

// Result is the outcome of a Run.
type Result struct {
	Embeddings uint64
	Counters   core.Counters
	Workers    []WorkerStats
	// PeakTasks is the high-water mark of live embedding blocks (queued,
	// executing, or being filled inline); PeakTaskBytes applies the
	// per-block size TaskBlockBytes (Theorem VI.1's accounting in block
	// units; scan-range tasks are a few words each and not counted).
	PeakTasks     int64
	PeakTaskBytes int64
	Elapsed       time.Duration
	TimedOut      bool
	Groups        map[string]uint64 // AGGREGATE output (nil without aggregation)
	// LeakedBlocks is the number of embedding blocks still accounted live
	// when the run finished. A leak-free engine always reports 0 — on every
	// path, including cancellation, limit trims and recovered panics, each
	// acquired block is released back to a worker free list before the
	// run's last task retires. Exposed so leak-detector tests can assert
	// the invariant.
	LeakedBlocks int64
	// Err reports a run that completed abnormally: nil on success (and on
	// plain timeouts/cancellations, which TimedOut covers), a
	// *PoisonedError wrapping ErrRequestPoisoned when a worker panic was
	// recovered, ErrBudgetExceeded when the run crossed Options.MaxMemory,
	// or ErrPoolClosed (wrapping hgio.ErrShuttingDown) from Submit on a
	// closed pool. Counts in an errored Result are lower bounds.
	Err error
}

// TotalTasks sums tasks executed across workers.
func (r *Result) TotalTasks() uint64 {
	var n uint64
	for _, w := range r.Workers {
		n += w.Tasks
	}
	return n
}

// TotalSteals sums successful steal operations across workers.
func (r *Result) TotalSteals() uint64 {
	var n uint64
	for _, w := range r.Workers {
		n += w.Steals
	}
	return n
}

// Run executes the plan's dataflow graph and returns counts and stats. It
// is a pool of one request: a Pool of opts.Workers workers (GOMAXPROCS when
// 0) serves the request and is closed once it drains, so a one-shot run and
// a served request take the same execution path.
func Run(p *core.Plan, opts Options) Result {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	pool := NewPool(opts.Workers)
	defer pool.Close()
	return pool.Submit(p, opts)
}

// runState is one request's execution state, shared by every pool worker
// attached to it.
type runState struct {
	plan  *core.Plan
	opts  Options
	nq    int // |E(q)|
	first []hypergraph.EdgeID

	deques     []deque
	stats      []WorkerStats // per-worker-slot stats, written only by detach; len == len(deques)
	pending    atomic.Int64  // live tasks (queued or executing)
	liveBlocks atomic.Int64  // embedding blocks alive (queued, executing, filling)
	peak       atomic.Int64  // high-water mark of liveBlocks
	stopped    atomic.Bool
	count      atomic.Uint64

	// Fault containment: the first recovered panic poisons the request
	// (first writer wins; later panics are recovered and dropped), and a
	// block acquisition beyond the memory budget aborts it. Both set
	// stopped, so the existing cancellation drain — every queued task is
	// popped, discarded and its block released — is also the fault drain.
	poisoned  atomic.Pointer[PoisonedError]
	budgetHit atomic.Bool
	maxLive   int64  // live-block budget from Options.MaxMemory; valid if budgeted
	budgeted  bool   // MaxMemory > 0
	onPanic   func() // pool counter hook; set before workers start, may be nil

	deadline  time.Time
	hasDL     bool
	hasCancel bool // deadline or context present
	watch     bool // any stop condition can fire mid-run (limit/deadline/ctx)
	// byGroup: nothing looks at single embeddings (no per-row callback,
	// filter, aggregate, limit or fault hook), so the last matching-order
	// step sinks a parent row's whole candidate run at once. countOnly is
	// byGroup with no OnGroup either: nothing consumes the embeddings at
	// all, and the last step counts its valid candidates without
	// materialising the run.
	byGroup   bool
	countOnly bool
	// serial: the run is ordered (Options.ordered), so it has one deque
	// that whichever attached worker serves, depth first and without
	// publishing or stealing.
	serial bool

	sinkMu sync.Mutex // serialises the legacy OnEmbedding callback
	groups map[string]uint64

	mergeMu        sync.Mutex // guards end-of-run merges (counters, groups)
	mergedCounters core.Counters
}

// workerState is one worker's private execution state: scratch areas, the
// block free list, and every accumulator the worker writes per task or per
// embedding (local embedding count, stats, aggregation map), merged into
// runState at detach — the steady-state path touches no shared cache line.
// (runState.stats is one slice of adjacent slots: counting into it directly
// made two workers share a line and the same query answer at two speeds.)
//
// The state is owned by a pool worker and attached to one request at a time
// (attach/detach): the scratch areas, block free list and emit buffer
// persist across requests — the allocation-free steady state amortises over
// the pool's life, not one run — while the request-scoped accumulators are
// flushed and cleared on every detach.
type workerState struct {
	id   int       // pool worker index
	slot int       // deque, stats and callback index in st: id, or 0 in a serial run
	st   *runState // current request; re-pointed by attach
	my   *deque    // &st.deques[slot]

	// One Scratch per matching-order depth: inline block expansion
	// re-enters Expand for depth d+1 from inside depth d's emit callback,
	// and a Scratch must never be shared by two live Expand calls.
	// Scratches self-reset per Expand, so one set serves any sequence of
	// plans and data graphs.
	scs     []*core.Scratch
	ct      core.Counters
	emitBuf []hypergraph.EdgeID
	free    []*block // recycled blocks; the allocation-free steady state
	// run collects the final EXPAND's valid candidates for one parent row,
	// so they sink as one (row, run) group instead of one call each.
	run []hypergraph.EdgeID

	localCount uint64            // embeddings sunk (no-limit path); flushed at detach
	stats      WorkerStats       // this attachment's share of st.stats[id]; flushed at detach
	groups     map[string]uint64 // per-worker AGGREGATE map; merged at detach

	// held tracks the blocks this worker owns outside any deque — the
	// popped task's block plus every partially filled block on the inline
	// expansion stack. It mirrors acquire/release/dispatch exactly, so on
	// a recovered panic releaseHeld can return every one of them to the
	// free list and LeakedBlocks stays 0. LIFO discipline makes unhold a
	// last-element pop in the common case.
	held []*block

	rowsToCancelCheck int

	busyStart time.Time
	busyOpen  bool
	busyTasks int
}

// attach points the worker at one request's shared state and sizes the
// plan-shaped buffers. The worker must be detached (or fresh).
func (w *workerState) attach(st *runState) {
	w.st = st
	w.slot = w.id
	if st.serial {
		w.slot = 0
	}
	w.my = &st.deques[w.slot]
	if n := st.nq; len(w.scs) < n {
		w.scs = append(w.scs, make([]*core.Scratch, n-len(w.scs))...)
	}
	if cap(w.emitBuf) < st.nq {
		w.emitBuf = make([]hypergraph.EdgeID, st.nq)
	}
	w.emitBuf = w.emitBuf[:st.nq]
	w.rowsToCancelCheck = 0
}

// detach flushes the worker's request-scoped accumulators into the request
// and drops the references: the batched embedding count (one atomic add
// per attachment on the no-limit path), the worker's stats, expansion
// counters and the per-worker aggregation map. It runs on every way out of
// an attachment, recovered panics included. Merges are skipped when empty so
// a late drive-by attachment (a pool worker visiting an already-finished
// request) writes nothing to state the submitter may already be reading.
func (w *workerState) detach() {
	st := w.st
	if w.localCount > 0 {
		st.count.Add(w.localCount)
		w.localCount = 0
	}
	if w.stats != (WorkerStats{}) {
		st.stats[w.slot].Add(w.stats)
		w.stats = WorkerStats{}
	}
	if w.ct != (core.Counters{}) || len(w.groups) > 0 {
		st.mergeMu.Lock()
		st.mergedCounters.Add(w.ct)
		for k, v := range w.groups {
			st.groups[k] += v
		}
		st.mergeMu.Unlock()
		w.ct = core.Counters{}
		clear(w.groups)
	}
	w.st, w.my = nil, nil
}

// runOne executes one popped task with stop handling, panic containment and
// stats accounting. This is the worker task boundary: a panic anywhere below —
// kernel step, user callback, chaos hook — is recovered here, poisons only
// this request, releases every block the worker holds, and retires the task
// so the drain protocol (pending reaching 0) still completes.
func (w *workerState) runOne(t task) {
	st := w.st
	if t.blk != nil {
		w.hold(t.blk)
	}
	if st.stopped.Load() || (st.hasCancel && st.hitDeadline()) {
		st.stopped.Store(true)
		st.pending.Add(-1)
		w.discard(t)
		return
	}
	w.openBusy()
	defer func() {
		if rec := recover(); rec != nil {
			st.poison("task", rec)
			w.releaseHeld()
		}
		st.pending.Add(-1)
		if w.busyTasks++; w.busyTasks >= busyWindow {
			w.closeBusy()
		}
	}()
	if hook := st.opts.FaultHook; hook != nil {
		hook("task")
	}
	st.execute(t, w)
	w.stats.Tasks++
}

// hold registers a block as owned by this worker outside any deque.
func (w *workerState) hold(b *block) {
	w.held = append(w.held, b)
}

// unhold removes a block from the held set (release or hand-off to a
// deque). Scans backwards: block ownership is LIFO, so the match is almost
// always the last element.
func (w *workerState) unhold(b *block) {
	for i := len(w.held) - 1; i >= 0; i-- {
		if w.held[i] == b {
			w.held = append(w.held[:i], w.held[i+1:]...)
			return
		}
	}
}

// releaseHeld returns every held block to the free list — the panic-path
// cleanup that keeps LeakedBlocks at 0 when an expansion stack unwinds
// abnormally.
func (w *workerState) releaseHeld() {
	for len(w.held) > 0 {
		w.release(w.held[len(w.held)-1])
	}
}

// poison records the first recovered panic as the request's error and stops
// the run; later panics (concurrently attached workers) only reinforce the
// stop flag.
func (st *runState) poison(point string, v any) {
	pe := &PoisonedError{Value: v, Stack: debug.Stack(), Point: point}
	if st.poisoned.CompareAndSwap(nil, pe) && st.onPanic != nil {
		st.onPanic()
	}
	st.stopped.Store(true)
}

// exceedBudget aborts the run over Options.MaxMemory: the cooperative stop
// drains queued work through the discard path, so all accounted memory is
// released rather than grown.
func (st *runState) exceedBudget() {
	st.budgetHit.Store(true)
	st.stopped.Store(true)
}

// runErr classifies an abnormal completion; poison outranks the budget
// (a poisoned run may trip the budget while draining, not vice versa).
func (st *runState) runErr() error {
	if pe := st.poisoned.Load(); pe != nil {
		return pe
	}
	if st.budgetHit.Load() {
		return ErrBudgetExceeded
	}
	return nil
}

// newRunState builds one request's execution state for a worker-slot count
// of slots: deques, stats, deadline/cancel wiring and the static TSCAN
// split of the start partition across slots. An ordered run gets one slot
// under NOSTL instead: every block then expands inline as it fills, so
// rows reach the sink in the sequential order and the Limit reservation
// keeps its first n.
func newRunState(p *core.Plan, opts Options, slots int) *runState {
	serial := opts.ordered()
	if serial {
		slots = 1
		opts.DisableStealing = true
	}
	st := &runState{
		serial: serial,
		plan:   p,
		opts:   opts,
		nq:     p.NumSteps(),
		first:  seedCandidates(p, &opts),
		deques: make([]deque, slots),
		stats:  make([]WorkerStats, slots),
	}
	if opts.Timeout > 0 {
		st.deadline = time.Now().Add(opts.Timeout)
		st.hasDL = true
	}
	st.hasCancel = st.hasDL || opts.Context != nil
	st.watch = st.hasCancel || opts.Limit > 0
	st.byGroup = opts.OnEmbedding == nil && opts.OnEmbeddingWorker == nil && opts.Filter == nil &&
		opts.Aggregate == nil && opts.Limit == 0 && opts.FaultHook == nil
	st.countOnly = st.byGroup && opts.OnGroup == nil
	if opts.MaxMemory > 0 {
		// Budget in block units; a budget below one block still admits the
		// run but trips on the first acquisition (maxLive 0), which is the
		// honest outcome for a budget that cannot hold any state.
		st.maxLive = opts.MaxMemory / int64(TaskBlockBytes(p))
		st.budgeted = true
	}
	if opts.Aggregate != nil {
		st.groups = make(map[string]uint64)
	}

	// TSCAN: split the start partition's edge range statically across
	// worker slots (the paper's coarse-grained initial assignment);
	// dynamic stealing refines it at task granularity.
	n := uint32(len(st.first))
	w := uint32(slots)
	for i := uint32(0); i < w; i++ {
		lo := i * n / w
		hi := (i + 1) * n / w
		if lo < hi {
			st.pending.Add(1)
			st.deques[i].push(task{lo: lo, hi: hi})
		}
	}
	return st
}

// result assembles the request's Result once all workers have detached.
func (st *runState) result() Result {
	return Result{
		Embeddings:    st.count.Load(),
		Counters:      st.mergedCounters,
		Workers:       st.stats,
		PeakTasks:     st.peak.Load(),
		PeakTaskBytes: st.peak.Load() * int64(TaskBlockBytes(st.plan)),
		TimedOut:      st.stopped.Load() && st.hitDeadline(),
		Groups:        st.groups,
		LeakedBlocks:  st.liveBlocks.Load(),
		Err:           st.runErr(),
	}
}

func (st *runState) hitDeadline() bool {
	if st.hasDL && !time.Now().Before(st.deadline) {
		return true
	}
	if ctx := st.opts.Context; ctx != nil {
		select {
		case <-ctx.Done():
			return true
		default:
		}
	}
	return false
}

// idleWait backs off a worker that found nothing to steal while tasks are
// still pending: a few Gosched yields first (cheap, low wake-up latency),
// then exponentially growing sleeps capped at 256µs so idle workers on
// skewed workloads stop burning a core instead of spinning on Gosched.
func idleWait(round int) {
	if round < 4 {
		runtime.Gosched()
		return
	}
	shift := round - 4
	if shift > 8 {
		shift = 8
	}
	time.Sleep(time.Duration(int64(1)<<uint(shift)) * time.Microsecond)
}

// openBusy starts a BusyTime sampling window unless one is already open.
func (w *workerState) openBusy() {
	if !w.busyOpen {
		w.busyStart = time.Now()
		w.busyOpen = true
		w.busyTasks = 0
	}
}

// closeBusy ends the current sampling window, attributing its wall time.
func (w *workerState) closeBusy() {
	if w.busyOpen {
		w.stats.BusyTime += time.Since(w.busyStart)
		w.busyOpen = false
		w.busyTasks = 0
	}
}

// discard drops a task popped after the run stopped, releasing its block.
func (w *workerState) discard(t task) {
	if t.blk != nil {
		w.release(t.blk)
	}
}

func (st *runState) trySteal(self int, rng *rand.Rand) []task {
	n := len(st.deques)
	if n == 1 {
		return nil
	}
	// Random starting victim, then scan all others once (paper: "randomly
	// pick one of the other threads with a non-empty task queue").
	off := rng.IntN(n)
	for i := 0; i < n; i++ {
		v := (off + i) % n
		if v == self {
			continue
		}
		if stolen := st.deques[v].stealHalf(); stolen != nil {
			return stolen
		}
	}
	return nil
}

// execute runs one task: a SCAN range split/emit or one block EXPAND.
func (st *runState) execute(t task, w *workerState) {
	if t.blk != nil {
		w.expandBlock(t.blk)
		w.release(t.blk)
		return
	}

	// TSCAN.
	if t.hi-t.lo > scanChunk {
		mid := t.lo + (t.hi-t.lo)/2
		st.pending.Add(2)
		w.my.push(task{lo: mid, hi: t.hi})
		w.my.push(task{lo: t.lo, hi: mid})
		w.stats.Spawned += 2
		return
	}
	if st.nq == 1 {
		run := st.first[t.lo:t.hi]
		w.ct.Valid += uint64(len(run))
		w.sinkRun(nil, run)
		return
	}
	b := w.acquire(1)
	for _, e := range st.first[t.lo:t.hi] {
		w.ct.Valid++
		b.appendRow1(e)
		if b.full() {
			w.dispatch(b)
			b = w.acquire(1)
		}
	}
	if b.n > 0 {
		w.dispatch(b)
	} else {
		w.release(b)
	}
}

// dispatch hands a filled block onward: published to the worker's deque
// (stealable, one scheduler round-trip) only while the deque is starved,
// otherwise expanded depth-first inline — the morsel scheduler's fast path.
// Publishing transfers block ownership to the deque (the popper re-holds
// it), so the block leaves this worker's held set.
func (w *workerState) dispatch(b *block) {
	st := w.st
	if !st.opts.DisableStealing && w.my.size() < publishThreshold {
		st.pending.Add(1)
		w.stats.Spawned++
		w.unhold(b)
		w.my.push(task{blk: b})
		return
	}
	w.expandBlock(b)
	w.release(b)
}

// expandBlock runs EXPAND over every row of a block. Children fill a block
// of depth+1 that is dispatched as it becomes full; at the final step the
// children are complete embeddings, collected into the worker's candidate
// run and sunk once per parent row (fusing TEXPAND with its TSINK children —
// same results, fewer scheduler round-trips), or are only counted when the
// run is countOnly. Inline dispatch recurses at most
// |E(q)| frames deep, so a worker holds at most ~2·|E(q)| blocks outside its
// deque — the Theorem VI.1 bound in blocks.
func (w *workerState) expandBlock(b *block) {
	st := w.st
	if hook := st.opts.FaultHook; hook != nil {
		hook("expand")
	}
	depth := b.depth
	sc := w.scratch(depth)

	if depth == st.nq-1 && st.countOnly {
		for i := 0; i < b.n; i++ {
			if w.shouldStop() {
				return
			}
			n := st.plan.CountValid(depth, b.row(i), sc, &w.ct)
			w.localCount += n
			w.stats.SinkCount += n
		}
		return
	}
	if depth == st.nq-1 {
		emit := func(c hypergraph.EdgeID) { w.run = append(w.run, c) }
		for i := 0; i < b.n; i++ {
			if w.shouldStop() {
				return
			}
			m := b.row(i)
			w.run = w.run[:0]
			st.plan.Expand(depth, m, sc, &w.ct, emit)
			w.sinkRun(m, w.run)
		}
		return
	}

	out := w.acquire(depth + 1)
	var cur []hypergraph.EdgeID
	emit := func(c hypergraph.EdgeID) {
		out.appendRow(cur, c)
		if out.full() {
			w.dispatch(out)
			out = w.acquire(depth + 1)
		}
	}
	for i := 0; i < b.n; i++ {
		if w.shouldStop() {
			break
		}
		cur = b.row(i)
		st.plan.Expand(depth, cur, sc, &w.ct, emit)
	}
	if out.n > 0 {
		w.dispatch(out)
	} else {
		w.release(out)
	}
}

// shouldStop polls the stop flag per row and the deadline/context every
// cancelCheckRows rows, bounding cancellation latency inside long blocks.
// The stop flag is checked before the watch gate: poison and budget aborts
// can fire on any run (watch only predicts limit/deadline/ctx), and a
// poisoned run must stop expanding promptly.
func (w *workerState) shouldStop() bool {
	st := w.st
	if st.stopped.Load() {
		return true
	}
	if !st.watch {
		return false
	}
	if st.hasCancel {
		if w.rowsToCancelCheck--; w.rowsToCancelCheck <= 0 {
			w.rowsToCancelCheck = cancelCheckRows
			if st.hitDeadline() {
				st.stopped.Store(true)
				return true
			}
		}
	}
	return false
}

// scratch returns the worker's Scratch for one matching-order depth, drawn
// from core's pool on first use. The worker keeps it until its pool closes
// and then hands it back, so the next pool — Run makes one per call — finds
// it warm.
func (w *workerState) scratch(depth int) *core.Scratch {
	if w.scs[depth] == nil {
		w.scs[depth] = core.GetScratch()
	}
	return w.scs[depth]
}

// acquire takes a block from the worker's free list (or allocates one) and
// prepares it for rows of the given depth, updating the live-block peak and
// charging the request's memory budget. The acquired block joins the
// worker's held set until released or published.
func (w *workerState) acquire(depth int) *block {
	var b *block
	if n := len(w.free); n > 0 {
		b = w.free[n-1]
		w.free = w.free[:n-1]
	} else {
		b = &block{buf: make([]hypergraph.EdgeID, 0, morselRows*w.st.nq)}
	}
	b.reset(depth)
	st := w.st
	cur := st.liveBlocks.Add(1)
	if cur > st.peak.Load() {
		st.notePeak(cur)
	}
	if st.budgeted && cur > st.maxLive {
		// Over budget: stop the run. The block itself is still handed to
		// the caller (its expansion loop re-checks shouldStop and unwinds
		// through the normal release path), so the overshoot is bounded by
		// one block per attached worker.
		st.exceedBudget()
	}
	w.hold(b)
	return b
}

// release returns a drained block to the free list. Stolen blocks land in
// the thief's list — ownership follows execution, so no locking is needed.
func (w *workerState) release(b *block) {
	w.unhold(b)
	w.st.liveBlocks.Add(-1)
	if len(w.free) < maxFreeBlocks {
		w.free = append(w.free, b)
	}
}

func (st *runState) notePeak(cur int64) {
	for {
		old := st.peak.Load()
		if cur <= old || st.peak.CompareAndSwap(old, cur) {
			return
		}
	}
}

// sinkRun consumes the embeddings prefix+[c], c in run — one parent row's
// share of the final EXPAND. A byGroup run counts them and hands them on
// whole; every other run loops them through the per-row sink.
func (w *workerState) sinkRun(prefix, run []hypergraph.EdgeID) {
	st := w.st
	if !st.byGroup {
		d := len(prefix)
		copy(w.emitBuf, prefix)
		for _, c := range run {
			w.emitBuf[d] = c
			st.sink(w.emitBuf[:d+1], w)
		}
		return
	}
	if len(run) == 0 || st.stopped.Load() {
		return
	}
	w.localCount += uint64(len(run))
	w.stats.SinkCount += uint64(len(run))
	if st.opts.OnGroup != nil {
		st.opts.OnGroup(w.slot, prefix, run)
	}
}

// sink consumes one complete embedding: TSINK (paper §VI-A), plus the
// FILTER and AGGREGATE extension operators. The path is sharded per worker:
// without a Limit the count is worker-local (flushed at exit), aggregation
// goes to a worker-local map, and OnEmbeddingWorker runs without any lock.
// With a Limit the global atomic acts as a cooperative budget — each worker
// reserves a slot and the racing over-reservation is trimmed back — keeping
// the reported count and callback deliveries exactly Limit.
func (st *runState) sink(m []hypergraph.EdgeID, w *workerState) {
	if st.stopped.Load() {
		return
	}
	if hook := st.opts.FaultHook; hook != nil {
		hook("sink")
	}
	if st.opts.Filter != nil && !st.opts.Filter(m) {
		return
	}
	if st.opts.Limit > 0 {
		n := st.count.Add(1)
		if n > st.opts.Limit {
			// A concurrent sink raced past the limit; undo and drop so
			// the reported count never exceeds it.
			st.count.Add(^uint64(0))
			st.stopped.Store(true)
			return
		}
		if n == st.opts.Limit {
			st.stopped.Store(true)
		}
	} else {
		w.localCount++
	}
	w.stats.SinkCount++
	if st.opts.Aggregate != nil {
		if w.groups == nil {
			w.groups = make(map[string]uint64, 16)
		}
		w.groups[st.opts.Aggregate(m)]++
	}
	if st.opts.OnEmbeddingWorker != nil {
		st.opts.OnEmbeddingWorker(w.slot, m)
	}
	if st.opts.OnGroup != nil {
		st.opts.OnGroup(w.slot, m[:len(m)-1], m[len(m)-1:])
	}
	if st.opts.OnEmbedding != nil {
		// Deferred unlock so a panicking callback cannot wedge the sink
		// mutex for the workers still draining this (now poisoned) run.
		st.sinkMu.Lock()
		defer st.sinkMu.Unlock()
		st.opts.OnEmbedding(m)
	}
}
