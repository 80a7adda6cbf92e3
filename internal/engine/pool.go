package engine

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"hgmatch/internal/core"
)

// fairQuantum is how many tasks a pool worker executes for one request
// before re-ranking the active requests by virtual time. Small enough that
// a newly arrived request waits at most one quantum per worker before
// receiving slots, large enough to amortise the attach/detach and ranking
// cost over several morsels.
const fairQuantum = 8

// maxWeight caps a request's fair-share weight so the integer
// cross-multiplication in fairPick cannot overflow for any realistic
// slot count.
const maxWeight = 1 << 20

// Pool is a morsel worker set shared by all in-flight requests, and the
// engine's only execution path (Run is a pool of one request). Each Submit
// registers the request's task queues with the pool; the persistent
// workers divide their morsel slots across active requests by weighted
// fair scheduling (lowest virtual time first, vt = slots/weight), while
// within a request they run the paper's scheduler — per-worker LIFO
// deques, dynamic stealing, depth-first inline expansion. Per-worker block
// free lists and scratch areas persist across requests, so the
// allocation-free steady state amortises over the pool's life instead of
// one run.
type Pool struct {
	workers int

	mu     sync.Mutex
	cond   *sync.Cond
	reqs   []*poolReq
	closed bool
	wg     sync.WaitGroup

	submitted atomic.Uint64
	completed atomic.Uint64
	tasks     atomic.Uint64
	panics    atomic.Uint64
}

// poolReq is one request registered with the pool.
type poolReq struct {
	st     *runState
	weight uint64 // fair-share weight (>= 1)
	maxPar int32  // max workers attached at once (request's Workers cap)

	slots    atomic.Uint64 // morsel slots consumed; vt = slots/weight
	attached atomic.Int32  // workers currently attached
	finished atomic.Bool   // set once by the worker that retires the last task
	doneOnce sync.Once
	drained  chan struct{} // closed when finished and the last worker detached
}

// PoolStats is a point-in-time snapshot of the pool's scheduler counters.
type PoolStats struct {
	Workers   int    // worker goroutines in the pool
	Active    int    // requests currently registered
	Submitted uint64 // requests ever accepted by Submit
	Completed uint64 // requests fully drained
	Tasks     uint64 // morsel tasks executed across all requests
	// PanicsRecovered counts requests poisoned by a recovered worker
	// panic (one per poisoned request, not per panic — later panics on an
	// already-poisoned request are recovered silently). A non-zero value
	// is always a bug worth reporting; the pool survived it.
	PanicsRecovered uint64
}

// NewPool starts a shared pool of the given size (values < 1 are clamped
// to 1). Close releases the workers.
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{workers: workers}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.workerLoop(i)
	}
	return p
}

// Workers returns the pool's worker count — the number of distinct worker
// indexes a per-worker sink (Options.OnEmbeddingWorker) can observe.
func (p *Pool) Workers() int { return p.workers }

// Stats returns a snapshot of the pool's scheduler counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	active := len(p.reqs)
	p.mu.Unlock()
	return PoolStats{
		Workers:         p.workers,
		Active:          active,
		Submitted:       p.submitted.Load(),
		Completed:       p.completed.Load(),
		Tasks:           p.tasks.Load(),
		PanicsRecovered: p.panics.Load(),
	}
}

// Close stops accepting requests (later Submits return ErrPoolClosed),
// waits for registered requests to drain and joins the workers.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
	p.wg.Wait()
}

// Submit runs one request on the shared pool and blocks until its result
// is complete. Options are honoured with pool semantics: Workers caps how
// many pool workers may serve the request at once (0 or oversize means all
// of them), Weight sets the fair-share weight. Under DisableStealing each
// worker serves only its own deque slot of the static split. A capped run
// that delivers rows is served by one worker at a time (see
// Options.Limit). Submit on a closed pool refuses the request with
// Result.Err = ErrPoolClosed (which wraps hgio.ErrShuttingDown) — the same
// shutdown sentinel the registry reports, so callers classify both alike.
func (p *Pool) Submit(plan *core.Plan, opts Options) Result {
	if opts.Workers <= 0 || opts.Workers > p.workers {
		opts.Workers = p.workers
	}
	if opts.ordered() {
		opts.Workers = 1 // one deque, served by one worker at a time
	}
	if p.isClosed() {
		return Result{Err: ErrPoolClosed}
	}
	start := time.Now()
	if plan.Empty || len(seedCandidates(plan, &opts)) == 0 {
		return Result{Elapsed: time.Since(start)}
	}
	weight := uint64(1)
	if opts.Weight > 1 {
		weight = uint64(opts.Weight)
		if weight > maxWeight {
			weight = maxWeight
		}
	}
	r := &poolReq{
		weight:  weight,
		maxPar:  int32(opts.Workers),
		drained: make(chan struct{}),
	}

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return Result{Err: ErrPoolClosed}
	}
	// Task queues are sized to the whole pool: any worker may serve any
	// request, so every worker needs its own deque slot in every request
	// (an ordered run has the one slot they all serve, see newRunState).
	st := newRunState(plan, opts, p.workers)
	st.onPanic = func() { p.panics.Add(1) }
	r.st = st
	// Virtual-time normalisation: a new request starts at the minimum vt
	// among active requests, not at zero — otherwise a newcomer would
	// monopolise the pool until it caught up with long-running requests.
	if len(p.reqs) > 0 {
		m := p.reqs[minVT(p.reqs)]
		r.slots.Store(m.slots.Load() / m.weight * weight)
	}
	p.reqs = append(p.reqs, r)
	p.mu.Unlock()

	p.submitted.Add(1)
	p.cond.Broadcast()
	<-r.drained

	res := st.result()
	res.Elapsed = time.Since(start)
	return res
}

// minVT returns the index of the request with the lowest virtual time.
// Callers hold p.mu.
func minVT(reqs []*poolReq) int {
	best := 0
	for i := 1; i < len(reqs); i++ {
		if reqs[i].slots.Load()*reqs[best].weight < reqs[best].slots.Load()*reqs[i].weight {
			best = i
		}
	}
	return best
}

// fairPick returns the index of the request with the minimum virtual time
// slots[i]/weights[i], compared by cross-multiplication so the arithmetic
// stays in integers; ties resolve to the lowest index (registration
// order). It is a pure function of its arguments, which makes the fair
// scheduler testable with counted slots instead of wall clock.
func fairPick(slots, weights []uint64) int {
	best := 0
	for i := 1; i < len(slots); i++ {
		if slots[i]*weights[best] < slots[best]*weights[i] {
			best = i
		}
	}
	return best
}

// workerLoop is one persistent pool worker: snapshot the active requests,
// serve them in virtual-time order one quantum at a time, back off when no
// request has runnable work, exit when the pool is closed and drained. An
// exiting worker hands its scratch areas back to core's pool before Close
// returns, so the per-call pools of Run keep reusing warm ones.
func (p *Pool) workerLoop(id int) {
	defer p.wg.Done()
	w := &workerState{id: id}
	defer func() {
		for _, sc := range w.scs {
			if sc != nil {
				core.PutScratch(sc)
			}
		}
	}()
	// PCG seeds in two words; math/rand's source seeds a 607-word table,
	// ~10 µs that Run's per-call pool would pay per worker per call.
	rng := rand.New(rand.NewPCG(uint64(id), 0x9E3779B97F4A7C15))
	var (
		cands   []*poolReq
		slots   []uint64
		weights []uint64
	)
	idleRounds := 0
	for {
		cands = p.snapshot(cands[:0])
		if len(cands) == 0 {
			if !p.waitWork() {
				return
			}
			idleRounds = 0
			continue
		}
		slots = slots[:0]
		weights = weights[:0]
		for _, r := range cands {
			slots = append(slots, r.slots.Load())
			weights = append(weights, r.weight)
		}
		did := false
		for len(cands) > 0 {
			i := fairPick(slots, weights)
			if p.runQuantum(w, cands[i], rng) {
				did = true
				break // re-snapshot so vt ordering reflects the new slots
			}
			last := len(cands) - 1
			cands[i], cands[last] = cands[last], cands[i]
			slots[i], slots[last] = slots[last], slots[i]
			weights[i], weights[last] = weights[last], weights[i]
			cands, slots, weights = cands[:last], slots[:last], weights[:last]
		}
		if did {
			idleRounds = 0
		} else {
			idleWait(idleRounds)
			idleRounds++
		}
	}
}

// isClosed reports whether Close has begun.
func (p *Pool) isClosed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}

// snapshot copies the active request list under the lock.
func (p *Pool) snapshot(buf []*poolReq) []*poolReq {
	p.mu.Lock()
	buf = append(buf, p.reqs...)
	p.mu.Unlock()
	return buf
}

// waitWork blocks until a request is registered or the pool is closed.
// Returns false when the worker should exit (closed and nothing left).
func (p *Pool) waitWork() bool {
	p.mu.Lock()
	for len(p.reqs) == 0 && !p.closed {
		p.cond.Wait()
	}
	ok := len(p.reqs) > 0 || !p.closed
	p.mu.Unlock()
	return ok
}

// runQuantum attaches the worker to one request and executes up to
// fairQuantum tasks from it (popping its own deque slot first, stealing
// within the request otherwise unless it disables stealing), then detaches. Returns whether any task
// ran. The worker whose task retires the request's pending count to zero
// finishes it; the last worker to detach from a finished request closes
// its drained channel — after its own detach, so the submitter never
// observes a partial merge.
func (p *Pool) runQuantum(w *workerState, r *poolReq, rng *rand.Rand) (did bool) {
	if r.finished.Load() {
		return false
	}
	if r.attached.Add(1) > r.maxPar {
		p.lastOut(r)
		return false
	}
	st := r.st
	w.attach(st)
	executed := 0
	defer p.lastOut(r)
	defer func() {
		if rec := recover(); rec != nil {
			// Insurance containment: task-level panics are already
			// recovered inside runOne, so anything arriving here escaped
			// the task boundary (scheduler internals, the steal path).
			// Poison the request and force-finish it so the submitter
			// unblocks and the pool worker survives. Unlike the task-level
			// path this cannot drain the request's still-queued blocks —
			// they are reported as LeakedBlocks on the already-failed
			// request — but no other request and no worker is harmed.
			st.poison("pool", rec)
			w.releaseHeld()
			p.finish(r)
			did = executed > 0
		}
		w.closeBusy()
		w.detach()
		if executed > 0 {
			p.tasks.Add(uint64(executed))
		}
	}()
	for executed < fairQuantum {
		t, ok := w.my.pop()
		if !ok {
			// Under NOSTL tasks never migrate: an empty own deque means
			// this worker's share of the request is done.
			var stolen []task
			if !st.opts.DisableStealing {
				stolen = st.trySteal(w.slot, rng)
			}
			if stolen == nil {
				if st.pending.Load() == 0 {
					p.finish(r)
				}
				break
			}
			w.stats.Steals++
			w.stats.Stolen += uint64(len(stolen))
			w.my.pushN(stolen)
			continue
		}
		w.runOne(t)
		executed++
		r.slots.Add(1)
		if st.pending.Load() == 0 {
			p.finish(r)
			break
		}
	}
	return executed > 0
}

// lastOut decrements the request's attach count and, when this was the
// last worker out of a finished request, closes the drained channel.
func (p *Pool) lastOut(r *poolReq) {
	if r.attached.Add(-1) == 0 && r.finished.Load() {
		r.doneOnce.Do(func() { close(r.drained) })
	}
}

// finish marks a request complete (first caller wins) and unregisters it.
func (p *Pool) finish(r *poolReq) {
	if !r.finished.CompareAndSwap(false, true) {
		return
	}
	p.completed.Add(1)
	p.mu.Lock()
	for i, q := range p.reqs {
		if q == r {
			p.reqs = append(p.reqs[:i], p.reqs[i+1:]...)
			break
		}
	}
	empty := len(p.reqs) == 0
	p.mu.Unlock()
	if empty {
		// Wake workers parked in waitWork so a closed pool can drain.
		p.cond.Broadcast()
	}
}
