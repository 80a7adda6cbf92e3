package engine

import (
	"sync"
	"time"

	"hgmatch/internal/core"
	"hgmatch/internal/hypergraph"
)

// runBFS executes the plan breadth-first and level-synchronously: the full
// set of partial embeddings of each prefix length is materialised before
// the next EXPAND runs (paper Algorithm 2 taken literally, and the
// PGX.ISO-style scheduling discussed in §VI-B). Parallelism comes from
// chunking each level across workers. Memory grows with the largest
// intermediate level — exactly the behaviour Exp-5 (Fig. 11) contrasts
// with the bounded task scheduler.
func runBFS(p *core.Plan, opts Options) Result {
	nq := p.NumSteps()

	first := seedCandidates(p, &opts)
	level := make([][]hypergraph.EdgeID, 0, len(first))
	for _, e := range first {
		m := make([]hypergraph.EdgeID, 1, nq)
		m[0] = e
		level = append(level, m)
	}

	res := Result{Workers: make([]WorkerStats, opts.Workers)}
	peakEmb := int64(len(level))

	st := &runState{plan: p, opts: opts, nq: nq, stats: res.Workers}
	if opts.Timeout > 0 {
		st.deadline = time.Now().Add(opts.Timeout)
		st.hasDL = true
	}
	st.hasCancel = st.hasDL || opts.Context != nil
	st.watch = st.hasCancel || opts.Limit > 0
	if opts.Aggregate != nil {
		st.groups = make(map[string]uint64)
	}

	// The BFS baseline's memory is its materialised level, so the budget is
	// charged per level at the plan's per-embedding task size (the same
	// accounting PeakTaskBytes reports) rather than in block units.
	overBudget := func(embeddings int) bool {
		if opts.MaxMemory <= 0 {
			return false
		}
		if int64(embeddings)*int64(p.TaskBytes()) > opts.MaxMemory {
			st.exceedBudget()
			return true
		}
		return false
	}

	if !overBudget(len(level)) {
		for depth := 1; depth < nq && len(level) > 0; depth++ {
			if st.hitDeadline() {
				res.TimedOut = true
				break
			}
			next := parallelExpandLevel(p, st, &res, level, depth, opts.Workers)
			level = next
			if int64(len(level)) > peakEmb {
				peakEmb = int64(len(level))
			}
			if overBudget(len(level)) || st.stopped.Load() {
				break
			}
		}
	}

	// Sink the final level (complete embeddings). The sharded sink needs a
	// workerState even on this single-threaded tail; its local count, stats
	// and aggregation map are merged by detach. The recover wrapper contains
	// a panicking sink callback: runBFS runs on the submitter's goroutine,
	// so without it the panic would escape Run itself.
	w0 := &workerState{id: 0, st: st}
	func() {
		defer func() {
			if rec := recover(); rec != nil {
				st.poison("bfs", rec)
			}
		}()
		for _, m := range level {
			if len(m) == nq {
				st.sink(m, w0)
			}
		}
	}()
	w0.detach()
	res.Embeddings = st.count.Load()
	res.Counters = st.mergedCounters
	res.Counters.Valid += uint64(len(first))
	res.PeakTasks = peakEmb
	res.PeakTaskBytes = peakEmb * int64(p.TaskBytes())
	res.Groups = st.groups
	res.TimedOut = res.TimedOut || st.hitDeadline()
	res.Err = st.runErr()
	return res
}

// parallelExpandLevel expands every partial embedding of one level,
// returning the concatenated next level. Workers process disjoint chunks
// and buffer locally, so only the final concatenation synchronises.
func parallelExpandLevel(p *core.Plan, st *runState, res *Result, level [][]hypergraph.EdgeID, depth, workers int) [][]hypergraph.EdgeID {
	outs := make([][][]hypergraph.EdgeID, workers)
	var wg sync.WaitGroup
	n := len(level)
	nq := p.NumSteps()
	for w := 0; w < workers; w++ {
		lo := w * n / workers
		hi := (w + 1) * n / workers
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			// Expansion runs plan kernels and (via emit) no user code, but
			// the chaos battery injects panics here too: contain them so a
			// BFS worker goroutine can never kill the process.
			defer func() {
				if rec := recover(); rec != nil {
					st.poison("bfs", rec)
				}
			}()
			sc := core.GetScratch()
			defer core.PutScratch(sc)
			var ct core.Counters
			var out [][]hypergraph.EdgeID
			t0 := time.Now()
			for _, m := range level[lo:hi] {
				if st.stopped.Load() {
					break
				}
				p.Expand(depth, m, sc, &ct, func(c hypergraph.EdgeID) {
					nm := make([]hypergraph.EdgeID, depth+1, nq)
					copy(nm, m)
					nm[depth] = c
					out = append(out, nm)
				})
				res.Workers[w].Tasks++
			}
			res.Workers[w].BusyTime += time.Since(t0)
			outs[w] = out
			st.mergeMu.Lock()
			st.mergedCounters.Add(ct)
			st.mergeMu.Unlock()
		}(w, lo, hi)
	}
	wg.Wait()
	var next [][]hypergraph.EdgeID
	for _, o := range outs {
		next = append(next, o...)
	}
	return next
}
