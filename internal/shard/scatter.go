package shard

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hgmatch/internal/core"
	"hgmatch/internal/engine"
	"hgmatch/internal/hypergraph"
)

// unitEdges is the scatter granularity: how many SCAN candidates one
// sub-run seeds. 1024 seeds amortise a Pool.Submit round-trip over
// thousands of expansions while still yielding enough units to overlap on
// the pool.
const unitEdges = 1024

// emptyScan is the explicit empty seed set submitted for shards that own
// no SCAN candidate; those sub-runs short-circuit without touching the
// engine.
var emptyScan = []hypergraph.EdgeID{}

// Scatter runs p on the shared pool split into sub-runs by SCAN seed and
// returns one merged Result equal to pool.Submit(p, opts)'s:
//
//   - The owning shard's SCAN candidates are split into unitEdges-sized
//     units, each submitted as its own sub-run (Options.Scan), up to
//     pool.Workers() at a time; every embedding is rooted at exactly one
//     seed, so the union is exact. Non-owner shards get explicit empty
//     sub-runs.
//   - Embeddings, counters, groups, per-worker stats and LeakedBlocks sum
//     across sub-runs; TimedOut ORs; the first Err wins and stops new
//     units from starting. The peaks add the largest per-unit peaks of as
//     many units as ran at once — an upper bound on the concurrent
//     high-water mark.
//
// A run with a Limit or a group callback is submitted whole instead: the
// engine defines its answer (a capped run keeps the first Limit rows of
// the sequential order) and the split would add nothing.
//
// opts.Timeout becomes one context deadline shared by every sub-run (a
// per-sub-run timeout would restart the clock on every unit); no unit
// starts once it has passed.
func Scatter(pool *engine.Pool, g *Graph, p *core.Plan, opts engine.Options) engine.Result {
	if opts.Limit > 0 || opts.OnGroup != nil {
		return pool.Submit(p, opts)
	}
	start := time.Now()
	scan := opts.Scan
	if scan == nil && !p.Empty {
		scan = p.InitialCandidates()
	}
	var res engine.Result
	if p.Empty || len(scan) == 0 {
		res.Elapsed = time.Since(start)
		return res
	}
	if opts.Timeout > 0 {
		ctx := opts.Context
		if ctx == nil {
			ctx = context.Background()
		}
		ctx, cancel := context.WithTimeout(ctx, opts.Timeout)
		defer cancel()
		opts.Context, opts.Timeout = ctx, 0
	}

	// Every seed comes from the plan's start partition — one signature
	// table — so one shard owns the entire scan.
	owner := g.OwnerOf(p.Data, scan[0])
	for s := 0; s < g.n; s++ {
		if s != owner {
			sub := opts
			sub.Scan = emptyScan
			mergeResult(&res, pool.Submit(p, sub))
		}
	}

	units := (len(scan) + unitEdges - 1) / unitEdges
	lanes := min(pool.Workers(), units)
	outs := make([]engine.Result, units)
	var next atomic.Int64
	var halt atomic.Bool
	var wg sync.WaitGroup
	for range lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !halt.Load() && !ctxDone(opts.Context) {
				i := int(next.Add(1)) - 1
				if i >= units {
					return
				}
				sub := opts
				sub.Scan = scan[i*unitEdges : min((i+1)*unitEdges, len(scan))]
				if outs[i] = pool.Submit(p, sub); outs[i].Err != nil {
					halt.Store(true)
				}
			}
		}()
	}
	wg.Wait()

	// mergeResult max-merges the peaks, which under-reports units that
	// ran side by side: sum the lanes largest per-unit peaks instead.
	peakTasks := make([]int64, units)
	peakBytes := make([]int64, units)
	for i, o := range outs {
		mergeResult(&res, o)
		peakTasks[i], peakBytes[i] = o.PeakTasks, o.PeakTaskBytes
	}
	res.PeakTasks = max(res.PeakTasks, topSum(peakTasks, lanes))
	res.PeakTaskBytes = max(res.PeakTaskBytes, topSum(peakBytes, lanes))
	res.TimedOut = res.TimedOut || ctxDone(opts.Context)
	res.Elapsed = time.Since(start)
	return res
}

// topSum sums the k largest values.
func topSum(vals []int64, k int) int64 {
	sort.Slice(vals, func(i, j int) bool { return vals[i] > vals[j] })
	var s int64
	for _, v := range vals[:min(k, len(vals))] {
		s += v
	}
	return s
}

// mergeResult folds one sub-run into the merged result. Peaks merge by
// max; Err merges first-wins, so the first faulted sub-run classifies the
// scatter.
func mergeResult(dst *engine.Result, sub engine.Result) {
	if dst.Err == nil {
		dst.Err = sub.Err
	}
	dst.Embeddings += sub.Embeddings
	dst.Counters.Add(sub.Counters)
	for len(dst.Workers) < len(sub.Workers) {
		dst.Workers = append(dst.Workers, engine.WorkerStats{})
	}
	for i, ws := range sub.Workers {
		dst.Workers[i].Add(ws)
	}
	if len(sub.Groups) > 0 && dst.Groups == nil {
		dst.Groups = make(map[string]uint64, len(sub.Groups))
	}
	for k, v := range sub.Groups {
		dst.Groups[k] += v
	}
	dst.PeakTasks = max(dst.PeakTasks, sub.PeakTasks)
	dst.PeakTaskBytes = max(dst.PeakTaskBytes, sub.PeakTaskBytes)
	dst.TimedOut = dst.TimedOut || sub.TimedOut
	dst.LeakedBlocks += sub.LeakedBlocks
}

func ctxDone(ctx context.Context) bool {
	return ctx != nil && ctx.Err() != nil
}
