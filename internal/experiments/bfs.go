package experiments

import (
	"time"

	"hgmatch/internal/core"
	"hgmatch/internal/hypergraph"
)

// BFSResult is the outcome of one breadth-first run.
type BFSResult struct {
	Embeddings uint64 // size of the final level (complete embeddings)
	PeakLevel  int64  // largest level materialised, in partial embeddings
	PeakBytes  int64  // PeakLevel at the plan's per-embedding task size
}

// RunBFS executes p breadth-first and level-synchronously: every partial
// embedding of one prefix length is materialised before the next EXPAND
// runs (paper Algorithm 2 taken literally, the PGX.ISO-style scheduling of
// §VI-B). Its memory grows with the widest level, which is what Exp-5
// (Fig. 11) contrasts with the task scheduler's bounded live set. It runs
// sequentially: the per-level peak does not depend on the worker count, so
// there is nothing to parallelise for the figure. The timeout is checked
// once per level; a run it cuts short reports the peak so far and no
// embeddings.
func RunBFS(p *core.Plan, timeout time.Duration) BFSResult {
	start := time.Now()
	nq := p.NumSteps()
	// A level is a flat array of rows of width depth.
	level := append([]hypergraph.EdgeID(nil), p.InitialCandidates()...)
	res := BFSResult{PeakLevel: int64(len(level))}
	sc := core.GetScratch()
	defer core.PutScratch(sc)
	var ct core.Counters
	for depth := 1; depth < nq && len(level) > 0; depth++ {
		if timeout > 0 && time.Since(start) > timeout {
			level = nil // cut short: no complete embeddings
			break
		}
		var next []hypergraph.EdgeID
		for i := 0; i < len(level); i += depth {
			m := level[i : i+depth]
			p.Expand(depth, m, sc, &ct, func(c hypergraph.EdgeID) {
				next = append(append(next, m...), c)
			})
		}
		level = next
		res.PeakLevel = max(res.PeakLevel, int64(len(level)/(depth+1)))
	}
	res.Embeddings = uint64(len(level) / nq)
	res.PeakBytes = res.PeakLevel * int64(p.TaskBytes())
	return res
}
