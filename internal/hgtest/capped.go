package hgtest

import (
	"fmt"
	"math/rand"
	"slices"

	"hgmatch/internal/baseline"
	"hgmatch/internal/core"
	"hgmatch/internal/hypergraph"
)

// CappedCase is one query of a capped-answer battery with its whole answer
// in the sequential order.
type CappedCase struct {
	Query *hypergraph.Hypergraph
	Plan  *core.Plan
	Rows  [][]hypergraph.EdgeID // EnumerateSequential's rows, ascending
}

// Prefix returns the answer a run capped at limit must stream: the first
// limit rows of the sequential order.
func (c CappedCase) Prefix(limit uint64) [][]hypergraph.EdgeID {
	return c.Rows[:min(limit, uint64(len(c.Rows)))]
}

// Limits returns the caps a battery runs c under: binding at one row,
// inside a block, beyond a block, and one past the whole answer.
func (c CappedCase) Limits() []uint64 {
	return []uint64{1, 7, 100, uint64(len(c.Rows)) + 1}
}

// CappedCases samples up to two random-walk queries of each size 1-4 from
// h with at most maxRows embeddings, plus a one-edge query on every table
// tombstones emptied (its answer is empty), and enumerates each answer
// sequentially. It fails if a sequential answer is not in ascending tuple
// order or its size differs from the match-by-vertex baseline's count.
func CappedCases(h *hypergraph.Hypergraph, seed int64, maxRows uint64) ([]CappedCase, error) {
	rng := rand.New(rand.NewSource(seed))
	var queries []*hypergraph.Hypergraph
	for nq := 1; nq <= 4; nq++ {
		kept := 0
		for try := 0; try < 30 && kept < 2; try++ {
			q := ConnectedQueryFromWalk(rng, h, nq)
			if q == nil {
				continue
			}
			p, err := core.NewPlan(q, h)
			if err != nil {
				return nil, err
			}
			if n, _ := p.CountSequential(); n <= maxRows {
				queries = append(queries, q)
				kept++
			}
		}
	}
	for i := 0; i < h.NumPartitions(); i++ {
		if part := h.Partition(i); len(part.Edges) == 0 {
			b := hypergraph.NewBuilder()
			vs := make([]uint32, len(part.Sig))
			for j, l := range part.Sig {
				vs[j] = b.AddVertex(l)
			}
			b.AddEdge(vs...)
			queries = append(queries, b.MustBuild())
		}
	}
	out := make([]CappedCase, 0, len(queries))
	for _, q := range queries {
		p, err := core.NewPlan(q, h)
		if err != nil {
			return nil, err
		}
		var rows [][]hypergraph.EdgeID
		p.EnumerateSequential(func(m []hypergraph.EdgeID) { rows = append(rows, slices.Clone(m)) })
		if !slices.IsSortedFunc(rows, slices.Compare) {
			return nil, fmt.Errorf("hgtest: %d-edge query: sequential order is not ascending", q.NumEdges())
		}
		if n := baseline.Match(q, h, baseline.Options{}).Embeddings; n != uint64(len(rows)) {
			return nil, fmt.Errorf("hgtest: %d-edge query: %d sequential rows, baseline counts %d", q.NumEdges(), len(rows), n)
		}
		out = append(out, CappedCase{Query: q, Plan: p, Rows: rows})
	}
	return out, nil
}
