package core

import "hgmatch/internal/hypergraph"

// EnumerateSequential runs the full HGMatch framework (Algorithm 2) on the
// calling goroutine with depth-first task order, invoking emit for every
// embedding. The slice passed to emit is reused; callers must copy it if
// they retain it. It returns the instrumentation counters.
//
// This is the single-thread reference used by tests and the single-thread
// experiments; the parallel engine in internal/engine produces identical
// results with p workers.
func (p *Plan) EnumerateSequential(emit func(m []hypergraph.EdgeID)) Counters {
	_, ct := p.enumerate(emit)
	return ct
}

// CountSequential counts embeddings without materialising them: the last
// matching-order step only counts its valid candidates (CountValid).
func (p *Plan) CountSequential() (uint64, Counters) {
	return p.enumerate(nil)
}

// enumerate walks the embedding tree depth first. With emit nil it counts
// the leaves instead of visiting them; the count is only returned then.
func (p *Plan) enumerate(emit func(m []hypergraph.EdgeID)) (count uint64, ct Counters) {
	if p.Empty {
		return 0, ct
	}
	// One scratch per depth: Expand is in the middle of iterating its own
	// scratch buffers when emit recurses, so recursion levels must not
	// share a Scratch.
	n := p.NumSteps()
	scratches := make([]*Scratch, n)
	for i := range scratches {
		scratches[i] = GetScratch()
	}
	defer func() {
		for _, sc := range scratches {
			PutScratch(sc)
		}
	}()
	m := make([]hypergraph.EdgeID, n)
	var rec func(depth int)
	rec = func(depth int) {
		switch {
		case depth == n:
			if emit != nil {
				emit(m)
			} else {
				count++ // single-hyperedge query: the scan is the leaf
			}
		case depth == n-1 && emit == nil:
			count += p.CountValid(depth, m, scratches[depth], &ct)
		default:
			p.Expand(depth, m, scratches[depth], &ct, func(c hypergraph.EdgeID) {
				m[depth] = c
				rec(depth + 1)
			})
		}
	}
	for _, e := range p.InitialCandidates() {
		m[0] = e
		ct.Valid++ // first-hyperedge matches are valid by signature equality
		rec(1)
	}
	return count, ct
}
