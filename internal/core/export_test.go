package core

import "hgmatch/internal/hypergraph"

// This file exports, to the external core_test package only, helpers that
// no non-test code calls.

// CandidatesOnly runs Algorithm 4 without validation and returns the raw
// candidate set (post intersection and duplicate-edge filter, before the
// Observation V.5 / Algorithm 5 checks).
func (p *Plan) CandidatesOnly(depth int, m []hypergraph.EdgeID) []hypergraph.EdgeID {
	st := &p.steps[depth]
	var out []hypergraph.EdgeID
	for _, c := range p.candidates(st, depth, m, NewScratch()) {
		if !st.reuses(m, c) {
			out = append(out, c)
		}
	}
	return out
}

// StepSignature exposes S(ϕ[i]) for diagnostics.
func (p *Plan) StepSignature(i int) hypergraph.Signature {
	return p.steps[i].sig
}

// StepWordParallel reports whether step i runs the word-parallel kernels
// on its table's bitmap sidecar.
func (p *Plan) StepWordParallel(i int) bool {
	return p.steps[i].useBitmaps
}
