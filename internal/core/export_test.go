package core

import "hgmatch/internal/hypergraph"

// This file exports, to the external core_test package only, helpers that
// no non-test code calls.

// CandidatesOnly runs Algorithm 4 without validation and returns the raw
// candidate set (post intersection and duplicate-edge filter, before the
// Observation V.5 / Algorithm 5 checks).
func (p *Plan) CandidatesOnly(depth int, m []hypergraph.EdgeID) []hypergraph.EdgeID {
	return p.CandidatesInto(nil, depth, m, NewScratch())
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

// CandidatesInto is CandidatesOnly appending to dst, computed in sc.
func (p *Plan) CandidatesInto(dst []hypergraph.EdgeID, depth int, m []hypergraph.EdgeID, sc *Scratch) []hypergraph.EdgeID {
	st := &p.steps[depth]
	for _, c := range p.candidates(st, depth, m, sc) {
		if !st.reuses(m, c) {
			dst = append(dst, c)
		}
	}
	return dst
}

// StepScansBase reports whether step i scans its table's base members
// (the table carries no index).
func (p *Plan) StepScansBase(i int) bool {
	return p.steps[i].scanBase
}
