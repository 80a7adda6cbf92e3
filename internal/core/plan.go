package core

import (
	"fmt"

	"hgmatch/internal/hypergraph"
	"hgmatch/internal/setops"
)

// maxQueryEdges bounds |E(q)| so that edge-position sets in vertex profiles
// fit one machine word. The paper's largest workload uses 6 query
// hyperedges; 64 is far beyond practical subhypergraph queries.
const maxQueryEdges = 64

// profile is a vertex profile (Definition V.3) in compiled form: the vertex
// label and the set of incident matched hyperedges encoded as a bitmask of
// matching-order positions. Because the plan aligns partial embeddings with
// the matching order, "set of matched data hyperedges he_q'(u) mapped
// through f" on the query side and "incident hyperedges within Hm'" on the
// data side both canonicalise to the same position mask.
type profile struct {
	label hypergraph.Label
	mask  uint64
}

func profileLess(a, b profile) bool {
	if a.label != b.label {
		return a.label < b.label
	}
	return a.mask < b.mask
}

// uReq describes one query vertex u ∈ e ∩ eq of an adjacency group
// (Algorithm 4 line 4): matched data vertices must carry label and have
// exactly prefDeg incident hyperedges in the current partial embedding
// (Observation V.4, d_Hm(v) = d_q'(u)).
type uReq struct {
	label   hypergraph.Label
	prefDeg uint8
}

// adjGroup collects, for one previous matching-order position pos whose
// query edge is adjacent to the current one, the vertex requirements of
// Algorithm 4 lines 3-6.
type adjGroup struct {
	pos int
	us  []uReq
}

// step is the compiled expansion logic for one matching-order position
// i ≥ 1.
type step struct {
	qe        hypergraph.EdgeID    // ϕ[i]
	sig       hypergraph.Signature // S(ϕ[i])
	sigID     hypergraph.SigID     // interned data-side ID of S(ϕ[i]); NoSigID ⇒ no table
	part      hypergraph.Partition // view of the data table with that signature (empty ⇒ no results)
	adjGroups []adjGroup           // previous adjacent positions
	nonAdjPos []int                // previous non-adjacent positions (V_n_incdt)
	samePart  []int                // previous positions matched out of this same table
	wantProf  []profile            // sorted query-side profile multiset for ϕ[i]'s vertices
	qVerts    int                  // |V(q')| of the prefix through position i
	arity     int                  // a(ϕ[i])

	// Compiled validation kernel (validate.go): when lanes is set, the
	// seen-vertex classes of wantProf sit in laneProf[:nClasses] (class j
	// counts in lane j+1) and wantLanes is the word a valid candidate's
	// lane sum must equal. Decided once here from the step's shape;
	// otherwise validateStep sorts and compares wantProf.
	lanes     bool
	nClasses  int
	laneProf  [maxLaneClasses]profile
	wantLanes uint64

	// Hybrid-container shape of the step's table, precompiled so Expand
	// branches once: useBitmaps enables the word-parallel kernels (the
	// table carries a bitmap sidecar and no delta segment — delta
	// postings live above the base rank span and run array-only until
	// compaction), nBits is the table's rank span, and nSets bounds the
	// candidate sets one expansion can build (sizes the per-set bitmap
	// windows).
	useBitmaps bool
	nBits      int
	nSets      int
}

// Plan is a compiled, immutable execution plan for one (query, data) pair:
// the matching order plus per-step candidate-generation and validation
// tables. A Plan may be shared by any number of concurrent workers.
type Plan struct {
	Query *hypergraph.Hypergraph
	Data  *hypergraph.Hypergraph
	Order []hypergraph.EdgeID

	startPart hypergraph.Partition
	steps     []step // steps[i] compiled for order position i (steps[0] carries only sig/part)

	// Empty is true when some query hyperedge has no data table with a
	// matching signature: the result set is provably empty and execution
	// can be skipped entirely.
	Empty bool
}

// NewPlan computes a matching order with Algorithm 3 and compiles the plan.
// Query signatures are interned against the data graph exactly once and
// shared between order search and step compilation, and the order produced
// by Algorithm 3 is connected by construction, so no re-validation pass
// runs — this is the plan-cache-miss path a serving layer pays cold.
func NewPlan(q, h *hypergraph.Hypergraph) (*Plan, error) {
	if err := checkQuerySize(q); err != nil {
		return nil, err
	}
	qs := computeQuerySigs(q, h)
	order, err := orderFromCards(q, qs.cardinalities(h))
	if err != nil {
		return nil, err
	}
	return compilePlan(q, h, order, &qs)
}

// NewPlanWithOrder compiles a plan for a caller-supplied connected matching
// order (HGMatch works with any connected order, §V-A).
func NewPlanWithOrder(q, h *hypergraph.Hypergraph, order []hypergraph.EdgeID) (*Plan, error) {
	if err := checkQuerySize(q); err != nil {
		return nil, err
	}
	if err := ValidateOrder(q, order); err != nil {
		return nil, err
	}
	qs := computeQuerySigs(q, h)
	return compilePlan(q, h, order, &qs)
}

func checkQuerySize(q *hypergraph.Hypergraph) error {
	if q.NumEdges() > maxQueryEdges {
		return fmt.Errorf("core: query has %d hyperedges, max supported is %d", q.NumEdges(), maxQueryEdges)
	}
	// Compilation enumerates every query edge slot, so a query snapshot
	// with pending deletes would silently require an embedding for the
	// deleted hyperedge. Data-side tombstones are fine (matching never
	// produces them); query-side ones must be compacted away first.
	if q.NumDeadEdges() > 0 {
		return fmt.Errorf("core: query carries %d tombstoned hyperedges; compact the snapshot before compiling", q.NumDeadEdges())
	}
	return nil
}

// compilePlan builds the per-step candidate-generation and validation
// tables for a validated connected order. All signature work arrives
// pre-interned in qs; the remaining compile cost is the O(|E(q)|²)
// adjacency classification and the profile tables, served out of a few
// shared buffers.
func compilePlan(q, h *hypergraph.Hypergraph, order []hypergraph.EdgeID, qs *querySigs) (*Plan, error) {
	p := &Plan{
		Query: q,
		Data:  h,
		Order: append([]hypergraph.EdgeID(nil), order...),
		steps: make([]step, len(order)),
	}

	p.steps[0] = step{
		qe:    order[0],
		sig:   qs.sigs[order[0]],
		sigID: qs.ids[order[0]],
		part:  qs.partFor(q, h, order[0]),
		arity: q.Arity(order[0]),
	}
	p.startPart = p.steps[0].part
	if p.startPart.Len() == 0 {
		p.Empty = true
	}

	// prefixDeg[u] after processing position i = number of order-prefix
	// edges containing u; prefixVerts = sorted V(q') of the prefix, with a
	// double buffer so per-step unions allocate nothing.
	prefixDeg := make([]uint8, q.NumVertices())
	prefixVerts := make([]uint32, 0, q.NumVertices())
	prefixScratch := make([]uint32, 0, q.NumVertices())
	for _, u := range q.Edge(order[0]) {
		prefixDeg[u] = 1
	}
	prefixVerts = append(prefixVerts, q.Edge(order[0])...)

	// One backing array serves every step's wantProf; one shared scratch
	// serves the pairwise overlap intersections.
	profBacking := make([]profile, 0, q.TotalArity())
	var sharedBuf []uint32

	for i := 1; i < len(order); i++ {
		qe := order[i]
		st := step{
			qe:    qe,
			sig:   qs.sigs[qe],
			sigID: qs.ids[qe],
			part:  qs.partFor(q, h, qe),
			arity: q.Arity(qe),
		}
		if st.part.Len() == 0 {
			p.Empty = true
		}

		// Classify previous positions as adjacent / non-adjacent
		// (Observations V.2, V.3) and collect vertex requirements
		// (Observation V.4). d_q'(u) is the degree of u in the partial
		// query BEFORE adding qe, i.e. prefixDeg from the previous
		// iteration.
		for j := 0; j < i; j++ {
			if pj := &p.steps[j].part; st.part.Len() > 0 && pj.SigID == st.part.SigID && pj.EdgeLabel == st.part.EdgeLabel {
				st.samePart = append(st.samePart, j)
			}
			ej := order[j]
			sharedBuf = setops.Intersect(sharedBuf[:0], q.Edge(ej), q.Edge(qe))
			if len(sharedBuf) == 0 {
				st.nonAdjPos = append(st.nonAdjPos, j)
				continue
			}
			g := adjGroup{pos: j, us: make([]uReq, 0, len(sharedBuf))}
			for _, u := range sharedBuf {
				r := uReq{label: q.Label(u), prefDeg: prefixDeg[u]}
				// Duplicate (label, degree) requirements within one group
				// produce identical V_incdt sets and hence identical
				// candidate sets; one copy suffices for the intersection.
				dup := false
				for _, prev := range g.us {
					if prev == r {
						dup = true
						break
					}
				}
				if !dup {
					g.us = append(g.us, r)
				}
			}
			st.adjGroups = append(st.adjGroups, g)
		}
		for gi := range st.adjGroups {
			st.nSets += len(st.adjGroups[gi].us)
		}
		if st.part.HasBitmaps() && !st.part.HasDelta() {
			st.useBitmaps = true
			st.nBits = st.part.NumBaseEdges()
		}

		// Update prefix state to INCLUDE position i, then compile the
		// validation tables: |V(q')| and the query-side profile multiset
		// of ϕ[i]'s vertices over the prefix through i (Theorem V.2).
		for _, u := range q.Edge(qe) {
			prefixDeg[u]++
		}
		prefixScratch = setops.Union(prefixScratch[:0], prefixVerts, q.Edge(qe))
		prefixVerts, prefixScratch = prefixScratch, prefixVerts
		st.qVerts = len(prefixVerts)

		profStart := len(profBacking)
		for _, u := range q.Edge(qe) {
			var mask uint64
			for j := 0; j <= i; j++ {
				if setops.Contains(q.Edge(order[j]), u) {
					mask |= 1 << uint(j)
				}
			}
			profBacking = append(profBacking, profile{label: q.Label(u), mask: mask})
		}
		st.wantProf = profBacking[profStart:len(profBacking):len(profBacking)]
		insertionSortProfiles(st.wantProf)
		st.compileLanes(i, h.NumVertices(), len(order))

		p.steps[i] = st
	}
	return p, nil
}

// NumSteps returns |E(q)|: the number of matching-order positions.
func (p *Plan) NumSteps() int { return len(p.Order) }

// StartPartition returns the data hyperedge table scanned by the SCAN
// operator (all data hyperedges with signature S(ϕ[0])); the empty table
// when there is none.
func (p *Plan) StartPartition() *hypergraph.Partition { return &p.startPart }

// InitialCandidates returns the matches of the first query hyperedge:
// every edge of the start partition (Algorithm 2 lines 2-3), including any
// append-side delta members of an online snapshot (Partition.Edges is the
// merged member list). The returned slice is shared and must not be
// mutated.
func (p *Plan) InitialCandidates() []hypergraph.EdgeID {
	if p.Empty {
		return nil
	}
	return p.startPart.Edges
}

// TaskBytes estimates the in-memory size of one scheduled task carrying a
// partial embedding: |E(q)| edge IDs plus fixed header. Used by the
// engine's memory accounting (Theorem VI.1).
func (p *Plan) TaskBytes() int {
	return 24 + 4*len(p.Order)
}

// MaxCost is the saturation value of EstimateCost: estimates at or above
// it mean "effectively unbounded" and compare equal.
const MaxCost = uint64(1) << 62

// EstimateCost returns a unitless estimate of the work to execute the
// plan: the expected number of candidate expansions Σ_i Π_{j≤i} b_j,
// where b_0 is the start partition's cardinality and b_i approximates the
// branching factor of step i by the average posting-list length of its
// signature table (total posting entries Len·arity spread over its
// posting vertices). The tables are the same delta-aware partitions the
// planner orders by, so estimates track online ingestion without a
// recompile. Admission control compares these against per-tenant budgets;
// the absolute scale only needs to be monotone in real work, not
// calibrated. Saturates at MaxCost; provably empty plans cost 0.
func (p *Plan) EstimateCost() uint64 {
	if p.Empty {
		return 0
	}
	prefix := float64(p.startPart.Len())
	cost := prefix
	for i := 1; i < len(p.steps); i++ {
		st := &p.steps[i]
		if st.part.Len() == 0 {
			return 0
		}
		b := 1.0
		if nv := st.part.NumPostingVertices(); nv > 0 {
			b = float64(st.part.Len()) * float64(st.arity) / float64(nv)
		}
		if b < 1 {
			// A branching factor below one still costs the probe itself.
			b = 1
		}
		prefix *= b
		cost += prefix
		if cost >= float64(MaxCost) {
			return MaxCost
		}
	}
	return uint64(cost)
}

// StepSignature exposes S(ϕ[i]) for diagnostics.
func (p *Plan) StepSignature(i int) hypergraph.Signature {
	return p.steps[i].sig
}

// StepSigID exposes the interned data-side signature ID of ϕ[i]
// (hypergraph.NoSigID when the data graph has no matching table).
func (p *Plan) StepSigID(i int) hypergraph.SigID {
	return p.steps[i].sigID
}
