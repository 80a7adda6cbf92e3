package core

import (
	"hgmatch/internal/hypergraph"
	"hgmatch/internal/setops"
)

// Counters instruments one worker's expansions for the Exp-3 candidate
// filtering study (paper Fig. 9). They are plain integers owned by a single
// worker; aggregate across workers with Add.
type Counters struct {
	Expansions uint64 // Expand calls (partial embeddings processed)
	Candidates uint64 // candidates produced by Algorithm 4
	Filtered   uint64 // candidates surviving the Observation V.5 vertex-count check
	Valid      uint64 // candidates surviving full profile validation (Algorithm 5)
}

// Add accumulates o into c.
func (c *Counters) Add(o Counters) {
	c.Expansions += o.Expansions
	c.Candidates += o.Candidates
	c.Filtered += o.Filtered
	c.Valid += o.Valid
}

// Expand implements one EXPAND step: given a partial embedding m[:depth]
// aligned with the plan's matching order, it generates the candidate data
// hyperedges of ϕ[depth] (Algorithm 4), filters them (Observation V.5 and
// Algorithm 5), and calls emit for every data hyperedge that extends the
// partial embedding to a valid embedding of the prefix through depth. A nil
// emit only counts them, in ct.Valid (see CountValid).
//
// Expand is safe for concurrent use across workers as long as each worker
// passes its own Scratch and Counters.
func (p *Plan) Expand(depth int, m []hypergraph.EdgeID, sc *Scratch, ct *Counters, emit func(hypergraph.EdgeID)) {
	ct.Expansions++
	st := &p.steps[depth]
	cand := p.candidates(st, depth, m, sc)
	if len(cand) == 0 {
		return
	}
	data := p.Data
	lanes := st.lanes && !sc.useMap
	if lanes {
		sc.tagLanes(st, data, m, depth)
	}
	hmVerts := sc.vlen()
	for _, c := range cand {
		if st.reuses(m, c) {
			continue
		}
		ct.Candidates++
		if lanes {
			acc := sc.laneWord(data.Edge(c))
			if hmVerts+int(acc&laneMask) != st.qVerts {
				continue // Observation V.5
			}
			ct.Filtered++
			if acc != st.wantLanes {
				continue // Theorem V.2
			}
		} else if !p.validateStep(st, depth, c, hmVerts, sc, ct) {
			continue
		}
		ct.Valid++
		if emit != nil {
			emit(c)
		}
	}
}

// CountValid is Expand for a consumer that only wants to know how many
// extensions are valid: identical candidates, checks and Counters, no
// per-extension call. At the last matching-order position the return value
// is the number of embeddings rooted at m[:depth].
func (p *Plan) CountValid(depth int, m []hypergraph.EdgeID, sc *Scratch, ct *Counters) uint64 {
	before := ct.Valid
	p.Expand(depth, m, sc, ct, nil)
	return ct.Valid - before
}

// reuses reports whether the partial embedding m already maps a query
// hyperedge to c. A data hyperedge cannot serve two query hyperedges:
// distinct query edges have distinct vertex sets, so injective mappings give
// distinct images. Every hyperedge sits in exactly one table, so only the
// positions matched out of this step's own table can hold c.
func (st *step) reuses(m []hypergraph.EdgeID, c hypergraph.EdgeID) bool {
	for _, k := range st.samePart {
		if m[k] == c {
			return true
		}
	}
	return false
}

// CandidatesOnly runs Algorithm 4 without validation and returns the raw
// candidate set (post intersection and duplicate-edge filter, before the
// Observation V.5 / Algorithm 5 checks); used by tests and the ablation
// benchmarks.
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

// candidates is Algorithm 4: the data hyperedges of st's signature table
// that are incident to the partial embedding m[:depth] the way ϕ[depth] is
// incident to the matched query prefix. The result may still contain
// members of m and lives in sc until the next call. As a side effect sc's
// incidence-mask table describes m[:depth], which validation reads.
func (p *Plan) candidates(st *step, depth int, m []hypergraph.EdgeID, sc *Scratch) []hypergraph.EdgeID {
	if st.part.Len() == 0 {
		return nil
	}
	data := p.Data

	// Incidence mask (and through its popcount, d_Hm(v)) for every vertex
	// of the partial embedding; sc.vlen() is |V(Hm)|.
	sc.resetVcnt(data.NumVertices(), len(p.Order))
	for k := 0; k < depth; k++ {
		for _, v := range data.Edge(m[k]) {
			sc.vinc(v, k)
		}
	}

	// V_n_incdt: vertices matched by non-adjacent query hyperedges
	// (Algorithm 4 line 1).
	sc.nonAdj = sc.nonAdj[:0]
	for _, j := range st.nonAdjPos {
		sc.acc = setops.Union(sc.acc[:0], sc.nonAdj, data.Edge(m[j]))
		sc.nonAdj, sc.acc = sc.acc, sc.nonAdj
	}

	// Hybrid container plumbing: on a sidecar-carrying, delta-free table
	// the posting views may be word-parallel bitmaps in the table's rank
	// space, and the per-set union outputs land in reusable bitmap windows
	// when dense. A delta-carrying table runs array-only until compaction
	// (delta postings live above the base rank span; they are small and
	// short-lived by design).
	dense := st.useBitmaps
	var rank setops.RankTable
	var unrank []uint32
	if dense {
		rank = st.part.BitmapRanks()
		unrank = st.part.BaseEdges()
		sc.ensureBitmapBufs(st.nSets, st.nBits)
	}

	// Build C': one candidate hyperedge set per (adjacent edge, shared
	// vertex) pair (Algorithm 4 lines 3-6).
	sc.sets = sc.sets[:0]
	nset := 0
	for gi := range st.adjGroups {
		g := &st.adjGroups[gi]
		fe := data.Edge(m[g.pos])
		for _, u := range g.us {
			// V_incdt: vertices of f(e) that may be matched to u
			// (Observations V.2-V.4).
			sc.views = sc.views[:0]
			for _, v := range fe {
				if data.Label(v) != u.label {
					continue
				}
				if sc.vdegOf(v) != u.prefDeg {
					continue
				}
				if len(sc.nonAdj) > 0 && setops.Contains(sc.nonAdj, v) {
					continue
				}
				// he(v, S(eq)) is the base view plus, on an online
				// snapshot, the append-side delta view: both sorted, with
				// every delta ID above every base ID, so the downstream
				// unions treat them as two more ready-sorted inputs — no
				// merge, no allocation, and a single predictable branch on
				// compacted graphs.
				if dense {
					if vw := st.part.PostingsView(v); !vw.IsEmpty() {
						sc.views = append(sc.views, vw)
					}
				} else if pl := st.part.Postings(v); len(pl) > 0 {
					sc.views = append(sc.views, setops.View{Arr: pl})
				}
				if pl := st.part.DeltaPostings(v); len(pl) > 0 {
					sc.views = append(sc.views, setops.View{Arr: pl})
				}
			}
			if len(sc.views) == 0 {
				return nil // some required vertex has no incident candidates
			}
			// Union the posting views into the per-set slot
			// (⋃_{v∈V_incdt} he(v, S(eq))): k-way, one pass, adaptive
			// array/bitmap output. Single-view sets stay zero-copy.
			for len(sc.setBufs) <= nset {
				sc.setBufs = append(sc.setBufs, nil)
			}
			var set setops.View
			if len(sc.views) == 1 {
				// Zero-copy: the set IS the posting view. setBufs[nset]
				// must keep its own backing — storing the view here would
				// make a later call union INTO the index's memory.
				set = sc.views[0]
			} else {
				var bm *setops.Bitmap
				if dense {
					bm = &sc.bmSets[nset]
				}
				set = setops.UnionK(sc.setBufs[nset][:0], bm, st.nBits, rank, sc.views, &sc.ks)
				if set.Arr != nil {
					sc.setBufs[nset] = set.Arr // reclaim the grown buffer
				}
			}
			sc.sets = append(sc.sets, set)
			nset++
		}
	}
	if len(sc.sets) == 0 {
		// Cannot happen for a validated connected order at depth ≥ 1,
		// but keep the invariant locally obvious.
		return nil
	}

	// Intersect all candidate sets, smallest first (Algorithm 4 line 7):
	// word-parallel AND folds across bitmap sets, gallop/merge across
	// array sets, decoded back to global hyperedge IDs.
	cand := setops.IntersectK(sc.inter[:0], sc.sets, rank, unrank, &sc.ks)
	sc.inter = cand[:0] // retain whichever backing the result landed in
	return cand
}
