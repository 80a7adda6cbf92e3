package core

import (
	"math/bits"

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
	lanes := st.lanes
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
	sc.fillVcnt(data, m[:depth])

	// V_n_incdt: vertices matched by non-adjacent query hyperedges
	// (Algorithm 4 line 1).
	sc.nonAdj = sc.nonAdj[:0]
	for _, j := range st.nonAdjPos {
		sc.acc = setops.Union(sc.acc[:0], sc.nonAdj, data.Edge(m[j]))
		sc.nonAdj, sc.acc = sc.acc, sc.nonAdj
	}

	// Hybrid container plumbing: on a sidecar-carrying table the base
	// posting views may be word-parallel bitmaps in the table's rank space,
	// and the per-set union outputs land in reusable bitmap windows when
	// dense. A delta segment keeps them: its postings never enter the rank
	// space but form each set's sorted array tail (see below).
	dense := st.useBitmaps
	var rank setops.RankTable
	var unrank []uint32
	if dense {
		rank = st.part.BitmapRanks()
		unrank = st.part.BaseEdges()
		sc.ensureBitmapBufs(st.nSets, st.nBits)
	}

	// Build C': one candidate hyperedge set per (adjacent edge, shared
	// vertex) pair (Algorithm 4 lines 3-6). On an online snapshot each set
	// is a base half over the base postings and a tail over the delta
	// postings. Every delta ID sorts above every base ID, so ⋂(Bᵢ ∪ Tᵢ) is
	// ⋂Bᵢ followed by ⋂Tᵢ: each half is built and intersected on its own,
	// and stops being built at the first set where it is empty. A base
	// without an index (a table of a few edges) records each set's V_incdt
	// instead, and its members are scanned against them below.
	baseLive, tailLive := true, st.part.HasDelta()
	sc.sets, sc.tails = sc.sets[:0], sc.tails[:0]
	sc.incdt, sc.incdtEnd = sc.incdt[:0], sc.incdtEnd[:0]
	nset := 0
	for gi := range st.adjGroups {
		g := &st.adjGroups[gi]
		fe := data.Edge(m[g.pos])
		for _, u := range g.us {
			// V_incdt: vertices of f(e) that may be matched to u
			// (Observations V.2-V.4).
			sc.views, sc.tviews = sc.views[:0], sc.tviews[:0]
			start := len(sc.incdt)
			for _, v := range fe {
				if data.Label(v) != u.label {
					continue
				}
				if bits.OnesCount64(sc.vmaskOf(v)) != int(u.prefDeg) { // d_Hm(v)
					continue
				}
				if len(sc.nonAdj) > 0 && setops.Contains(sc.nonAdj, v) {
					continue
				}
				// he(v, S(eq)) is the base view plus, on an online
				// snapshot, the delta view: both sorted zero-copy views
				// into the index.
				if baseLive {
					if st.scanBase {
						sc.incdt = append(sc.incdt, v)
					} else if dense {
						if vw := st.part.PostingsView(v); !vw.IsEmpty() {
							sc.views = append(sc.views, vw)
						}
					} else if pl := st.part.Postings(v); len(pl) > 0 {
						sc.views = append(sc.views, setops.View{Arr: pl})
					}
				}
				if tailLive {
					if pl := st.part.DeltaPostings(v); len(pl) > 0 {
						sc.tviews = append(sc.tviews, setops.View{Arr: pl})
					}
				}
			}
			if st.scanBase {
				baseLive = baseLive && len(sc.incdt) > start
				sc.incdtEnd = append(sc.incdtEnd, len(sc.incdt))
			} else {
				baseLive = baseLive && len(sc.views) > 0
			}
			tailLive = tailLive && len(sc.tviews) > 0
			if !baseLive && !tailLive {
				return nil // some required vertex has no incident candidates
			}
			// Union each half's views into the set's own slots
			// (⋃_{v∈V_incdt} he(v, S(eq))): k-way, one pass, adaptive
			// array/bitmap output for the base half, arrays for the tail.
			for len(sc.setBufs) <= nset {
				sc.setBufs = append(sc.setBufs, nil)
				sc.tailBufs = append(sc.tailBufs, nil)
			}
			if baseLive && !st.scanBase {
				var bm *setops.Bitmap
				if dense {
					bm = &sc.bmSets[nset]
				}
				sc.sets = append(sc.sets, unionInto(&sc.setBufs[nset], bm, st.nBits, rank, sc.views, &sc.ks))
			}
			if tailLive {
				sc.tails = append(sc.tails, unionInto(&sc.tailBufs[nset], nil, 0, setops.RankTable{}, sc.tviews, &sc.ks))
			}
			nset++
		}
	}
	if nset == 0 {
		// Cannot happen for a validated connected order at depth ≥ 1,
		// but keep the invariant locally obvious.
		return nil
	}

	// Intersect all candidate sets, smallest first (Algorithm 4 line 7):
	// word-parallel AND folds across bitmap sets, gallop/merge across
	// array sets, decoded back to global hyperedge IDs. The tail result
	// is appended after the base result. IntersectK leaves its result out
	// of ks's scratch, so the three buffers never alias.
	cand := sc.inter[:0]
	if baseLive && st.scanBase {
		cand = sc.scanBase(p.Data, st.part.BaseEdges(), cand)
	} else if baseLive {
		cand = setops.IntersectK(cand, sc.sets, rank, unrank, &sc.ks)
	}
	if tailLive {
		tail := setops.IntersectK(sc.tinter[:0], sc.tails, setops.RankTable{}, nil, &sc.ks)
		sc.tinter = tail[:0]
		cand = append(cand, tail...)
	}
	sc.inter = cand[:0] // retain whichever backing the result landed in

	// A masked table's base postings still list its tombstoned members
	// (online snapshots, until compaction): one set difference removes
	// them before anything is counted, so Counters read as on the
	// compacted graph. The result lands in its own buffer — never over
	// index memory, never over the buffer it reads.
	if dead := st.part.DeadEdges(); len(dead) > 0 && len(cand) > 0 {
		cand = setops.Difference(sc.live[:0], cand, dead)
		sc.live = cand[:0]
	}
	return cand
}

// scanBase appends to dst, in member order, the members that hold a vertex
// of every set of sc.incdt: the containment test the postings encode, so
// the result is the ⋂ᵢ ⋃_{v∈V_incdt,i} he(v, S) an index would give.
func (sc *Scratch) scanBase(data *hypergraph.Hypergraph, members []hypergraph.EdgeID, dst []uint32) []uint32 {
next:
	for _, e := range members {
		ev, lo := data.Edge(e), 0
		for _, hi := range sc.incdtEnd {
			if !setops.ContainsAny(ev, sc.incdt[lo:hi]) {
				continue next
			}
			lo = hi
		}
		dst = append(dst, e)
	}
	return dst
}

// unionInto unions views into the per-set slot *buf and reclaims the
// grown buffer. A single view is the set itself, zero-copy, and *buf keeps
// its own backing: storing the view there would make a later call union
// INTO the index's memory.
func unionInto(buf *[]uint32, bm *setops.Bitmap, nbits int, rank setops.RankTable, views []setops.View, ks *setops.KScratch) setops.View {
	if len(views) == 1 {
		return views[0]
	}
	set := setops.UnionK((*buf)[:0], bm, nbits, rank, views, ks)
	if set.Arr != nil {
		*buf = set.Arr
	}
	return set
}
