package core

import (
	"math/bits"
	"slices"

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
// is the number of embeddings rooted at m[:depth]. On a compiled step its
// loop tallies the three Counters without a data-dependent branch.
func (p *Plan) CountValid(depth int, m []hypergraph.EdgeID, sc *Scratch, ct *Counters) uint64 {
	st := &p.steps[depth]
	if !st.lanes {
		before := ct.Valid
		p.Expand(depth, m, sc, ct, nil)
		return ct.Valid - before
	}
	ct.Expansions++
	cand := p.candidates(st, depth, m, sc)
	if len(cand) == 0 {
		return 0
	}
	data := p.Data
	sc.tagLanes(st, data, m, depth)
	// Observation V.5 in lane 0: the candidate's unseen vertices must be
	// the ones ϕ[depth] adds. (A count below |V(Hm)| wraps and never holds.)
	unseen := uint64(st.qVerts - sc.vlen())
	var cands, filtered, valid uint64
	for _, c := range cand {
		fresh := st.unused(m, c)
		acc := sc.laneWord(data.Edge(c))
		v5 := fresh & b2u(acc&laneMask == unseen)
		cands += fresh
		filtered += v5
		valid += v5 & b2u(acc == st.wantLanes)
	}
	ct.Candidates += cands
	ct.Filtered += filtered
	ct.Valid += valid
	return valid
}

// b2u is 1 for true and 0 for false, without a branch.
func b2u(b bool) uint64 {
	var u uint64
	if b {
		u = 1
	}
	return u
}

// unused is 1 - reuses(m, c), computed without a data-dependent branch.
func (st *step) unused(m []hypergraph.EdgeID, c hypergraph.EdgeID) uint64 {
	u := uint64(1)
	for _, k := range st.samePart {
		u &= b2u(m[k] != c)
	}
	return u
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
	// of the partial embedding, sc.vlen() = |V(Hm)|, and V_n_incdt: what
	// the last call on sc built, updated for what m changed.
	sc.sync(p, st, depth, m)

	// Hybrid container plumbing: on a sidecar-carrying table the base
	// posting views may be word-parallel bitmaps in the table's rank space,
	// and the per-set union outputs land in reusable bitmap windows when
	// dense. A delta segment keeps them: its postings never enter the rank
	// space but form each set's sorted array tail (see below).
	var rank setops.RankTable
	var unrank []uint32
	if st.useBitmaps {
		rank = st.part.BitmapRanks()
		unrank = st.part.BaseEdges()
	}

	// Build C': one candidate hyperedge set per (adjacent edge, shared
	// vertex) pair (Algorithm 4 lines 3-6). On an online snapshot each set
	// is a base half over the base postings and a tail over the delta
	// postings. Every delta ID sorts above every base ID, so ⋂(Bᵢ ∪ Tᵢ) is
	// ⋂Bᵢ followed by ⋂Tᵢ: each half is built and intersected on its own,
	// and stops being built at the first set where it is empty. A base
	// without an index (a table of a few edges) records each set's V_incdt
	// instead, and its members are scanned against them below.
	//
	// A set is the union of its V_incdt's postings, so each set first
	// selects its V_incdt and unions only when that differs from what the
	// set's slot was built from. The sets drawn from position depth-1,
	// which changes from one sibling to the next, are never compared or
	// kept.
	baseLive, tailLive := true, st.part.HasDelta()
	sc.sets, sc.tails = sc.sets[:0], sc.tails[:0]
	sc.incdt, sc.incdtEnd = sc.incdt[:0], sc.incdtEnd[:0]
	nset := 0
	for gi := range st.adjGroups {
		g := &st.adjGroups[gi]
		fe := data.Edge(m[g.pos])
		moved := g.pos == depth-1
		for _, u := range g.us {
			// V_incdt: vertices of f(e) that may be matched to u
			// (Observations V.2-V.4).
			sc.vin = sc.vin[:0]
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
				sc.vin = append(sc.vin, v)
			}
			if len(sc.cs) <= nset {
				sc.cs = append(sc.cs, candSet{})
			}
			cs := &sc.cs[nset]
			if moved || !cs.kept || !slices.Equal(cs.incdt, sc.vin) {
				cs.incdt, sc.vin = sc.vin, cs.incdt
				cs.kept, cs.baseBuilt, cs.tailBuilt = !moved, false, false
			}
			if st.scanBase {
				if baseLive {
					sc.incdt = append(sc.incdt, cs.incdt...)
					sc.incdtEnd = append(sc.incdtEnd, len(sc.incdt))
				}
				baseLive = baseLive && len(cs.incdt) > 0
			} else if baseLive {
				if !cs.baseBuilt {
					sc.unionBase(st, cs, nset, rank)
				}
				baseLive = !empty(cs.base)
			}
			if tailLive {
				if !cs.tailBuilt {
					sc.unionTail(st, cs)
				}
				tailLive = !empty(cs.tail)
			}
			if !baseLive && !tailLive {
				return nil // some required vertex has no incident candidates
			}
			if baseLive && !st.scanBase {
				sc.sets = append(sc.sets, cs.base)
			}
			if tailLive {
				sc.tails = append(sc.tails, cs.tail)
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

// unionBase builds set slot cs's base half: the union of its V_incdt's
// base postings (⋃_{v∈V_incdt} he(v, S(eq))), k-way in one pass, with an
// adaptive array/bitmap output in the slot's own bitmap window. Each view
// is zero-copy into the index.
func (sc *Scratch) unionBase(st *step, cs *candSet, nset int, rank setops.RankTable) {
	sc.views = sc.views[:0]
	for _, v := range cs.incdt {
		if st.useBitmaps {
			if vw := st.part.PostingsView(v); !vw.IsEmpty() {
				sc.views = append(sc.views, vw)
			}
		} else if pl := st.part.Postings(v); len(pl) > 0 {
			sc.views = append(sc.views, setops.View{Arr: pl})
		}
	}
	var bm *setops.Bitmap
	if st.useBitmaps {
		bm = &sc.bmSets[nset]
	}
	cs.base = unionInto(&cs.baseBuf, bm, st.nBits, rank, sc.views, &sc.ks)
	cs.baseBuilt = true
}

// unionTail builds set slot cs's delta tail, the union of its V_incdt's
// delta postings, as a sorted array.
func (sc *Scratch) unionTail(st *step, cs *candSet) {
	sc.views = sc.views[:0]
	for _, v := range cs.incdt {
		if pl := st.part.DeltaPostings(v); len(pl) > 0 {
			sc.views = append(sc.views, setops.View{Arr: pl})
		}
	}
	cs.tail = unionInto(&cs.tailBuf, nil, 0, setops.RankTable{}, sc.views, &sc.ks)
	cs.tailBuilt = true
}

// empty reports whether a built set half holds nothing: it had no
// non-empty posting view to union.
func empty(v setops.View) bool {
	return v.Bits == nil && len(v.Arr) == 0
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
// grown buffer. No view is the empty set, and a single view is the set
// itself, zero-copy: *buf keeps its own backing, since storing the view
// there would make a later call union INTO the index's memory.
func unionInto(buf *[]uint32, bm *setops.Bitmap, nbits int, rank setops.RankTable, views []setops.View, ks *setops.KScratch) setops.View {
	switch len(views) {
	case 0:
		return setops.View{}
	case 1:
		return views[0]
	}
	set := setops.UnionK((*buf)[:0], bm, nbits, rank, views, ks)
	if set.Arr != nil {
		*buf = set.Arr
	}
	return set
}
