package core

import (
	"hgmatch/internal/hypergraph"
	"hgmatch/internal/setops"
)

// The compiled validation kernel packs Algorithm 5 into one machine word.
//
// Every candidate of step i comes out of the signature table of S(ϕ[i]), so
// its vertex-label multiset already equals ϕ[i]'s. Profile-multiset equality
// (Theorem V.2) therefore only has to be checked on the vertices the partial
// embedding has already seen: once the seen profiles agree, the unseen
// remainders have equal label multisets by subtraction and identical masks
// (just the bit of position i). The seen side is a multiset over at most
// maxLaneClasses distinct (label, mask) classes, which fits a uint64 as
// 8-bit counters ("lanes"):
//
//	lane 0               vertices not in the partial embedding (Observation V.5)
//	lanes 1..nClasses    one per distinct seen-vertex profile of ϕ[i]
//	lane badLane         seen vertices whose profile ϕ[i] does not want
//
// Expand tags each partial-embedding vertex with its lane once per call
// (tagLanes), in the low bits of the Scratch stamp word; validating a
// candidate is then a(e) stamp loads and adds (laneWord), the V.5 test on
// lane 0 and one compare against the precompiled word.
const (
	laneTagBits    = 3                    // lane index width inside a Scratch stamp
	laneBits       = 8                    // counter width; 8 lanes fill the word
	badLane        = 1<<laneTagBits - 1   // tag of a seen vertex with an unwanted profile
	maxLaneClasses = badLane - 1          // lanes left for seen-vertex classes
	maxLaneArity   = 1<<laneBits - 1      // larger hyperedges could overflow a lane
	laneMask       = uint64(maxLaneArity) // extracts lane 0
)

// compileLanes derives step i's lane encoding from its sorted profile
// multiset. It leaves st.lanes false — validateStep then serves the step —
// when the shape does not fit: more seen classes than lanes, or an arity
// that could overflow a counter.
func (st *step) compileLanes(i int) {
	if st.arity > maxLaneArity {
		return
	}
	dbit := uint64(1) << uint(i)
	var want uint64
	n := 0
	for k, pr := range st.wantProf {
		seen := pr.mask &^ dbit
		if seen == 0 {
			want++ // lane 0
			continue
		}
		// wantProf is sorted, so the members of a class are adjacent.
		if k == 0 || st.wantProf[k-1] != pr {
			if n == maxLaneClasses {
				return
			}
			st.laneProf[n] = profile{label: pr.label, mask: seen}
			n++
		}
		want += 1 << (uint(n) * laneBits) // class n-1 counts in lane n
	}
	st.nClasses, st.wantLanes, st.lanes = n, want, true
}

// tagLanes brings the lane tag of every vertex of the partial embedding
// m[:depth] up to date with its mask (tagging it with its lane in its
// stamp): all of them when the tags are stale, only the vertices of the
// last move's two hyperedges when the tags lag the table by one move.
// Must follow sync in the same Expand (masks are final).
func (sc *Scratch) tagLanes(st *step, data *hypergraph.Hypergraph, m []hypergraph.EdgeID, depth int) {
	switch {
	case sc.tags == tagsMoved:
		sc.retag(st, data, sc.moved[0])
		sc.retag(st, data, sc.moved[1])
	case sc.tags == tagsFresh:
	case sc.compact:
		for _, i := range sc.used {
			s := &sc.slots[i]
			s.key = s.key&^badLane | uint64(st.laneOf(s.mask, data, uint32(s.key>>32)))
		}
	default:
		for k := 0; k < depth; k++ {
			below := uint64(1)<<uint(k) - 1
			for _, v := range data.Edge(m[k]) {
				mask := sc.vmask[v]
				if mask&below != 0 {
					continue // tagged at its first matched hyperedge
				}
				sc.vstamp[v] = sc.vepoch | st.laneOf(mask, data, v)
			}
		}
	}
	sc.tags = tagsFresh
}

// retag re-tags the vertices of hyperedge e still in the partial
// embedding.
func (sc *Scratch) retag(st *step, data *hypergraph.Hypergraph, e hypergraph.EdgeID) {
	for _, v := range data.Edge(e) {
		if sc.compact {
			i, _ := sc.slot(v) // e was in the table, so v holds a slot
			s := &sc.slots[i]
			s.key = s.key&^badLane | uint64(st.laneOf(s.mask, data, v))
		} else if sc.vstamp[v]^sc.vepoch < 1<<laneTagBits {
			sc.vstamp[v] = sc.vepoch | st.laneOf(sc.vmask[v], data, v)
		}
	}
}

// laneOf returns the lane of vertex v with incidence mask mask: 0 when v
// has left the partial embedding (mask 0, a kept compact slot), its
// class's, or badLane when ϕ[i] wants no such vertex. v's label is loaded
// only once a class's mask matches.
func (st *step) laneOf(mask uint64, data *hypergraph.Hypergraph, v uint32) uint32 {
	if mask == 0 {
		return 0
	}
	for j := 0; j < st.nClasses; j++ {
		if c := &st.laneProf[j]; c.mask == mask && c.label == data.Label(v) {
			return uint32(j + 1)
		}
	}
	return badLane
}

// laneWord sums the lanes of a candidate's vertices: a stale stamp is an
// unseen vertex (lane 0), a live one carries its tag.
func (sc *Scratch) laneWord(vs []uint32) uint64 {
	if sc.compact {
		return sc.laneWordCompact(vs)
	}
	stamps, epoch := sc.vstamp, sc.vepoch
	var acc uint64
	for _, v := range vs {
		tag := stamps[v] ^ epoch
		if tag > badLane {
			tag = 0
		}
		acc += 1 << (tag * laneBits & 63)
	}
	return acc
}

// laneWordCompact is laneWord over the compact table, where an unseen
// vertex is one without a live slot. The probe is slot's, inlined by hand
// so the table's header stays in registers across the candidate, and a
// miss is a conditional move, not a branch.
func (sc *Scratch) laneWordCompact(vs []uint32) uint64 {
	slots, epoch, shift := sc.slots, uint64(sc.vepoch), sc.shift
	last := uint32(len(slots) - 1)
	var acc uint64
	for _, v := range vs {
		want := uint64(v)<<32 | epoch
		i := v * hashMul >> (shift & 31)
		d := slots[i].key ^ want
		for collides(d) {
			i = (i + 1) & last
			d = slots[i].key ^ want
		}
		if d > badLane {
			d = 0 // no live slot: an unseen vertex, lane 0
		}
		acc += 1 << (d * laneBits & 63)
	}
	return acc
}

// validateStep is Algorithm 5 (IsValidEmbedding) in its general
// sort-and-compare form, for the partial embedding m[:depth] extended by
// candidate c at matching-order position depth. It serves the steps
// compileLanes turns down and is the reference the compiled kernel is
// tested against:
//
//  1. Observation V.5 — |V(q')| must equal |V(Hm')|. hmVerts is |V(Hm)|
//     before adding c; the new count is hmVerts plus c's previously unseen
//     vertices.
//  2. Theorem V.2 — the multiset of vertex profiles (Definition V.3) of
//     c's vertices must equal the precompiled multiset for ϕ[depth]'s
//     vertices. A profile is (label, incident matched hyperedges); both
//     sides canonicalise incident hyperedges to matching-order position
//     bitmasks, so equality is a sort-and-compare over at most a(e)
//     two-word records — no backtracking.
//
// It updates ct.Filtered for candidates passing check 1. Both checks read
// the Scratch incidence-mask table that Expand seeded while computing d_Hm:
// a vertex's data-side profile mask IS its table entry (plus the bit for
// position depth).
func (p *Plan) validateStep(st *step, depth int, c hypergraph.EdgeID, hmVerts int, sc *Scratch, ct *Counters) bool {
	data := p.Data
	cvs := data.Edge(c)

	// One pass: count c's previously unseen vertices (Observation V.5)
	// while assembling the profile multiset (Theorem V.2).
	sc.profs = sc.profs[:0]
	newVerts := 0
	dbit := uint64(1) << uint(depth)
	for _, v := range cvs {
		mask := sc.vmaskOf(v)
		if mask == 0 {
			newVerts++
		}
		sc.profs = append(sc.profs, profile{label: data.Label(v), mask: mask | dbit})
	}

	// Observation V.5: vertex-count equality.
	if hmVerts+newVerts != st.qVerts {
		return false
	}
	ct.Filtered++

	// Theorem V.2: profile multiset equality for the new hyperedge.
	insertionSortProfiles(sc.profs)
	want := st.wantProf
	if len(sc.profs) != len(want) {
		return false // cannot happen: same signature implies same arity
	}
	for i := range want {
		if sc.profs[i] != want[i] {
			return false
		}
	}
	return true
}

// insertionSortProfiles sorts a tiny profile slice in place; hyperedge
// arities in queries are small, so insertion sort beats sort.Slice here and
// avoids its closure allocation.
func insertionSortProfiles(ps []profile) {
	for i := 1; i < len(ps); i++ {
		x := ps[i]
		j := i - 1
		for j >= 0 && profileLess(x, ps[j]) {
			ps[j+1] = ps[j]
			j--
		}
		ps[j+1] = x
	}
}

// VerifyEmbedding checks Definition III.3 from first principles: it
// searches for an injective, label-preserving vertex mapping f with
// f(order[i]) = Edge(m[i]) for every matching-order position, by
// backtracking. It is the ground-truth oracle used in tests and is NOT on
// any hot path (HGMatch itself never backtracks).
func VerifyEmbedding(q, h *hypergraph.Hypergraph, order []hypergraph.EdgeID, m []hypergraph.EdgeID) bool {
	if len(order) != len(m) || len(order) != q.NumEdges() {
		return false
	}
	for i, qe := range order {
		if q.Arity(qe) != h.Arity(m[i]) {
			return false
		}
	}
	// Candidate data vertices per query vertex: the intersection of the
	// images of its incident matched query hyperedges, label-filtered,
	// minus images of non-incident hyperedges (f(u) may only lie in
	// matched edges containing u).
	nq := q.NumVertices()
	cands := make([][]uint32, nq)
	for u := 0; u < nq; u++ {
		var cu []uint32
		first := true
		for i, qe := range order {
			if setops.Contains(q.Edge(qe), uint32(u)) {
				if first {
					cu = append(cu[:0:0], h.Edge(m[i])...)
					first = false
				} else {
					cu = setops.Intersect(cu[:0:0], cu, h.Edge(m[i]))
				}
			}
		}
		if first {
			return false // isolated query vertex: cannot occur in a connected query
		}
		// Remove vertices that lie in images of edges NOT containing u.
		for i, qe := range order {
			if !setops.Contains(q.Edge(qe), uint32(u)) {
				cu = setops.Difference(cu[:0:0], cu, h.Edge(m[i]))
			}
		}
		// Label filter.
		w := cu[:0]
		for _, v := range cu {
			if h.Label(v) == q.Label(uint32(u)) {
				w = append(w, v)
			}
		}
		cands[u] = w
		if len(w) == 0 {
			return false
		}
	}
	used := make(map[uint32]bool, nq)
	var rec func(u int) bool
	rec = func(u int) bool {
		if u == nq {
			return true
		}
		for _, v := range cands[u] {
			if used[v] {
				continue
			}
			used[v] = true
			if rec(u + 1) {
				return true
			}
			delete(used, v)
		}
		return false
	}
	if !rec(0) {
		return false
	}
	// Vertex counts must agree so that f is onto V(Hm) (the embedding is
	// the whole subhypergraph, not a sub-mapping).
	var qv, hv []uint32
	for i := range order {
		qv = setops.Union(qv[:0:0], qv, q.Edge(order[i]))
		hv = setops.Union(hv[:0:0], hv, h.Edge(m[i]))
	}
	return len(qv) == len(hv)
}
