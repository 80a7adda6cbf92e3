package core

import (
	"math/bits"
	"slices"
	"sync"

	"hgmatch/internal/hypergraph"
	"hgmatch/internal/setops"
)

// denseVcntMax is the largest data graph, in vertices, whose Scratch keeps
// the dense vertex-incidence table: 12 bytes per data vertex (vstamp 4 +
// vmask 8), per Scratch, and the engine keeps one Scratch per
// matching-order depth per worker. Above it the compact table takes over,
// whose size follows the partial embedding instead of the graph. The
// cutoff is where the dense table stops paying for its footprint in speed
// (see BenchmarkScratchVcnt).
const denseVcntMax = 1 << 16

// hashMul is the multiplier of the compact table's Fibonacci hash.
const hashMul = 0x9E3779B9

// The compact table holds slotsPerIncidence slots per vertex occurrence in
// the partial embedding, so at most an eighth of them are live and a probe
// almost always ends at its first slot; minSlots is its smallest size.
const (
	slotsPerIncidence = 8
	minSlots          = 16
)

// Scratch holds reusable buffers for Expand so that steady-state expansion
// performs no heap allocation. One Scratch per worker; never shared.
//
// The hottest structure is the per-vertex incidence mask: for every vertex
// of the partial embedding it records WHICH matching-order positions'
// matched hyperedges contain it, as a word-parallel bitmask of positions
// (queries are capped at maxQueryEdges = 64 hyperedges, so one uint64).
// This single table serves two consumers at once: d_Hm(v) (paper
// Observation V.4) is the mask's popcount, and the data-side vertex
// profile of Algorithm 5 is the mask itself — validateStep reads profiles
// straight out of the table instead of probing every matched hyperedge per
// candidate vertex, turning the former O(a(e)·depth·log a) membership scan
// into a(e) word loads. On a data graph of up to denseVcntMax vertices the
// table is a dense, epoch-stamped pair of slices indexed by vertex ID —
// "clearing" is one epoch increment. On a larger graph it is a compact
// open-addressing table over the partial embedding's vertices alone, sized
// by its Σ arity and cleared by the same epoch, so a worker's working
// memory follows the query, not the graph.
//
// The stamp word of either table also carries the compiled validation
// kernel's lane tag in its low laneTagBits bits (see validate.go): a stamp
// is live when it equals vepoch in every bit above the tag.
//
// A Scratch keeps what one Expand built for the next call on the same plan
// and depth (see sync): the table, the lane tags, V_n_incdt and the
// candidate sets. The engine's rows arrive in sibling runs — partial
// embeddings that differ only in their last hyperedge — so a call usually
// redoes only what that hyperedge changed. What is kept is keyed on the
// plan's number, never a pointer, and Reset drops it, so a Scratch holds no
// plan, graph or posting view past its owner's run.
type Scratch struct {
	vmask     []uint64 // dense: incidence mask, valid only where vstamp[v] is live
	vstamp    []uint32 // dense: epoch<<laneTagBits | lane tag, per data vertex
	slots     []vslot  // compact: open addressing, linear probing
	used      []uint32 // compact: the occupied slots, in insertion order
	shift     uint32   // compact: 32 - log2(len(slots)), the hash's shift
	compact   bool     // current table, decided per fillVcnt
	vepoch    uint32   // current epoch, pre-shifted; bumped per fillVcnt
	vdistinct int      // |V(Hm)|

	// denseMax overrides denseVcntMax in tests and benchmarks: -1 forces
	// the compact table, math.MaxInt the dense one; 0 keeps the constant.
	denseMax int

	// The key of what is kept: the plan's number (0: nothing is kept) and
	// the depth of the last call, and the partial embedding m[:depth] the
	// table holds. tags says how far the lane tags lag the table; when
	// they lag by one move, moved holds its old and new hyperedge.
	plan   uint64
	depth  int
	prefix []hypergraph.EdgeID
	tags   tagState
	moved  [2]hypergraph.EdgeID

	nonAdj   []uint32        // V_n_incdt, sorted
	views    []setops.View   // posting views queued for one k-way union
	sets     []setops.View   // the base halves of the candidate sets C' of Algorithm 4
	tails    []setops.View   // their delta tails
	cs       []candSet       // per candidate set of the step: its V_incdt and unions
	vin      []uint32        // V_incdt being selected
	bmArena  []uint64        // word backing for dense sets, reused across calls
	bmSets   []setops.Bitmap // per-set bitmap headers over bmArena windows
	ks       setops.KScratch // k-way kernel scratch (loser tree, AND fold)
	acc      []uint32        // union accumulator (V_n_incdt construction)
	inter    []uint32        // intersection result buffer
	tinter   []uint32        // tail intersection result buffer
	live     []uint32        // intersection minus a masked table's tombstones
	incdt    []uint32        // an unindexed base's V_incdt sets, back to back
	incdtEnd []int           // their ends in incdt
	profs    []profile       // data-side profile buffer for validation
}

// tagState says which lane tags are out of date with the table.
type tagState uint8

const (
	tagsStale tagState = iota // any: tagLanes retags every vertex
	tagsMoved                 // the vertices of the last move's two hyperedges
	tagsFresh                 // none
)

// candSet is one candidate set of Algorithm 4, kept across the calls of one
// plan and depth: the V_incdt it was built from and, where built, the union
// of its vertices' base postings and of their delta postings. The unions
// depend on nothing else, so a call that selects the same V_incdt for the
// set takes them as they are.
type candSet struct {
	incdt      []uint32
	kept       bool // incdt is the current key's, and built unions are its
	baseBuilt  bool
	tailBuilt  bool
	base, tail setops.View
	baseBuf    []uint32 // array backing for a sparse base union
	tailBuf    []uint32 // array backing for a tail union
}

// vslot is one entry of the compact table: a vertex of the partial
// embedding with its stamp and incidence mask. The vertex and the stamp
// share one word, so a probe is one compare; a slot whose stamp is stale
// is empty.
type vslot struct {
	key  uint64 // vertex<<32 | epoch<<laneTagBits | lane tag
	mask uint64
}

// NewScratch returns an empty scratch area.
func NewScratch() *Scratch {
	return &Scratch{}
}

// scratchPool recycles scratch areas between short-lived owners (the
// workers of engine.Run's per-call pool, EnumerateSequential): their dense
// tables cost O(|V(H)|) to allocate and zero, which on a graph near
// denseVcntMax dwarfs a sub-millisecond query. Engine pool workers draw
// theirs here on first use and hand them back when their pool closes. A
// pooled Scratch has been Reset: it keeps buffers, not state.
var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// GetScratch returns a scratch area from the process-wide pool; hand it
// back with PutScratch when no Expand call is using it any more. What a
// Scratch keeps between calls is keyed on the plan and depth, so one serves
// any sequence of plans, depths and graphs.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// PutScratch resets sc and returns it to the pool.
func PutScratch(sc *Scratch) {
	sc.Reset()
	scratchPool.Put(sc)
}

// Reset drops what the last Expand kept for the next one, so the next call
// starts from nothing and sc references no posting view of any graph. The
// buffers stay.
func (sc *Scratch) Reset() {
	sc.plan = 0
	for i := range sc.cs {
		cs := &sc.cs[i]
		cs.kept, cs.base, cs.tail = false, setops.View{}, setops.View{}
	}
	clear(sc.views[:cap(sc.views)])
	clear(sc.sets[:cap(sc.sets)])
	clear(sc.tails[:cap(sc.tails)])
}

// sync brings the table, the lane-tag state and V_n_incdt to the partial
// embedding m[:depth] of step st of p. After a call on the same plan and
// depth whose prefix differs only at position depth-1, it moves that
// position's bit from the old hyperedge's vertices to the new one's and
// rebuilds V_n_incdt only when that position is non-adjacent to ϕ[depth].
// Any other call refills everything; a call on another plan or depth also
// forgets the kept candidate sets.
func (sc *Scratch) sync(p *Plan, st *step, depth int, m []hypergraph.EdgeID) {
	data, k := p.Data, depth-1
	if sc.plan != p.id || sc.depth != depth {
		sc.plan, sc.depth = p.id, depth
		for i := range sc.cs {
			sc.cs[i].kept = false
		}
		if st.useBitmaps {
			sc.ensureBitmapBufs(st.nSets, st.nBits)
		}
	} else if k >= 0 && slices.Equal(sc.prefix[:k], m[:k]) {
		from, to := sc.prefix[k], m[k]
		if from == to {
			return
		}
		sc.prefix[k] = to
		if !sc.moveVcnt(data, k, from, to) {
			sc.fillVcnt(data, m[:depth])
		}
		if n := len(st.nonAdjPos); n > 0 && st.nonAdjPos[n-1] == k {
			sc.unionNonAdj(data, st, m)
		}
		return
	}
	sc.prefix = append(sc.prefix[:0], m[:depth]...)
	sc.fillVcnt(data, m[:depth])
	sc.unionNonAdj(data, st, m)
}

// unionNonAdj builds V_n_incdt: the vertices matched by the query
// hyperedges non-adjacent to ϕ[depth] (Algorithm 4 line 1).
func (sc *Scratch) unionNonAdj(data *hypergraph.Hypergraph, st *step, m []hypergraph.EdgeID) {
	sc.nonAdj = sc.nonAdj[:0]
	for _, j := range st.nonAdjPos {
		sc.acc = setops.Union(sc.acc[:0], sc.nonAdj, data.Edge(m[j]))
		sc.nonAdj, sc.acc = sc.acc, sc.nonAdj
	}
}

// fillVcnt clears the vertex-incidence table and records the partial
// embedding prefix of data in it: bit k of v's mask is set iff prefix[k]
// contains v. The table is chosen by data's vertex count and sized on
// first use: the dense one to the graph, the compact one to prefix's Σ
// arity. Neither ever shrinks. Every lane tag is then stale.
func (sc *Scratch) fillVcnt(data *hypergraph.Hypergraph, prefix []hypergraph.EdgeID) {
	sc.tags = tagsStale
	sc.vepoch += 1 << laneTagBits
	if sc.vepoch == 0 {
		// Epoch wrap: stale stamps from 2^29 calls ago could alias the new
		// epoch, so pay one full clear every half billion resets.
		clear(sc.vstamp)
		for i := range sc.slots {
			sc.slots[i].key = 0
		}
		sc.vepoch = 1 << laneTagBits
	}
	sc.vdistinct = 0
	n, limit := data.NumVertices(), sc.denseMax
	if limit == 0 {
		limit = denseVcntMax
	}
	if sc.compact = n > limit; !sc.compact {
		if len(sc.vstamp) < n {
			sc.vstamp = make([]uint32, n)
			sc.vmask = make([]uint64, n)
		}
		for k, e := range prefix {
			for _, v := range data.Edge(e) {
				sc.vinc(v, k)
			}
		}
		return
	}
	need := 0
	for _, e := range prefix {
		need += slotsPerIncidence * data.Arity(e)
	}
	if len(sc.slots) < need || len(sc.slots) == 0 {
		size := max(minSlots, 1<<bits.Len(uint(need-1)))
		sc.slots = make([]vslot, size)
		sc.shift = uint32(32 - bits.TrailingZeros(uint(size)))
	}
	sc.used = sc.used[:0]
	for k, e := range prefix {
		for _, v := range data.Edge(e) {
			sc.slotInc(v, k)
		}
	}
}

// moveVcnt moves position k's bit in the table from hyperedge from's
// vertices to hyperedge to's. A vertex whose mask drops to 0 leaves the
// partial embedding: the dense table lets its stamp go stale, the compact
// one keeps its slot with mask 0 and lane 0. It reports false, changing
// nothing, when the compact table's occupied slots would pass its load
// bound; the caller then refills.
func (sc *Scratch) moveVcnt(data *hypergraph.Hypergraph, k int, from, to hypergraph.EdgeID) bool {
	bit := uint64(1) << uint(k)
	if sc.compact {
		if len(sc.used)+data.Arity(to) > len(sc.slots)/slotsPerIncidence {
			return false
		}
		for _, v := range data.Edge(from) {
			i, _ := sc.slot(v)
			if s := &sc.slots[i]; s.mask&^bit == 0 {
				s.mask, s.key = 0, s.key&^badLane
				sc.vdistinct--
			} else {
				s.mask &^= bit
			}
		}
		for _, v := range data.Edge(to) {
			sc.slotInc(v, k)
		}
	} else {
		for _, v := range data.Edge(from) {
			if sc.vmask[v] &^= bit; sc.vmask[v] == 0 {
				sc.vstamp[v] = 0 // stale: vepoch is never 0
				sc.vdistinct--
			}
		}
		for _, v := range data.Edge(to) {
			sc.vinc(v, k)
		}
	}
	if sc.tags == tagsFresh {
		sc.tags, sc.moved = tagsMoved, [2]hypergraph.EdgeID{from, to}
	} else {
		sc.tags = tagsStale
	}
	return true
}

// slot returns the index of v's compact-table slot and true when v is in
// the partial embedding, else the index of the empty slot where v would go
// and false. (Masking the shift, always below 32, spares the compiler's
// guard for wider ones.)
func (sc *Scratch) slot(v uint32) (uint32, bool) {
	slots, want := sc.slots, uint64(v)<<32|uint64(sc.vepoch)
	i := v * hashMul >> (sc.shift & 31)
	d := slots[i].key ^ want
	for collides(d) {
		i = (i + 1) & uint32(len(slots)-1)
		d = slots[i].key ^ want
	}
	return i, d < 1<<laneTagBits
}

// collides reports whether d, a slot's key XOR v<<32|vepoch, is another
// vertex's live slot: the stamp matches the epoch (the low word is zero but
// for the lane tag) and the vertex does not (the high word is not). A hit
// leaves only the tag, and a stale slot — empty — a non-zero low word.
// Testing both halves with one trailing-zero count leaves the probe loops
// a single branch, almost never taken at the table's load factor.
func collides(d uint64) bool {
	return uint(bits.TrailingZeros64(d&^(1<<laneTagBits-1))-32) < 32
}

// vinc records that matching-order position k's matched hyperedge contains
// v (incrementing d_Hm(v) and extending v's profile in one write), in the
// dense table.
func (sc *Scratch) vinc(v uint32, k int) {
	bit := uint64(1) << uint(k)
	if sc.vstamp[v]^sc.vepoch >= 1<<laneTagBits {
		sc.vstamp[v] = sc.vepoch // lane tag 0 until tagLanes runs
		sc.vmask[v] = bit
		sc.vdistinct++
		return
	}
	sc.vmask[v] |= bit
}

// slotInc is vinc in the compact table, where a vertex that left the
// partial embedding may still hold its slot, with mask 0.
func (sc *Scratch) slotInc(v uint32, k int) {
	bit := uint64(1) << uint(k)
	i, ok := sc.slot(v)
	if !ok {
		sc.slots[i] = vslot{key: uint64(v)<<32 | uint64(sc.vepoch), mask: bit}
		sc.used = append(sc.used, i)
		sc.vdistinct++
		return
	}
	if sc.slots[i].mask == 0 {
		sc.vdistinct++
	}
	sc.slots[i].mask |= bit
}

// vmaskOf returns v's incidence mask over the partial embedding; 0 when v
// does not occur in it. A dense-table hit stays inline: the branch order
// keeps it within the compiler's inlining budget.
func (sc *Scratch) vmaskOf(v uint32) uint64 {
	if !sc.compact && sc.vstamp[v]^sc.vepoch < 1<<laneTagBits {
		return sc.vmask[v]
	}
	return sc.slotMask(v)
}

// slotMask is vmaskOf past a dense-table hit: a dense miss, or a lookup in
// the compact table.
func (sc *Scratch) slotMask(v uint32) uint64 {
	if sc.compact {
		if i, ok := sc.slot(v); ok {
			return sc.slots[i].mask
		}
	}
	return 0
}

// vlen returns |V(Hm)|: the number of distinct vertices of the partial
// embedding the table holds.
func (sc *Scratch) vlen() int {
	return sc.vdistinct
}

// ensureBitmapBufs prepares nSets bitmap windows of nBits span over the
// shared word arena, growing it only when the step shape grows. It runs
// when a Scratch changes plan or depth, which forgets every kept candidate
// set, so no kept set points at a moved window. Windows are NOT cleared
// here; UnionK clears a window only when it actually picks the dense path.
func (sc *Scratch) ensureBitmapBufs(nSets, nBits int) {
	words := setops.WordsFor(nBits)
	if need := nSets * words; cap(sc.bmArena) < need {
		sc.bmArena = make([]uint64, need)
	}
	if cap(sc.bmSets) < nSets {
		sc.bmSets = make([]setops.Bitmap, nSets)
	}
	sc.bmSets = sc.bmSets[:nSets]
	for i := 0; i < nSets; i++ {
		sc.bmSets[i].Reuse(sc.bmArena[i*words:(i+1)*words:(i+1)*words], nBits)
	}
}
