package core

import (
	"math/bits"
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
type Scratch struct {
	vmask     []uint64 // dense: incidence mask, valid only where vstamp[v] is live
	vstamp    []uint32 // dense: epoch<<laneTagBits | lane tag, per data vertex
	slots     []vslot  // compact: open addressing, linear probing
	used      []uint32 // compact: the live slots, in insertion order
	shift     uint32   // compact: 32 - log2(len(slots)), the hash's shift
	compact   bool     // current table, decided per fillVcnt
	vepoch    uint32   // current epoch, pre-shifted; bumped per fillVcnt
	vdistinct int      // |V(Hm)|

	// denseMax overrides denseVcntMax in tests and benchmarks: -1 forces
	// the compact table, math.MaxInt the dense one; 0 keeps the constant.
	denseMax int

	nonAdj   []uint32        // V_n_incdt, sorted
	views    []setops.View   // base posting views queued for one k-way union
	tviews   []setops.View   // delta posting views queued for one k-way union
	sets     []setops.View   // the base halves of the candidate sets C' of Algorithm 4
	tails    []setops.View   // their delta tails
	setBufs  [][]uint32      // array backing for sparse base halves, reused across calls
	tailBufs [][]uint32      // array backing for tails, reused across calls
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
// theirs here on first use and hand them back when their pool closes.
var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// GetScratch returns a scratch area from the process-wide pool; hand it
// back with PutScratch when no Expand call is using it any more. A Scratch
// resets itself per Expand, so one serves any sequence of plans and graphs.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// PutScratch returns sc to the pool.
func PutScratch(sc *Scratch) { scratchPool.Put(sc) }

// fillVcnt clears the vertex-incidence table and records the partial
// embedding prefix of data in it: bit k of v's mask is set iff prefix[k]
// contains v. The table is chosen by data's vertex count and sized on
// first use: the dense one to the graph, the compact one to prefix's Σ
// arity. Neither ever shrinks.
func (sc *Scratch) fillVcnt(data *hypergraph.Hypergraph, prefix []hypergraph.EdgeID) {
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

// slotInc is vinc in the compact table.
func (sc *Scratch) slotInc(v uint32, k int) {
	bit := uint64(1) << uint(k)
	i, ok := sc.slot(v)
	if !ok {
		sc.slots[i] = vslot{key: uint64(v)<<32 | uint64(sc.vepoch), mask: bit}
		sc.used = append(sc.used, i)
		sc.vdistinct++
		return
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

// vlen returns |V(Hm)|: the number of distinct vertices recorded by the
// last fillVcnt.
func (sc *Scratch) vlen() int {
	return sc.vdistinct
}

// ensureBitmapBufs prepares nSets bitmap windows of nBits span over the
// shared word arena, growing it only when the step shape grows — steady
// state re-points headers and allocates nothing. Windows are NOT cleared
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
