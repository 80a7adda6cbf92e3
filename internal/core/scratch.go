package core

import (
	"math/bits"
	"sync"

	"hgmatch/internal/setops"
)

// denseVcntBudget bounds the dense vertex-incidence tables per worker, in
// table entries of 12 bytes (vstamp 4 + vmask 8). The engine keeps one
// Scratch per matching-order depth per worker (inline block expansion
// re-enters Expand), so the budget is checked against |V(H)| × |E(q)|: at
// the 2M-entry cap a worker's scratches total ~24 MiB regardless of query
// size, still far below one materialised BFS level on graphs that large.
// Beyond the budget Scratch falls back to the original map, trading speed
// for footprint.
const denseVcntBudget = 1 << 21

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
// into a(e) word loads. The table is a dense, epoch-stamped pair of slices
// indexed by vertex ID — "clearing" is one epoch increment — with a map
// fallback for graphs above the budget (see BenchmarkScratchVcnt).
//
// The stamp word also carries the compiled validation kernel's lane tag in
// its low laneTagBits bits (see validate.go), so the table stays at 12 bytes
// per vertex: a stamp is live when it equals vepoch in every bit above the
// tag.
type Scratch struct {
	vmask     []uint64          // incidence mask, valid only where vstamp[v] is live
	vstamp    []uint32          // epoch<<laneTagBits | lane tag, per data vertex
	vepoch    uint32            // current epoch, pre-shifted; bumped per resetVcnt
	vdistinct int               // |V(Hm)| under the dense table
	vcnt      map[uint32]uint64 // fallback table for huge graphs
	useMap    bool              // current mode, decided per resetVcnt
	forceMap  bool              // test/bench hook: always use the map

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
	profs    []profile       // data-side profile buffer for validation
}

// NewScratch returns an empty scratch area.
func NewScratch() *Scratch {
	return &Scratch{}
}

// scratchPool recycles scratch areas between short-lived owners (the
// workers of engine.Run's per-call pool, EnumerateSequential): their dense
// tables cost O(|V(H)|) to allocate and zero, which on a large sparse graph
// dwarfs a sub-millisecond query. Engine pool workers draw theirs here on
// first use and hand them back when their pool closes.
var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// GetScratch returns a scratch area from the process-wide pool; hand it
// back with PutScratch when no Expand call is using it any more. A Scratch
// resets itself per Expand, so one serves any sequence of plans and graphs.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// PutScratch returns sc to the pool.
func PutScratch(sc *Scratch) { scratchPool.Put(sc) }

// resetVcnt clears the vertex-incidence table for a new Expand over a data
// graph with numVertices vertices and a plan of steps matching-order
// positions (one Scratch may exist per step), sizing the dense table on
// first use.
func (sc *Scratch) resetVcnt(numVertices, steps int) {
	if sc.forceMap || numVertices*steps > denseVcntBudget {
		sc.useMap = true
		if sc.vcnt == nil {
			sc.vcnt = make(map[uint32]uint64, 64)
		} else {
			clear(sc.vcnt)
		}
		return
	}
	sc.useMap = false
	if len(sc.vstamp) < numVertices {
		sc.vstamp = make([]uint32, numVertices)
		sc.vmask = make([]uint64, numVertices)
		sc.vepoch = 0
	}
	sc.vepoch += 1 << laneTagBits
	if sc.vepoch == 0 {
		// Epoch wrap: stale stamps from 2^29 calls ago could alias the new
		// epoch, so pay one full clear every half billion resets.
		clear(sc.vstamp)
		sc.vepoch = 1 << laneTagBits
	}
	sc.vdistinct = 0
}

// vinc records that matching-order position k's matched hyperedge contains
// v (incrementing d_Hm(v) and extending v's profile in one write).
func (sc *Scratch) vinc(v uint32, k int) {
	bit := uint64(1) << uint(k)
	if sc.useMap {
		sc.vcnt[v] |= bit
		return
	}
	if sc.vstamp[v]^sc.vepoch >= 1<<laneTagBits {
		sc.vstamp[v] = sc.vepoch // lane tag 0 until tagLanes runs
		sc.vmask[v] = bit
		sc.vdistinct++
		return
	}
	sc.vmask[v] |= bit
}

// vmaskOf returns v's incidence mask over the partial embedding; 0 when v
// does not occur in it.
func (sc *Scratch) vmaskOf(v uint32) uint64 {
	if sc.useMap {
		return sc.vcnt[v]
	}
	if sc.vstamp[v]^sc.vepoch >= 1<<laneTagBits {
		return 0
	}
	return sc.vmask[v]
}

// vdegOf returns d_Hm(v) = the popcount of v's incidence mask; 0 when v is
// not in the partial embedding.
func (sc *Scratch) vdegOf(v uint32) uint8 {
	return uint8(bits.OnesCount64(sc.vmaskOf(v)))
}

// vlen returns |V(Hm)|: the number of distinct vertices recorded since the
// last resetVcnt.
func (sc *Scratch) vlen() int {
	if sc.useMap {
		return len(sc.vcnt)
	}
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
