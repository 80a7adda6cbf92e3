package hypergraph

import (
	"fmt"

	"hgmatch/internal/setops"
)

// Partition is a view of one hyperedge table (paper §IV-B, Table I): all
// data hyperedges sharing one hyperedge signature, plus the table's
// inverted hyperedge index (paper §IV-C) mapping each member vertex to the
// sorted posting list of its incident hyperedges *within this table* — on
// a table of more than SmallTableMax base edges; a smaller one is read by
// scanning its members.
//
// A Hypergraph does not store Partition values for its tables: a table is
// a fixed-size row of the partition directory locating its windows in four
// graph-wide arrays (see TableRow), and Hypergraph.Partition cuts this view
// from the row on demand. The view is a plain value — a dozen slice headers
// into storage the graph owns — so a compiled plan keeps one per step and
// reads postings at exactly the cost of a slice index. Only the few tables
// that carry more than a directory row (a bitmap sidecar, an append-side
// delta, a tombstone mask) are kept materialised, in the graph's
// sparse side table. A view stays valid for the lifetime of its graph; the
// zero Partition is the empty table every accessor answers "nothing" for.
//
// The index is stored in CSR form: a sorted local vertex dictionary
// (verts) and two flat arrays (offsets, posts) holding every posting list
// back to back. he(v, s) lookups rank v in the dictionary and return a
// zero-copy slice view posts[offsets[i]:offsets[i+1]] — ready-sorted, so
// Algorithm 4 reduces to unions and intersections of slice views with no
// per-table map or per-list allocation anywhere.
//
// A partition of an online snapshot (see DeltaBuffer) additionally carries
// an append-side delta segment: the last nDelta entries of Edges are
// hyperedges ingested after the base index was built, and their inverted
// index lives in a second, independent CSR block (dverts/doffsets/dposts).
// Because online hyperedge IDs are always assigned past the base ID range,
// Edges stays sorted and every base posting list sorts strictly before
// every delta posting list of the same vertex: readers see the full table
// by consuming Postings(v) and DeltaPostings(v) back to back, with no
// merge, no copy and no locks. Compact() folds the segments into one
// fresh base CSR.
//
// A partition of an online snapshot that lost base members to tombstones
// is masked rather than re-indexed: its base CSR and sidecar stay the
// directory row's, covering every base member, while Edges lists only the
// live ones and DeadEdges the lost ones. Candidate generation subtracts
// DeadEdges from what the base postings yield (Algorithm 4 is set algebra,
// so a tombstone is one more set difference); everything that reads Edges
// — Len, SCAN, the planner — sees the table as compaction will leave it.
type Partition struct {
	// Sig is the signature shared by every edge in this table.
	Sig Signature
	// SigID is the graph-wide interned ID of Sig.
	SigID SigID
	// EdgeLabel is the shared hyperedge label (NoEdgeLabel when the graph
	// is vertex-labelled only).
	EdgeLabel Label
	// Edges lists the live global hyperedge IDs in this table, sorted
	// ascending. The last nDelta entries are the append-side delta segment.
	Edges []EdgeID

	// CSR inverted hyperedge index (Table I's I): verts is the strictly
	// sorted set of vertices occurring in the table, offsets has
	// len(verts)+1 entries, and posts[offsets[i]:offsets[i+1]] is the
	// sorted posting list of verts[i]. It covers BaseEdges(), and all
	// three are empty on a table of at most scanMax base edges, whose
	// index would only repeat its members' vertex lists.
	verts   []VertexID
	offsets []uint32
	posts   []EdgeID

	// Tombstone mask, set only on a table that lost base members: baseAll
	// is the full base member list the CSR and sidecar cover (the directory
	// row's, shared) and dead its tombstoned members, sorted and non-empty.
	baseAll []EdgeID
	dead    []EdgeID

	// Delta-side CSR covering Edges[len(Edges)-nDelta:]; all arrays are nil
	// on fully-compacted partitions (the zero value means "no delta").
	nDelta   int
	dverts   []VertexID
	doffsets []uint32
	dposts   []EdgeID

	// Bitmap sidecar: word-parallel posting containers for the DENSE
	// vertices of the base segment (posting length ≥ the setops.DenseRatio
	// density threshold over the table's cardinality). Bitmaps live in the
	// table's local rank space — member edge Edges[i] is rank i — so a
	// table of n members costs ⌈n/64⌉ words per dense vertex however
	// sparse its global IDs. ranks maps member IDs back to ranks for the
	// kernels' scatter/probe steps, bmIdx parallels verts (-1 = array
	// only), and all bitmap words share one backing array. The sidecar is
	// derived state: built after the base CSR, rebuilt whenever the base
	// segment is (compaction, binary load) and kept as is by a tombstone
	// mask, whose rank space is still BaseEdges(); only binary v3 persists
	// it.
	ranks setops.RankTable
	bmIdx []int32
	bms   []setops.Bitmap
}

// SmallTableMax is the largest base-member count of a table that carries
// no inverted index: Algorithm 4 builds such a table's base candidates by
// scanning its members with the containment test the postings encode (a
// member is a candidate iff it holds a V_incdt vertex of every candidate
// set), which yields the same sorted set. On power-law data most tables
// hold one edge — TC has 103 244 one-edge tables of 118 558 — and their
// index repeats each edge's vertex list at about three times its size.
// BenchmarkSmallTableScan (internal/core) times the two candidate paths
// on tables of 1…16 members; its medians, quoted in its doc comment,
// overlap up to six members and part from eight, and 4 stays short of
// that.
const SmallTableMax = 4

// scanMax is the cutoff in force: SmallTableMax, unless a test or
// benchmark forces another with ForceScanMax.
var scanMax = SmallTableMax

// ForceScanMax makes k the small-table cutoff until the returned function
// restores the previous one. It exists for tests and benchmarks that
// compare the scan with the index on the same tables (k = 0 gives every
// table an index). The builder, the loaders and the table views all read
// the cutoff, and a graph must be read under the one it was built or
// loaded with, so call it only while no graph is in use.
func ForceScanMax(k int) (restore func()) {
	prev := scanMax
	scanMax = k
	return func() { scanMax = prev }
}

// Bitmap sidecar build thresholds (see docs/ARCHITECTURE.md,
// "Set-operation kernels"). Tables below bitmapMinEdges stay array-only:
// their posting lists are too short for word-parallelism to matter. The
// rank table spans the member IDs' global range, so it is capped at
// rankSpanFactor entries per member — power-law ID interleaving keeps real
// tables far below it, and a pathological spread falls back to arrays
// rather than burning memory.
const (
	bitmapMinEdges = 64
	rankSpanFactor = 64
)

// Len returns the table cardinality |{e ∈ E(H) : S(e) = Sig}| over live
// edges. This is the O(1) Card() fetch used by the matching-order planner
// (Definition V.2).
func (p *Partition) Len() int {
	return len(p.Edges)
}

// Postings returns he(v, Sig) over the table's base segment: the sorted
// posting list of base hyperedges incident to v, as a zero-copy view into
// the CSR arrays. Callers must not mutate it. A vertex not occurring in
// the segment yields nil, and so does every vertex of a table whose base
// carries no index (HasBaseIndex): read its BaseEdges instead. On a delta-carrying partition the full posting
// list of v is Postings(v) followed by DeltaPostings(v) — both sorted, and
// every delta ID greater than every base ID. On a masked table it may list
// members of DeadEdges().
func (p *Partition) Postings(v VertexID) []EdgeID {
	return csrPostings(p.verts, p.offsets, p.posts, v)
}

// DeltaPostings returns he(v, Sig) over the table's append-side delta
// segment, as a zero-copy sorted view; nil when the partition carries no
// delta or v occurs in none of its delta hyperedges. Callers must not
// mutate it.
func (p *Partition) DeltaPostings(v VertexID) []EdgeID {
	if len(p.dverts) == 0 {
		return nil
	}
	return csrPostings(p.dverts, p.doffsets, p.dposts, v)
}

// PostingsView returns he(v, Sig) over the table's base segment as a
// hybrid zero-copy view: the word-parallel bitmap container when v is one
// of the table's dense vertices, the sorted CSR array slice otherwise.
// Bitmap views are in the table's local rank space — decode through
// BaseEdges(), scatter/probe through BitmapRanks(). Callers must not
// mutate either representation. A vertex not occurring in the base
// segment yields the empty view.
func (p *Partition) PostingsView(v VertexID) setops.View {
	i := csrRank(p.verts, v)
	if i < 0 {
		return setops.View{}
	}
	if p.bmIdx != nil && p.bmIdx[i] >= 0 {
		return setops.View{Bits: &p.bms[p.bmIdx[i]]}
	}
	return setops.View{Arr: p.posts[p.offsets[i]:p.offsets[i+1]]}
}

// HasBaseIndex reports whether the base segment carries an inverted
// index: every table of more than scanMax base edges does, and a smaller
// one (or one first seen online, with no base at all) does not.
func (p *Partition) HasBaseIndex() bool { return len(p.verts) > 0 }

// HasBitmaps reports whether the table carries a bitmap sidecar (at least
// one dense vertex posting container).
func (p *Partition) HasBitmaps() bool { return len(p.bms) > 0 }

// BitmapRanks returns the sidecar's member-ID→rank mapping (empty without
// a sidecar). Callers must not mutate it.
func (p *Partition) BitmapRanks() setops.RankTable { return p.ranks }

// NumBaseEdges returns the base-segment cardinality, tombstoned members
// of a masked table included: the rank span of the sidecar's bitmaps.
func (p *Partition) NumBaseEdges() int {
	return len(p.BaseEdges())
}

// BitmapStats returns the sidecar's footprint: how many vertices carry a
// bitmap container, and the total sidecar bytes (bitmap words + the
// per-vertex index + the rank table). Both are 0 without a sidecar.
func (p *Partition) BitmapStats() (verts, bytes int) {
	if len(p.bms) == 0 {
		return 0, 0
	}
	words := setops.WordsFor(p.NumBaseEdges())
	return len(p.bms), 8*words*len(p.bms) + 4*len(p.bmIdx) + p.ranks.Bytes()
}

// buildBitmapSidecar (re)derives the bitmap sidecar from the base CSR:
// one linear sweep over the posting arrays scattering each dense vertex's
// list into its container. Called wherever a base segment is built —
// offline build (and so compaction), binary-load assembly. It reports
// whether the table ended up with a sidecar.
func (p *Partition) buildBitmapSidecar() bool {
	p.dropBitmapSidecar()
	base := p.BaseEdges()
	n := len(base)
	if n < bitmapMinEdges || len(p.verts) == 0 {
		return false
	}
	if int(base[n-1]-base[0])+1 > rankSpanFactor*n {
		return false
	}
	nDense := 0
	for i := range p.verts {
		if setops.Dense(int(p.offsets[i+1]-p.offsets[i]), n) {
			nDense++
		}
	}
	if nDense == 0 {
		return false
	}
	words := setops.WordsFor(n)
	p.ranks = setops.BuildRankTable(base)
	p.bmIdx = make([]int32, len(p.verts))
	p.bms = make([]setops.Bitmap, 0, nDense)
	backing := make([]uint64, nDense*words)
	for i := range p.verts {
		p.bmIdx[i] = -1
		pl := p.posts[p.offsets[i]:p.offsets[i+1]]
		if !setops.Dense(len(pl), n) {
			continue
		}
		var bm setops.Bitmap
		bm.Reuse(backing[:words:words], n)
		backing = backing[words:]
		bm.AddRanked(pl, p.ranks)
		bm.Count() // cache the cardinality for the kernels' sizing sorts
		p.bmIdx[i] = int32(len(p.bms))
		p.bms = append(p.bms, bm)
	}
	return true
}

// dropBitmapSidecar removes the sidecar, returning the table to array-only
// posting views. Matching output is identical either way.
func (p *Partition) dropBitmapSidecar() {
	p.ranks, p.bmIdx, p.bms = setops.RankTable{}, nil, nil
}

// csrRank locates v in a CSR vertex dictionary by binary search,
// returning its index or -1; the dictionary is small (vertices of one
// signature's edges) and contiguous, so this stays cache-resident on the
// hot path.
func csrRank(verts []VertexID, v VertexID) int {
	lo, hi := 0, len(verts)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if verts[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(verts) || verts[lo] != v {
		return -1
	}
	return lo
}

// csrPostings returns v's posting-list view from one CSR block.
func csrPostings(verts []VertexID, offsets []uint32, posts []EdgeID, v VertexID) []EdgeID {
	i := csrRank(verts, v)
	if i < 0 {
		return nil
	}
	return posts[offsets[i]:offsets[i+1]]
}

// PostingVertices returns the sorted set of vertices occurring in the
// table's base segment; empty when the base carries no index. Callers
// must not mutate it.
func (p *Partition) PostingVertices() []VertexID {
	return p.verts
}

// PostingsAt returns the posting list of PostingVertices()[i]; it is the
// iteration companion of PostingVertices for serialisation and tests.
func (p *Partition) PostingsAt(i int) []EdgeID {
	return p.posts[p.offsets[i]:p.offsets[i+1]]
}

// NumPostingVertices returns how many distinct vertices the base index
// lists: those of the table's base segment, or 0 when the base carries no
// index.
func (p *Partition) NumPostingVertices() int {
	return len(p.verts)
}

// DeltaPostingVertices returns the sorted set of vertices occurring in the
// table's delta segment (nil without one). Callers must not mutate it.
func (p *Partition) DeltaPostingVertices() []VertexID {
	return p.dverts
}

// NumDeltaEdges returns the size of the append-side delta segment (0 on a
// fully-compacted table).
func (p *Partition) NumDeltaEdges() int {
	return p.nDelta
}

// HasDelta reports whether the table carries an append-side delta segment.
func (p *Partition) HasDelta() bool { return p.nDelta > 0 }

// BaseEdges returns the members the base index covers, sorted: Edges
// minus the delta tail, plus on a masked table its DeadEdges. It is the
// sidecar's unrank array. Callers must not mutate it.
func (p *Partition) BaseEdges() []EdgeID {
	if p.dead != nil {
		return p.baseAll
	}
	return p.Edges[:len(p.Edges)-p.nDelta]
}

// DeadEdges returns the tombstoned base members a masked table's base
// postings still list, sorted; nil on any other table. Callers must not
// mutate it.
func (p *Partition) DeadEdges() []EdgeID { return p.dead }

// DeltaEdges returns the append-side delta members (empty when compacted).
// Callers must not mutate it.
func (p *Partition) DeltaEdges() []EdgeID {
	return p.Edges[len(p.Edges)-p.nDelta:]
}

// validate checks partition-internal invariants against the parent graph.
func (p *Partition) validate(h *Hypergraph) error {
	if !setops.IsSorted(p.Edges) {
		return fmt.Errorf("edge list not sorted")
	}
	if p.nDelta < 0 || p.nDelta > len(p.Edges) {
		return fmt.Errorf("delta segment of %d edges in a table of %d", p.nDelta, len(p.Edges))
	}
	// A mask's base members are exactly its live base members plus its
	// dead ones (Hypergraph.Validate checks the dead ones are tombstones),
	// so the base postings list no other table's tombstone.
	if p.dead != nil {
		live := p.Edges[:len(p.Edges)-p.nDelta]
		all := setops.Union(nil, live, p.dead)
		if len(p.dead) == 0 || !setops.IsSorted(p.dead) || len(all) != len(live)+len(p.dead) || !setops.Equal(all, p.baseAll) {
			return fmt.Errorf("tombstone mask: base members are not the live ones plus the dead ones")
		}
	}
	// Each block is checked against ITS segment's members, so a posting
	// cross-wired into the wrong segment is a validation failure.
	if err := validateCSRBlock(h, p.BaseEdges(), p.verts, p.offsets, p.posts); err != nil {
		return fmt.Errorf("base CSR: %w", err)
	}
	if p.nDelta > 0 || len(p.dverts) > 0 {
		if err := validateCSRBlock(h, p.DeltaEdges(), p.dverts, p.doffsets, p.dposts); err != nil {
			return fmt.Errorf("delta CSR: %w", err)
		}
	}
	// Bitmap sidecar: the rank table must invert the base member array,
	// and every bitmap container must decode to exactly its vertex's CSR
	// posting list (the sidecar is derived state — any divergence means a
	// rebuild was missed).
	if p.bmIdx != nil || len(p.bms) > 0 {
		if len(p.bmIdx) != len(p.verts) {
			return fmt.Errorf("bitmap index covers %d of %d vertices", len(p.bmIdx), len(p.verts))
		}
		if p.ranks.IsEmpty() {
			return fmt.Errorf("bitmap sidecar without a rank table")
		}
		for i, e := range p.BaseEdges() {
			if int(p.ranks.Rank(e)) != i {
				return fmt.Errorf("rank table maps edge %d to %d, want %d", e, p.ranks.Rank(e), i)
			}
		}
		seenBm := 0
		for i := range p.verts {
			bi := p.bmIdx[i]
			if bi < 0 {
				continue
			}
			if int(bi) >= len(p.bms) {
				return fmt.Errorf("bitmap index %d out of range", bi)
			}
			seenBm++
			got := p.bms[bi].AppendUnranked(nil, p.BaseEdges())
			if !setops.Equal(got, p.PostingsAt(i)) {
				return fmt.Errorf("bitmap container of vertex %d decodes to %v, posting list is %v",
					p.verts[i], got, p.PostingsAt(i))
			}
		}
		if seenBm != len(p.bms) {
			return fmt.Errorf("bitmap index references %d of %d containers", seenBm, len(p.bms))
		}
	}
	// A table of at most scanMax base edges carries no base index; every
	// other member edge must appear in the posting list of each member
	// vertex, on the segment it belongs to.
	if n := p.NumBaseEdges(); n <= scanMax {
		if p.HasBaseIndex() {
			return fmt.Errorf("table of %d base edges carries an index", n)
		}
	} else if err := checkPosted(h, p.BaseEdges(), p.Postings); err != nil {
		return err
	}
	return checkPosted(h, p.DeltaEdges(), p.DeltaPostings)
}

// checkPosted checks that each of members is in the posting list of each
// of its vertices.
func checkPosted(h *Hypergraph, members []EdgeID, postings func(VertexID) []EdgeID) error {
	for _, e := range members {
		for _, v := range h.Edge(e) {
			if !setops.Contains(postings(v), e) {
				return fmt.Errorf("edge %d missing from posting list of vertex %d", e, v)
			}
		}
	}
	return nil
}

// validateCSRBlock checks one CSR block's structural invariants: sorted
// dictionary, spanning offsets, sorted non-empty posting lists whose
// entries are member edges containing the vertex.
func validateCSRBlock(h *Hypergraph, members []EdgeID, verts []VertexID, offsets []uint32, posts []EdgeID) error {
	if len(verts) == 0 && len(posts) == 0 && (len(offsets) == 0 || len(offsets) == 1) {
		return nil // empty block (delta-free or member-free side)
	}
	if len(offsets) != len(verts)+1 {
		return fmt.Errorf("CSR offsets length %d for %d vertices", len(offsets), len(verts))
	}
	if offsets[0] != 0 || int(offsets[len(verts)]) != len(posts) {
		return fmt.Errorf("CSR offsets do not span posting array")
	}
	if !setops.IsSorted(verts) {
		return fmt.Errorf("CSR vertex dictionary not sorted")
	}
	total := 0
	for i, v := range verts {
		if offsets[i] > offsets[i+1] {
			return fmt.Errorf("CSR offsets decrease at vertex %d", v)
		}
		l := posts[offsets[i]:offsets[i+1]]
		if len(l) == 0 {
			return fmt.Errorf("vertex %d has an empty posting list", v)
		}
		total += len(l)
		if !setops.IsSorted(l) {
			return fmt.Errorf("posting list of vertex %d not sorted", v)
		}
		for _, e := range l {
			if !setops.Contains(h.Edge(e), v) {
				return fmt.Errorf("posting list of vertex %d lists edge %d not containing it", v, e)
			}
			if !setops.Contains(members, e) {
				return fmt.Errorf("posting list of vertex %d lists foreign edge %d", v, e)
			}
		}
	}
	if total != len(posts) {
		return fmt.Errorf("posting lists cover %d of %d CSR entries", total, len(posts))
	}
	return nil
}
