package hypergraph

import (
	"fmt"
	"slices"
	"sort"

	"hgmatch/internal/setops"
)

// Storage is a complete prebuilt hypergraph in the flat layout a
// Hypergraph keeps in memory and binary format v3 keeps on disk: CSR pairs
// for the hyperedges and the incidence lists, and a partition directory
// over four shared arrays (see TableRow). It is the one input of Assemble
// (untrusted bytes: everything is validated, the derived parts rebuilt) and
// AdoptForeign (trusted, typically memory-mapped: adopted as it lies), and
// what Hypergraph.Storage hands the binary writers. Arrays are retained by
// reference and may point into a read-only mapping.
type Storage struct {
	Labels     []Label
	EdgeOff    []uint32 // NumEdges+1 offsets into EdgeVerts, starting at 0
	EdgeVerts  []uint32 // strictly increasing vertex IDs per edge
	EdgeLabels []Label  // nil when unlabelled

	// Tables holds one row per hyperedge table plus the closing sentinel.
	// Callers fill EdgeLabel and the three running-sum columns; SigID is
	// assigned by the package, in place.
	Tables    []TableRow
	PartEdges []EdgeID
	PartVerts []VertexID
	PartOffs  []uint32
	PartPosts []EdgeID

	Dict     *Dict
	EdgeDict *Dict

	// Derived structure. Assemble ignores these and rebuilds them;
	// AdoptForeign trusts them.
	IncOff    []uint32 // NumVertices+1 offsets into IncEdges
	IncEdges  []uint32
	EdgePart  []uint32
	Sidecars  []Sidecar // ascending Table
	NumLabels int
	MaxArity  int
}

// Sidecar is the bitmap posting-container sidecar of one table. Build the
// Bms entries of a mapped file with setops.BorrowBitmap over the file's
// word windows and persisted cardinalities, so adopting a sidecar never
// popcounts — or faults — the word pages.
type Sidecar struct {
	Table uint32
	Ranks setops.RankTable
	BmIdx []int32
	Bms   []setops.Bitmap
}

// Storage returns h's flat arrays, shared, for serialisation. Only a
// compacted graph is one directory over four arrays: online snapshots
// (HasDelta) must be Compacted first.
func (h *Hypergraph) Storage() Storage {
	if h.delta {
		panic("hypergraph: Storage of an uncompacted snapshot")
	}
	st := Storage{
		Labels: h.labels, EdgeOff: h.edgeOff, EdgeVerts: h.edgeVerts, EdgeLabels: h.edgeLabels,
		Tables: h.tables, PartEdges: h.partEdges, PartVerts: h.partVerts, PartOffs: h.partOffs, PartPosts: h.partPosts,
		Dict: h.dict, EdgeDict: h.edgeDict,
		IncOff: h.incOff, IncEdges: h.incEdges, EdgePart: h.edgePart,
		NumLabels: h.numLabels, MaxArity: h.maxArity,
	}
	for pi, p := range h.side {
		st.Sidecars = append(st.Sidecars, Sidecar{Table: pi, Ranks: p.ranks, BmIdx: p.bmIdx, Bms: p.bms})
	}
	slices.SortFunc(st.Sidecars, func(a, b Sidecar) int { return int(a.Table) - int(b.Table) })
	return st
}

// newFromStorage adopts the arrays both entry points take as given, after
// the shape checks that make every later index safe on either path: array
// lengths agree with each other and the directory's running sums are
// monotone and end at the arrays' ends.
func newFromStorage(st *Storage) (*Hypergraph, error) {
	if len(st.EdgeOff) == 0 || st.EdgeOff[0] != 0 || int(st.EdgeOff[len(st.EdgeOff)-1]) != len(st.EdgeVerts) {
		return nil, fmt.Errorf("hypergraph: edge offsets do not cover the %d vertex cells", len(st.EdgeVerts))
	}
	ne := len(st.EdgeOff) - 1
	if st.EdgeLabels != nil && len(st.EdgeLabels) != ne {
		return nil, fmt.Errorf("hypergraph: %d edge labels for %d edges", len(st.EdgeLabels), ne)
	}
	if len(st.Tables) == 0 {
		return nil, fmt.Errorf("hypergraph: partition directory lacks its sentinel row")
	}
	np := len(st.Tables) - 1
	if first := st.Tables[0]; first.Edges != 0 || first.Verts != 0 || first.Posts != 0 {
		return nil, fmt.Errorf("hypergraph: partition directory does not start at 0")
	}
	for pi := 0; pi < np; pi++ {
		r, end := st.Tables[pi], st.Tables[pi+1]
		if end.Edges <= r.Edges {
			return nil, fmt.Errorf("hypergraph: partition %d is empty", pi)
		}
		if end.Verts <= r.Verts || end.Posts < r.Posts {
			return nil, fmt.Errorf("hypergraph: partition %d CSR header malformed", pi)
		}
	}
	if end := st.Tables[np]; int(end.Edges) != len(st.PartEdges) || int(end.Verts) != len(st.PartVerts) ||
		int(end.Posts) != len(st.PartPosts) || len(st.PartOffs) != len(st.PartVerts)+np {
		return nil, fmt.Errorf("hypergraph: partition directory does not cover its arrays")
	}
	if len(st.PartEdges) != ne {
		return nil, fmt.Errorf("hypergraph: partitions list %d member edges, graph has %d", len(st.PartEdges), ne)
	}
	return &Hypergraph{
		labels: st.Labels, edgeOff: st.EdgeOff, edgeVerts: st.EdgeVerts, edgeLabels: st.EdgeLabels,
		tables: st.Tables, partEdges: st.PartEdges, partVerts: st.PartVerts, partOffs: st.PartOffs, partPosts: st.PartPosts,
		nParts: np, dict: st.Dict, edgeDict: st.EdgeDict, totalArity: len(st.EdgeVerts),
	}, nil
}

// internTableSigs rebuilds the signature interner from the tables — one
// signature per table, computed from its first member — stamps every
// directory row with its SigID and derives the lookup tables.
func (h *Hypergraph) internTableSigs() error {
	cells := 0 // exact unless two edge labels share a signature
	for pi := 0; pi < h.nParts; pi++ {
		cells += h.Arity(h.partEdges[h.tables[pi].Edges])
	}
	h.sigTab = newU32Interner(h.nParts, cells)
	var sigBuf Signature
	for pi := 0; pi < h.nParts; pi++ {
		r := &h.tables[pi]
		sigBuf = AppendSignature(sigBuf[:0], h.Edge(h.partEdges[r.Edges]), h.labels)
		r.SigID, _ = h.sigTab.intern(0, sigBuf)
	}
	h.sigTab.compact()
	return h.indexTables()
}

// Assemble constructs a Hypergraph from prebuilt storage. It is the fast
// path behind loading binary formats v2 and v3 onto the heap — incidence
// lists, the signature interner and the bitmap sidecars are rebuilt in
// linear time, everything else is adopted as is.
//
// Assemble validates the input enough to guarantee the result satisfies
// every Hypergraph invariant (Validate passes) without paying the
// Builder's costs: the CSR arrays are required to be exactly the canonical
// index the Builder produces, checked by a single linear sweep over the
// incidence lists; malformed offset tables, out-of-range IDs, unsorted or
// duplicate edges and inconsistent posting lists all return errors, never
// panic. Slices are retained by reference; callers must not reuse them.
func Assemble(st Storage) (*Hypergraph, error) {
	h, err := newFromStorage(&st)
	if err != nil {
		return nil, err
	}
	ne := h.NumEdges()
	for e := 0; e < ne; e++ {
		if h.edgeOff[e+1] <= h.edgeOff[e] {
			if h.edgeOff[e+1] == h.edgeOff[e] {
				return nil, fmt.Errorf("hypergraph: edge %d is empty", e)
			}
			return nil, fmt.Errorf("hypergraph: edge offsets decrease at edge %d", e)
		}
		if int(h.edgeOff[e+1]) > len(h.edgeVerts) {
			return nil, fmt.Errorf("hypergraph: edge %d extends past the vertex cells", e)
		}
		vs := h.Edge(EdgeID(e))
		if !setops.IsSorted(vs) {
			return nil, fmt.Errorf("hypergraph: edge %d vertex set not strictly sorted", e)
		}
		if int(vs[len(vs)-1]) >= len(h.labels) {
			return nil, fmt.Errorf("hypergraph: edge %d references unknown vertex %d", e, vs[len(vs)-1])
		}
		h.maxArity = max(h.maxArity, len(vs))
	}

	// Phase 1: the edge→partition cover.
	h.edgePart = make([]uint32, ne)
	seenEdge := make([]bool, ne)
	for pi := 0; pi < h.nParts; pi++ {
		members := h.partEdges[h.tables[pi].Edges:h.tables[pi+1].Edges]
		if !setops.IsSorted(members) {
			return nil, fmt.Errorf("hypergraph: partition %d edge list not sorted", pi)
		}
		if int(members[len(members)-1]) >= ne {
			return nil, fmt.Errorf("hypergraph: partition %d references unknown edge %d", pi, members[len(members)-1])
		}
		if h.partOffs[int(h.tables[pi].Verts)+pi] != 0 {
			return nil, fmt.Errorf("hypergraph: partition %d CSR header malformed", pi)
		}
		for _, e := range members {
			if seenEdge[e] {
				return nil, fmt.Errorf("hypergraph: edge %d appears in two partitions", e)
			}
			seenEdge[e] = true
			h.edgePart[e] = uint32(pi)
		}
	}
	// The member lists hold ne distinct in-range IDs, so every edge is covered.

	// Phase 2: incidence lists (derived from the validated edges alone),
	// then one linear sweep replaying the canonical CSR construction
	// against the supplied arrays — any deviation (wrong vertex dictionary,
	// offsets, posting order or content) is rejected without a single
	// binary search.
	h.buildIncidence()
	if err := h.checkCanonicalCSR(); err != nil {
		return nil, err
	}

	// Phase 3: per-partition signature coherence, exact-duplicate edges,
	// interner, lookup tables and sidecars.
	if err := h.internTableSigs(); err != nil {
		return nil, err
	}
	var sigBuf Signature
	for pi := 0; pi < h.nParts; pi++ {
		r := h.tables[pi]
		for _, e := range h.partEdges[r.Edges:h.tables[pi+1].Edges] {
			if h.EdgeLabel(e) != r.EdgeLabel {
				return nil, fmt.Errorf("hypergraph: edge %d label differs from partition %d's", e, pi)
			}
			sigBuf = AppendSignature(sigBuf[:0], h.Edge(e), h.labels)
			if !h.Sig(r.SigID).Equal(sigBuf) {
				return nil, fmt.Errorf("hypergraph: edge %d signature differs from partition %d's", e, pi)
			}
		}
	}
	if err := h.checkNoDuplicateEdges(); err != nil {
		return nil, err
	}
	h.buildSidecars() // derived: rebuilt on every heap load
	h.countLabels()
	return h, nil
}

// AdoptForeign builds a Hypergraph directly over foreign storage without
// copying or fully validating it. It is the mmap attach path behind
// hgio.MapFile: the caller (the binary-v3 reader) has already validated
// every structural table it hands in — offset monotonicity, edge→partition
// links, sidecar index ranges — and the big payload arrays (edge vertex
// sets, posting lists, bitmap words) are trusted under the file's checksum
// rather than swept, so attaching faults only the small header-adjacent
// pages. Contrast Assemble, which replays the canonical CSR construction
// over every incidence and is the right entry point for untrusted bytes.
//
// The only work done here is rebuilding the in-memory signature interner
// and partition lookup tables: one signature computation per partition
// (faulting a handful of pages), never per edge — and no allocation per
// table or per edge either: the mapped sections serve as they lie.
func AdoptForeign(st Storage) (*Hypergraph, error) {
	h, err := newFromStorage(&st)
	if err != nil {
		return nil, err
	}
	if len(st.IncOff) != len(st.Labels)+1 || int(st.IncOff[len(st.Labels)]) != len(st.IncEdges) {
		return nil, fmt.Errorf("hypergraph: incidence offsets do not cover %d vertices", len(st.Labels))
	}
	if len(st.EdgePart) != h.NumEdges() {
		return nil, fmt.Errorf("hypergraph: %d partition links for %d edges", len(st.EdgePart), h.NumEdges())
	}
	h.incOff, h.incEdges, h.edgePart = st.IncOff, st.IncEdges, st.EdgePart
	h.numLabels, h.maxArity = st.NumLabels, st.MaxArity
	for pi := 0; pi < h.nParts; pi++ {
		if first := h.partEdges[h.tables[pi].Edges]; int(first) >= h.NumEdges() {
			return nil, fmt.Errorf("hypergraph: partition %d references unknown edge %d", pi, first)
		}
	}
	if err := h.internTableSigs(); err != nil {
		return nil, err
	}
	for _, sc := range st.Sidecars {
		if int(sc.Table) >= h.nParts {
			return nil, fmt.Errorf("hypergraph: sidecar for partition %d of %d", sc.Table, h.nParts)
		}
		p := h.Partition(int(sc.Table))
		p.ranks, p.bmIdx, p.bms = sc.Ranks, sc.BmIdx, sc.Bms
		h.setSide(sc.Table, &p)
	}
	return h, nil
}

// checkCanonicalCSR replays buildCSR's sweep over the incidence lists in
// compare mode: the supplied vertex dictionaries, offsets and posting
// arrays must match the canonical construction entry for entry. Because
// the canonical index is unique, equality both validates the arrays and
// proves they ARE the inverted hyperedge index. O(Σ a(e)) total.
func (h *Hypergraph) checkCanonicalCSR() error {
	np := h.nParts
	fill := make([]uint32, np)     // posting cursor per partition
	vcur := make([]uint32, np)     // vertex-dictionary cursor per partition
	lastSeen := make([]uint32, np) // vertex+1 last advanced per partition
	var err error
	h.sweepIncidence(func(v VertexID, e EdgeID, pi uint32) {
		if err != nil {
			return
		}
		r, end := &h.tables[pi], &h.tables[pi+1]
		if lastSeen[pi] != v+1 {
			lastSeen[pi] = v + 1
			i := r.Verts + vcur[pi]
			if i >= end.Verts || h.partVerts[i] != v {
				err = fmt.Errorf("hypergraph: partition %d vertex dictionary diverges at vertex %d", pi, v)
				return
			}
			if h.partOffs[i+pi] != fill[pi] {
				err = fmt.Errorf("hypergraph: partition %d offset of vertex %d diverges", pi, v)
				return
			}
			vcur[pi]++
		}
		if i := r.Posts + fill[pi]; i >= end.Posts || h.partPosts[i] != e {
			err = fmt.Errorf("hypergraph: partition %d posting array diverges at edge %d", pi, e)
			return
		}
		fill[pi]++
	})
	if err != nil {
		return err
	}
	for pi := 0; pi < np; pi++ {
		r, end := &h.tables[pi], &h.tables[pi+1]
		if extra := end.Verts - r.Verts - vcur[pi]; extra != 0 {
			return fmt.Errorf("hypergraph: partition %d vertex dictionary has %d extra entries", pi, extra)
		}
		if extra := end.Posts - r.Posts - fill[pi]; extra != 0 {
			return fmt.Errorf("hypergraph: partition %d posting array has %d extra entries", pi, extra)
		}
		if h.partOffs[int(end.Verts)+pi] != fill[pi] {
			return fmt.Errorf("hypergraph: partition %d final offset diverges", pi)
		}
	}
	return nil
}

// checkNoDuplicateEdges rejects exact duplicate hyperedges (same vertex
// set and edge label) — the one Builder invariant the other checks don't
// already imply. Edges sort by a 64-bit content fingerprint (cheap integer
// compares); only fingerprint collisions compare full vertex sets.
func (h *Hypergraph) checkNoDuplicateEdges() error {
	ne := h.NumEdges()
	if ne < 2 {
		return nil
	}
	fps := make([]uint64, ne)
	ids := make([]uint32, ne)
	for e := range ids {
		ids[e] = uint32(e)
		fps[e] = hashU32s(h.EdgeLabel(EdgeID(e)), h.Edge(EdgeID(e)))
	}
	sort.Slice(ids, func(a, b int) bool { return fps[ids[a]] < fps[ids[b]] })
	// Within each run of equal fingerprints, order by full content so
	// identical edges become adjacent even among crafted collisions.
	for lo := 0; lo < len(ids); {
		hi := lo + 1
		for hi < len(ids) && fps[ids[hi]] == fps[ids[lo]] {
			hi++
		}
		if hi-lo > 1 {
			run := ids[lo:hi]
			sort.Slice(run, func(a, b int) bool { return h.edgeContentLess(run[a], run[b]) })
			for i := 1; i < len(run); i++ {
				a, b := run[i-1], run[i]
				if h.EdgeLabel(a) == h.EdgeLabel(b) && setops.Equal(h.Edge(a), h.Edge(b)) {
					return fmt.Errorf("hypergraph: edges %d and %d are duplicates", a, b)
				}
			}
		}
		lo = hi
	}
	return nil
}

// edgeContentLess orders edges by (edge label, vertex tuple).
func (h *Hypergraph) edgeContentLess(a, b uint32) bool {
	la, lb := h.EdgeLabel(a), h.EdgeLabel(b)
	if la != lb {
		return la < lb
	}
	return slices.Compare(h.Edge(a), h.Edge(b)) < 0
}
