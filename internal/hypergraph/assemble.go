package hypergraph

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

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
		// A table of more than scanMax edges carries its index; a smaller
		// one may carry an older file's full index or none at all.
		noIndex := end.Verts == r.Verts
		if end.Verts < r.Verts || end.Posts < r.Posts || noIndex != (end.Posts == r.Posts) ||
			(noIndex && int(end.Edges-r.Edges) > scanMax) {
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
// signature per table, computed from its first member — and returns each
// table's SigID. It reads the directory and writes only h.sigTab.
func (h *Hypergraph) internTableSigs() []SigID {
	cells := 0 // exact unless two edge labels share a signature
	for pi := 0; pi < h.nParts; pi++ {
		cells += h.Arity(h.partEdges[h.tables[pi].Edges])
	}
	h.sigTab = newU32Interner(h.nParts, cells)
	ids := make([]SigID, h.nParts)
	var sigBuf Signature
	for pi := range ids {
		sigBuf = AppendSignature(sigBuf[:0], h.Edge(h.partEdges[h.tables[pi].Edges]), h.labels)
		ids[pi], _ = h.sigTab.intern(0, sigBuf)
	}
	h.sigTab.compact()
	return ids
}

// stampTableSigs files each table's SigID in its directory row and derives
// the lookup tables.
func (h *Hypergraph) stampTableSigs(ids []SigID) error {
	for pi, id := range ids {
		h.tables[pi].SigID = id
	}
	return h.indexTables()
}

// Assemble constructs a Hypergraph from prebuilt storage. It is the fast
// path behind loading binary formats v2 and v3 onto the heap — incidence
// lists, the signature interner and the bitmap sidecars are rebuilt in
// linear time, everything else is adopted as is.
//
// Assemble validates the input enough to guarantee the result satisfies
// every Hypergraph invariant (Validate passes) without paying the
// Builder's costs: the CSR arrays are required to be exactly the index
// the Builder produces, which gives a table of at most scanMax edges
// none; malformed offset tables, out-of-range IDs, unsorted or duplicate
// edges and inconsistent posting lists all return errors, never panic.
// Files written before small tables dropped their index carry the
// canonical index on those tables too: it is checked like any other, then
// dropped (dropSmallIndexes). Slices are retained by reference; callers
// must not reuse them.
//
// Phases 0 and 1 — the edge shapes and the edge→table cover — run on the
// calling goroutine: every later check indexes through what they prove.
// The rest runs on GOMAXPROCS goroutines (see assembleConcurrent), and the
// verdict does not depend on how many there were.
func Assemble(st Storage) (*Hypergraph, error) {
	h, err := newFromStorage(&st)
	if err != nil {
		return nil, err
	}
	// Phase 0: every edge is a non-empty, strictly sorted set of known
	// vertices.
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

	if err := h.assembleConcurrent(runtime.GOMAXPROCS(0)); err != nil {
		return nil, err
	}
	h.dropSmallIndexes()
	h.buildSidecars() // derived: rebuilt on every heap load
	return h, nil
}

// dropSmallIndexes takes the index windows of every table of at most
// scanMax edges out of the shared arrays, which an older file still fills,
// into fresh arrays and a fresh directory (the input's may be shared). A
// graph without such windows is left as it is.
func (h *Hypergraph) dropSmallIndexes() {
	np := h.nParts
	var nv, npost int
	for pi := 0; pi < np; pi++ {
		if h.rowLen(uint32(pi)) > scanMax {
			nv += int(h.tables[pi+1].Verts - h.tables[pi].Verts)
			npost += int(h.tables[pi+1].Posts - h.tables[pi].Posts)
		}
	}
	if nv == len(h.partVerts) {
		return
	}
	tables := make([]TableRow, np+1)
	verts := make([]VertexID, 0, nv)
	offs := make([]uint32, 0, nv+np)
	posts := make([]EdgeID, 0, npost)
	for pi := 0; pi < np; pi++ {
		r, end := h.tables[pi], h.tables[pi+1]
		tables[pi] = TableRow{SigID: r.SigID, EdgeLabel: r.EdgeLabel, Edges: r.Edges,
			Verts: uint32(len(verts)), Posts: uint32(len(posts))}
		if h.rowLen(uint32(pi)) <= scanMax {
			offs = append(offs, 0)
			continue
		}
		verts = append(verts, h.partVerts[r.Verts:end.Verts]...)
		offs = append(offs, h.partOffs[int(r.Verts)+pi:int(end.Verts)+pi+1]...)
		posts = append(posts, h.partPosts[r.Posts:end.Posts]...)
	}
	tables[np] = TableRow{Edges: h.tables[np].Edges, Verts: uint32(len(verts)), Posts: uint32(len(posts))}
	h.tables, h.partVerts, h.partOffs, h.partPosts = tables, verts, offs, posts
}

// assembleConcurrent runs the checks and derivations that need only what
// phases 0–1 proved, on up to workers goroutines:
//
//   - phase 2, the canonical-CSR replay, per table;
//   - phase 3a, signature interning (one task) and the directory lookups
//     built from it (after the join);
//   - phase 3b, per-edge label and signature coherence, per table;
//   - phase 3c, the exact-duplicate check, per table: two identical edges
//     have one label and one signature, so once 3a and 3b hold they share
//     a table;
//   - the incidence lists and the label count.
//
// Per-table work is split into ranges of tables, and each range stops at
// its first failing table. The error returned is the one a single
// goroutine running the phases in order, table by table, would return
// first, whatever the number of workers.
func (h *Hypergraph) assembleConcurrent(workers int) error {
	bounds := h.tableRanges(workers)
	nr := len(bounds) - 1
	csrErr := make([]error, nr)
	cohErr := make([]error, nr)
	dupErr := make([]error, nr)
	var sigIDs []SigID
	// The unsplittable tasks go first, so they start while the ranges
	// spread over the other workers.
	jobs := []func(*assembleScratch){
		func(*assembleScratch) { sigIDs = h.internTableSigs() },
		func(*assembleScratch) { h.buildIncidence(); h.countLabels() },
	}
	for i := 0; i < nr; i++ {
		lo, hi := bounds[i], bounds[i+1]
		jobs = append(jobs,
			func(s *assembleScratch) { csrErr[i] = h.checkCanonicalCSR(lo, hi, s) },
			func(s *assembleScratch) { cohErr[i] = h.checkCoherence(lo, hi, s) },
			func(s *assembleScratch) { dupErr[i] = h.checkNoDuplicateEdges(lo, hi, s) },
		)
	}
	runJobs(workers, jobs)
	if err := firstError(csrErr); err != nil {
		return err
	}
	if err := h.stampTableSigs(sigIDs); err != nil {
		return err
	}
	if err := firstError(cohErr); err != nil {
		return err
	}
	return firstError(dupErr)
}

// assembleScratch is one worker's reusable scratch.
type assembleScratch struct {
	cur []uint32 // posting cursor per dictionary entry
	sig [2]Signature
	ids []EdgeID
}

// runJobs runs every job once on up to workers goroutines, the calling
// goroutine among them, each with its own scratch.
func runJobs(workers int, jobs []func(*assembleScratch)) {
	var next atomic.Int64
	work := func() {
		var s assembleScratch
		for i := next.Add(1) - 1; i < int64(len(jobs)); i = next.Add(1) - 1 {
			jobs[i](&s)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(workers, len(jobs)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// firstError returns the first non-nil error in range order.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// tableRanges cuts the tables into about four ranges per worker of
// similar incidence counts (one range for a single worker), returned as
// boundaries: range i is tables [b[i], b[i+1]).
func (h *Hypergraph) tableRanges(workers int) []int {
	np := h.nParts
	n := min(np, 4*workers)
	if workers <= 1 || n <= 1 {
		return []int{0, np}
	}
	total := uint64(h.tables[np].Posts) + uint64(h.tables[np].Edges)
	bounds := []int{0}
	for i := 1; i < n; i++ {
		want := total * uint64(i) / uint64(n)
		b := sort.Search(np, func(pi int) bool {
			return uint64(h.tables[pi].Posts)+uint64(h.tables[pi].Edges) >= want
		})
		if b > bounds[len(bounds)-1] && b < np {
			bounds = append(bounds, b)
		}
	}
	return append(bounds, np)
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
	if err := h.stampTableSigs(h.internTableSigs()); err != nil {
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

// checkCanonicalCSR verifies that tables [lo, hi) hold exactly the
// canonical CSR index buildCSR would produce from their member edges
// (on a table of at most scanMax edges, that or none):
// each table's vertex dictionary is the sorted union of its members'
// vertices, and each dictionary vertex's posting list is the members
// containing it, ascending. Walking the members in ID order consumes every
// posting list front to back, so equality is one pass over the table's
// incidences, each ranked by a binary search in the table's own (small,
// cache-resident) dictionary. Because the canonical index is unique,
// equality both validates the arrays and proves they ARE the inverted
// hyperedge index. It stops at the first table that diverges.
func (h *Hypergraph) checkCanonicalCSR(lo, hi int, s *assembleScratch) error {
	for pi := lo; pi < hi; pi++ {
		if err := h.checkTableCSR(pi, s); err != nil {
			return err
		}
	}
	return nil
}

func (h *Hypergraph) checkTableCSR(pi int, s *assembleScratch) error {
	r, end := h.tables[pi], h.tables[pi+1]
	if end.Verts == r.Verts && h.rowLen(uint32(pi)) <= scanMax {
		return nil // a small table without an index
	}
	verts := h.partVerts[r.Verts:end.Verts]
	offs := h.partOffs[int(r.Verts)+pi : int(end.Verts)+pi+1] // offs[0] == 0: phase 1
	posts := h.partPosts[r.Posts:end.Posts]
	for i, v := range verts {
		if int(v) >= len(h.labels) || (i > 0 && v <= verts[i-1]) {
			return fmt.Errorf("hypergraph: partition %d vertex dictionary diverges at entry %d", pi, i)
		}
		if offs[i+1] <= offs[i] || int(offs[i+1]) > len(posts) {
			return fmt.Errorf("hypergraph: partition %d offset of vertex %d diverges", pi, v)
		}
	}
	if int(offs[len(verts)]) != len(posts) {
		return fmt.Errorf("hypergraph: partition %d final offset diverges", pi)
	}
	s.cur = append(s.cur[:0], offs[:len(verts)]...)
	for _, e := range h.partEdges[r.Edges:end.Edges] {
		for _, v := range h.Edge(e) {
			i := csrRank(verts, v)
			if i < 0 {
				return fmt.Errorf("hypergraph: partition %d vertex dictionary lacks vertex %d", pi, v)
			}
			if c := s.cur[i]; c >= offs[i+1] || posts[c] != e {
				return fmt.Errorf("hypergraph: partition %d posting list of vertex %d diverges at edge %d", pi, v, e)
			}
			s.cur[i]++
		}
	}
	for i, c := range s.cur {
		if c != offs[i+1] {
			return fmt.Errorf("hypergraph: partition %d posting list of vertex %d has %d extra entries", pi, verts[i], offs[i+1]-c)
		}
	}
	return nil
}

// checkCoherence verifies that every member of tables [lo, hi) carries
// its table's edge label and the signature of the table's first member —
// the one the table is interned under.
func (h *Hypergraph) checkCoherence(lo, hi int, s *assembleScratch) error {
	for pi := lo; pi < hi; pi++ {
		r := h.tables[pi]
		members := h.partEdges[r.Edges:h.tables[pi+1].Edges]
		for j, e := range members {
			if h.EdgeLabel(e) != r.EdgeLabel {
				return fmt.Errorf("hypergraph: edge %d label differs from partition %d's", e, pi)
			}
			if j == 0 {
				continue
			}
			if j == 1 {
				s.sig[0] = AppendSignature(s.sig[0][:0], h.Edge(members[0]), h.labels)
			}
			s.sig[1] = AppendSignature(s.sig[1][:0], h.Edge(e), h.labels)
			if !s.sig[0].Equal(s.sig[1]) {
				return fmt.Errorf("hypergraph: edge %d signature differs from partition %d's", e, pi)
			}
		}
	}
	return nil
}

// checkNoDuplicateEdges rejects exact duplicate hyperedges (same vertex
// set and edge label) among the members of tables [lo, hi) — the one
// Builder invariant the other checks don't already imply. Each table's
// members are sorted by (edge label, vertex tuple, ID), so duplicates
// become adjacent and the lowest-ID pair of a run is reported.
func (h *Hypergraph) checkNoDuplicateEdges(lo, hi int, s *assembleScratch) error {
	for pi := lo; pi < hi; pi++ {
		members := h.partEdges[h.tables[pi].Edges:h.tables[pi+1].Edges]
		if len(members) < 2 {
			continue
		}
		s.ids = append(s.ids[:0], members...)
		slices.SortFunc(s.ids, func(a, b EdgeID) int {
			if c := h.edgeContentCompare(a, b); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
		for i := 1; i < len(s.ids); i++ {
			if a, b := s.ids[i-1], s.ids[i]; h.edgeContentCompare(a, b) == 0 {
				return fmt.Errorf("hypergraph: edges %d and %d are duplicates", a, b)
			}
		}
	}
	return nil
}

// edgeContentCompare orders edges by (edge label, vertex tuple).
func (h *Hypergraph) edgeContentCompare(a, b EdgeID) int {
	if c := cmp.Compare(h.EdgeLabel(a), h.EdgeLabel(b)); c != 0 {
		return c
	}
	return slices.Compare(h.Edge(a), h.Edge(b))
}
