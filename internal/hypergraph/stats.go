package hypergraph

// Stats summarises a hypergraph with the columns of the paper's Table II:
// |V|, |E|, |Σ|, a_max, average arity a, and the size of the inverted
// hyperedge index — plus the interned-signature table the storage layer
// keys everything on.
type Stats struct {
	NumVertices   int     // |V|
	NumEdges      int     // |E|
	NumLabels     int     // |Σ|
	MaxArity      int     // a_max
	AvgArity      float64 // a
	IndexBytes    int     // |Index|: total CSR inverted-index footprint (verts + offsets + postings)
	GraphBytes    int     // hyperedge-table footprint (edge cells + signature headers)
	Partitions    int     // number of hyperedge tables (not in Table II; diagnostic)
	Signatures    int     // number of distinct interned signatures (SigIDs)
	SigTableBytes int     // footprint of the signature interner's hash table
	DeltaEdges    int     // online hyperedges in append-side segments (uncompacted)
	DeadEdges     int     // tombstoned hyperedge slots awaiting compaction

	// Bitmap posting-container sidecar (word-parallel set kernels):
	// how many dense vertices carry a bitmap container, and the sidecar's
	// total footprint (bitmap words + per-vertex index + rank tables),
	// counted separately from IndexBytes so operators can see what the
	// acceleration structure costs on top of the CSR index.
	BitmapVertices int
	BitmapBytes    int
}

// ComputeStats gathers Table II-style statistics for h. The four byte
// counts are the exact lengths of the arrays behind them, so on a heap
// graph their sum is what the graph costs the Go heap: IndexBytes the
// shared CSR arrays (plus the delta blocks of an online snapshot),
// BitmapBytes the sidecars, SigTableBytes the interner, GraphBytes the
// rest — labels, edge and incidence CSR, member lists, edge→table links,
// the partition directory and its lookups.
func ComputeStats(h *Hypergraph) Stats {
	s := Stats{
		NumVertices:   h.NumVertices(),
		NumEdges:      h.NumLiveEdges(),
		DeadEdges:     h.NumDeadEdges(),
		NumLabels:     h.NumLabels(),
		MaxArity:      h.MaxArity(),
		AvgArity:      h.AvgArity(),
		Partitions:    h.NumPartitions(),
		Signatures:    h.NumSignatures(),
		SigTableBytes: h.sigTab.tableBytes(),
		IndexBytes:    4 * (len(h.partVerts) + len(h.partOffs) + len(h.partPosts)),
	}
	s.GraphBytes = 4*(len(h.labels)+len(h.edgeOff)+len(h.edgeVerts)+len(h.edgeLabels)+
		len(h.incOff)+len(h.incEdges)+len(h.edgePart)+len(h.pendPart)+len(h.partEdges)+len(h.sigParts)+len(h.dead)) +
		tableRowBytes*len(h.tables) + 16*len(h.labelledParts)
	for _, l := range h.incOver {
		s.GraphBytes += 4 * len(l)
	}
	for pi, p := range h.side {
		bv, bb := p.BitmapStats()
		s.BitmapVertices += bv
		s.BitmapBytes += bb
		if h.onlySidecar(pi, p) {
			continue
		}
		// A table the snapshot owns: its member list and delta block, and
		// the base block too when publication rebuilt it.
		if p.Len() == 0 {
			s.Partitions--
		}
		s.DeltaEdges += p.NumDeltaEdges()
		s.GraphBytes += 4 * len(p.Edges)
		s.IndexBytes += 4 * (len(p.dverts) + len(p.doffsets) + len(p.dposts))
		if int(pi) >= len(h.tables)-1 || p.NumBaseEdges() != h.rowLen(pi) {
			s.IndexBytes += 4 * (len(p.verts) + len(p.offsets) + len(p.posts))
		}
	}
	return s
}

// tableRowBytes is the size of one TableRow: five 32-bit columns.
const tableRowBytes = 20
