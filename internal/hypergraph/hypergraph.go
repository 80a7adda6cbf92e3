// Package hypergraph implements the labelled-hypergraph data model of
// HGMatch (paper §III-A) and its storage substrate (paper §IV): hyperedge
// tables partitioned by hyperedge signature, each with a lightweight
// inverted hyperedge index mapping vertices to posting lists of incident
// hyperedge IDs.
//
// A Hypergraph value is immutable: readers never lock, and a compiled plan
// may be shared by any number of workers. Online updates do not mutate a
// Hypergraph — they go through a DeltaBuffer, which accepts inserts and
// deletes into per-signature append-side tables and publishes fresh
// immutable snapshots through an atomic pointer (MVCC: in-flight matches
// keep the snapshot they started on). HGMatch itself builds no auxiliary
// structure at match time; the indexed hypergraph is created offline or by
// snapshot publication.
package hypergraph

import (
	"fmt"
	"slices"

	"hgmatch/internal/setops"
)

// VertexID identifies a vertex. IDs are dense, in [0, NumVertices).
type VertexID = uint32

// EdgeID identifies a hyperedge. IDs are dense, in [0, NumEdges).
type EdgeID = uint32

// Label identifies a vertex label. Labels are interned by a Dict.
type Label = uint32

// NoEdgeLabel marks a hyperedge without a label (the default; the paper
// studies vertex-labelled hypergraphs, edge labels are the footnote-2
// extension).
const NoEdgeLabel Label = ^Label(0)

// Hypergraph is an undirected, vertex-labelled simple hypergraph together
// with its partitioned hyperedge tables and inverted hyperedge indexes.
//
// Storage is flat and pointer-free: hyperedges and incidence lists are CSR
// pairs (offsets + cells), and the hyperedge tables are rows of a partition
// directory over four shared arrays — the shape binary format v3 has on
// disk, so a built, a loaded and a memory-mapped graph are the same
// structure and the collector has a few dozen arrays to look at however
// many tables the graph has.
type Hypergraph struct {
	labels []Label // vertex -> label

	// Edge table: edge e holds the strictly increasing vertex IDs
	// edgeVerts[edgeOff[e]:edgeOff[e+1]]. edgeLabels is nil when unlabelled.
	edgeOff    []uint32
	edgeVerts  []uint32
	edgeLabels []Label

	// Incidence lists he(v) = incEdges[incOff[v]:incOff[v+1]], sorted. An
	// online snapshot shares its base's pair and overrides the lists its
	// pending writes touched in an overlay it derives from its own fields
	// the first time a reader asks (see incOverlay) — the matcher never
	// does, so a publication builds none. A vertex added online has no
	// incOff entry and is incident to nothing until the overlay says so.
	incOff   []uint32
	incEdges []uint32
	inc      *incOverlay

	// Partition directory: tables[i] and tables[i+1] bound table i's
	// windows in partEdges, partVerts, partOffs and partPosts (one sentinel
	// row closes the last table). side holds a materialised view for every
	// table that carries more than its row: a bitmap sidecar, an
	// append-side delta, a tombstone mask — and, past the directory, the
	// tables an online snapshot added. nParts counts both.
	tables    []TableRow
	partEdges []EdgeID
	partVerts []VertexID
	partOffs  []uint32
	partPosts []EdgeID
	side      map[uint32]*Partition
	nParts    int

	// edgePart links a base edge to its table; pendPart does so for the
	// online edges of a snapshot (IDs past len(edgePart)).
	edgePart []uint32
	pendPart []uint32

	// sigTab interns every distinct signature to a dense SigID; sigParts
	// maps a SigID to its vertex-label-only partition (-1 when the
	// signature occurs only under edge labels), and labelledParts maps
	// (edge label, SigID) pairs for the edge-labelled extension. Lookups
	// probe label slices directly — no canonical key bytes are built. An
	// online snapshot shares all three with its base; online holds what
	// the writes since the last compaction added past them, and every
	// lookup probes the base first.
	sigTab        *u32Interner
	sigParts      []int32
	labelledParts map[uint64]int32
	online        *onlineTables

	dict     *Dict // vertex-label dictionary (may be nil for raw graphs)
	edgeDict *Dict // edge-label dictionary (may be nil)

	numLabels  int
	totalArity int
	maxArity   int

	// Online-snapshot state (zero for offline-built graphs). dead lists
	// tombstoned hyperedge IDs: the slots stay in the edge table (IDs are
	// never renumbered between compactions) but the edges are in no
	// table's member list and no incidence list, so matching never
	// produces them. A tombstoned base edge does stay in its table's base
	// postings, which are shared with the base until compaction: the table
	// is masked (see Partition), and candidate generation subtracts its
	// dead list. delta marks the graph as a DeltaBuffer snapshot (some
	// partitions may carry append-side segments or masks); deltaVersion is
	// the buffer's publication counter, letting (snapshot, version) travel
	// as one consistent pair.
	dead         []EdgeID // sorted tombstoned edge IDs
	delta        bool
	deltaVersion uint64
}

// TableRow is one row of the partition directory: the table's interned
// signature and edge label, and where its windows start in the shared
// member-edge, vertex-dictionary and posting arrays. Windows are running
// sums, so the next row's starts are this row's ends; the CSR offsets of
// table i (one more entry than it has dictionary vertices, counted from 0
// within the table) start at Verts+i in the shared offsets array.
type TableRow struct {
	SigID     SigID
	EdgeLabel Label
	Edges     uint32
	Verts     uint32
	Posts     uint32
}

// NumVertices returns |V(H)|.
func (h *Hypergraph) NumVertices() int { return len(h.labels) }

// NumEdges returns the size of the hyperedge ID space, [0, NumEdges).
// On an online snapshot this includes tombstoned slots; NumLiveEdges
// excludes them (the two agree on offline-built graphs).
func (h *Hypergraph) NumEdges() int { return len(h.edgeOff) - 1 }

// NumLiveEdges returns |E(H)|: the number of non-tombstoned hyperedges.
func (h *Hypergraph) NumLiveEdges() int { return h.NumEdges() - len(h.dead) }

// NumDeadEdges returns the number of tombstoned hyperedge slots awaiting
// compaction (always 0 on offline-built graphs).
func (h *Hypergraph) NumDeadEdges() int { return len(h.dead) }

// DeadEdges returns the sorted tombstoned hyperedge IDs. Callers must not
// mutate it.
func (h *Hypergraph) DeadEdges() []EdgeID { return h.dead }

// IsDeadEdge reports whether e is a tombstoned slot. Not a hot-path
// operation: matching never produces dead edges, so embeddings need no
// per-result liveness checks.
func (h *Hypergraph) IsDeadEdge(e EdgeID) bool {
	return setops.Contains(h.dead, e)
}

// HasDelta reports whether h is an online snapshot carrying uncompacted
// state: append-side partition segments, tombstoned edges or vertices
// added online. Such graphs match exactly like compacted ones; only
// whole-index consumers (binary save, Compacted) care.
func (h *Hypergraph) HasDelta() bool { return h.delta }

// DeltaVersion returns the DeltaBuffer publication counter this snapshot
// was produced at (0 for offline-built graphs). Serving layers combine it
// with the graph name to key plan caches.
func (h *Hypergraph) DeltaVersion() uint64 { return h.deltaVersion }

// NumLabels returns |Σ|, the number of distinct vertex labels in use.
func (h *Hypergraph) NumLabels() int { return h.numLabels }

// Label returns the label of vertex v.
func (h *Hypergraph) Label(v VertexID) Label { return h.labels[v] }

// Labels returns the vertex->label table. Callers must not mutate it.
func (h *Hypergraph) Labels() []Label { return h.labels }

// Edge returns the sorted vertex set of hyperedge e. Callers must not
// mutate it.
func (h *Hypergraph) Edge(e EdgeID) []uint32 {
	lo, hi := h.edgeOff[e], h.edgeOff[e+1]
	return h.edgeVerts[lo:hi:hi]
}

// Arity returns a(e), the number of vertices in hyperedge e.
func (h *Hypergraph) Arity(e EdgeID) int { return int(h.edgeOff[e+1] - h.edgeOff[e]) }

// MaxArity returns a_max over all hyperedges (0 for an edgeless graph).
func (h *Hypergraph) MaxArity() int { return h.maxArity }

// AvgArity returns a_H, the average arity over live hyperedges.
func (h *Hypergraph) AvgArity() float64 {
	live := h.NumLiveEdges()
	if live == 0 {
		return 0
	}
	return float64(h.totalArity) / float64(live)
}

// TotalArity returns Σ_e a(e) over live hyperedges — the total storage
// cells of all edge tables.
func (h *Hypergraph) TotalArity() int { return h.totalArity }

// Incident returns he(v): the sorted edge IDs of all hyperedges incident to
// v. Callers must not mutate it.
func (h *Hypergraph) Incident(v VertexID) []uint32 {
	if h.inc != nil {
		if l, ok := h.inc.get(h)[v]; ok {
			return l
		}
	}
	return h.baseIncident(v)
}

// baseIncident returns v's list in the incidence CSR, without the overlay.
func (h *Hypergraph) baseIncident(v VertexID) []uint32 {
	if int(v)+1 >= len(h.incOff) {
		return nil
	}
	lo, hi := h.incOff[v], h.incOff[v+1]
	return h.incEdges[lo:hi:hi]
}

// Degree returns d(v) = |he(v)|.
func (h *Hypergraph) Degree(v VertexID) int { return len(h.Incident(v)) }

// EdgeLabel returns the label of hyperedge e, or NoEdgeLabel when the
// hypergraph is not edge-labelled.
func (h *Hypergraph) EdgeLabel(e EdgeID) Label {
	if h.edgeLabels == nil {
		return NoEdgeLabel
	}
	return h.edgeLabels[e]
}

// EdgeLabelled reports whether the hypergraph carries hyperedge labels.
func (h *Hypergraph) EdgeLabelled() bool { return h.edgeLabels != nil }

// Dict returns the vertex-label dictionary, or nil if the graph was built
// from numeric labels directly.
func (h *Hypergraph) Dict() *Dict { return h.dict }

// EdgeDict returns the edge-label dictionary, or nil.
func (h *Hypergraph) EdgeDict() *Dict { return h.edgeDict }

// NumPartitions returns the number of hyperedge tables (distinct
// (edge label, signature) pairs). On an online snapshot a table whose
// every member is tombstoned keeps its index, as an empty table, until the
// next compaction.
func (h *Hypergraph) NumPartitions() int { return h.nParts }

// Partition returns a view of the i-th hyperedge table.
func (h *Hypergraph) Partition(i int) Partition {
	if p := h.side[uint32(i)]; p != nil {
		return *p
	}
	r, end := &h.tables[i], &h.tables[i+1]
	return Partition{
		Sig:       h.Sig(r.SigID),
		SigID:     r.SigID,
		EdgeLabel: r.EdgeLabel,
		Edges:     h.partEdges[r.Edges:end.Edges:end.Edges],
		verts:     h.partVerts[r.Verts:end.Verts:end.Verts],
		offsets:   h.partOffs[int(r.Verts)+i : int(end.Verts)+i+1],
		posts:     h.partPosts[r.Posts:end.Posts:end.Posts],
	}
}

// rowLen returns the member count of directory row pi.
func (h *Hypergraph) rowLen(pi uint32) int {
	return int(h.tables[pi+1].Edges - h.tables[pi].Edges)
}

// onlySidecar reports whether side entry p of table pi is the directory
// row's own view plus a bitmap sidecar, owning no arrays besides it.
func (h *Hypergraph) onlySidecar(pi uint32, p *Partition) bool {
	return int(pi) < len(h.tables)-1 && !p.HasDelta() && p.dead == nil
}

// partOf returns the index of the table holding live edge e.
func (h *Hypergraph) partOf(e EdgeID) uint32 {
	if int(e) < len(h.edgePart) {
		return h.edgePart[e]
	}
	return h.pendPart[int(e)-len(h.edgePart)]
}

// NumSignatures returns the number of distinct interned signatures. On an
// online snapshot it counts every signature interned since the last
// compaction, including ones whose inserts were deleted again.
func (h *Hypergraph) NumSignatures() int { return h.sigTab.len() + h.online.numSigs() }

// LookupSig returns the interned SigID of sig, if any hyperedge of h
// carries it. The probe hashes the label slice in place and allocates
// nothing, which is what makes SigID the planner's currency: one lookup
// per query hyperedge per compile, then integer IDs everywhere.
func (h *Hypergraph) LookupSig(sig Signature) (SigID, bool) {
	if id, ok := h.sigTab.lookup(0, sig); ok || h.online == nil {
		return id, ok
	}
	if id, ok := h.online.sigs.lookup(0, sig); ok {
		return SigID(h.sigTab.len()) + id, true
	}
	return NoSigID, false
}

// Sig returns the canonical signature interned under id. Callers must not
// mutate it.
func (h *Hypergraph) Sig(id SigID) Signature {
	if n := SigID(h.sigTab.len()); id >= n {
		return Signature(h.online.sigs.body(id - n))
	}
	return Signature(h.sigTab.body(id))
}

// PartitionBySig returns the vertex-label-only hyperedge table for an
// interned signature, or the empty table when the signature occurs only
// under edge labels. This is the O(1) fetch behind Definition V.2 with the
// hash probe already paid at interning time.
func (h *Hypergraph) PartitionBySig(id SigID) Partition {
	return h.PartitionBySigLabelled(NoEdgeLabel, id)
}

// PartitionBySigLabelled returns the table for (edge label, interned
// signature) in an edge-labelled hypergraph.
func (h *Hypergraph) PartitionBySigLabelled(el Label, id SigID) Partition {
	if pi := h.tableOf(el, id); pi >= 0 {
		return h.Partition(pi)
	}
	return Partition{}
}

// tableOf returns the index of the (edge label, signature) table, or -1.
func (h *Hypergraph) tableOf(el Label, id SigID) int {
	pi := int32(-1)
	if el != NoEdgeLabel {
		if p, ok := h.labelledParts[partKey(el, id)]; ok {
			pi = p
		}
	} else if id < SigID(len(h.sigParts)) {
		pi = h.sigParts[id]
	}
	if pi < 0 && h.online != nil {
		if p, ok := h.online.parts[partKey(el, id)]; ok {
			pi = p
		}
	}
	return int(pi)
}

// partKey is the labelledParts key of a table.
func partKey(el Label, id SigID) uint64 { return uint64(el)<<32 | uint64(id) }

// CardinalityBySig returns Card for an interned signature: the length of
// its vertex-label-only table.
func (h *Hypergraph) CardinalityBySig(id SigID) int {
	p := h.PartitionBySig(id)
	return p.Len()
}

// partitionFor returns the hyperedge table whose signature equals sig, or
// the empty table when no data hyperedge has that signature. This
// implements the O(1) cardinality fetch of Definition V.2: Card(e_q, H) is
// the length of partitionFor(S(e_q)). It is the Signature-value
// convenience over LookupSig + PartitionBySig.
func (h *Hypergraph) partitionFor(sig Signature) Partition {
	id, ok := h.LookupSig(sig)
	if !ok {
		return Partition{}
	}
	return h.PartitionBySig(id)
}

// Cardinality returns Card(sig, H) = number of data hyperedges with the
// given signature (paper Definition V.2).
func (h *Hypergraph) Cardinality(sig Signature) int {
	p := h.partitionFor(sig)
	return p.Len()
}

// SignatureOf returns S(e) for a hyperedge of this graph.
func (h *Hypergraph) SignatureOf(e EdgeID) Signature { return h.Sig(h.SigIDOf(e)) }

// SigIDOf returns the interned signature ID of hyperedge e.
func (h *Hypergraph) SigIDOf(e EdgeID) SigID {
	pi := h.partOf(e)
	if int(pi) < len(h.tables)-1 {
		return h.tables[pi].SigID
	}
	return h.side[pi].SigID
}

// AdjacentVertices returns adj(u): all vertices sharing at least one
// hyperedge with u, excluding u itself, as a sorted set. It allocates; it is
// intended for query graphs and offline filters, not the matching hot path.
func (h *Hypergraph) AdjacentVertices(u VertexID) []uint32 {
	var out []uint32
	for _, e := range h.Incident(u) {
		out = setops.Union(out[:0:0], out, h.Edge(e))
	}
	// Remove u itself.
	return setops.Difference(out[:0:0], out, []uint32{u})
}

// AdjacentEdges returns adj(e): all hyperedges sharing at least one vertex
// with e, excluding e itself, as a sorted set.
func (h *Hypergraph) AdjacentEdges(e EdgeID) []uint32 {
	var out []uint32
	for _, v := range h.Edge(e) {
		out = setops.Union(out[:0:0], out, h.Incident(v))
	}
	return setops.Difference(out[:0:0], out, []uint32{e})
}

// ArityHistogram returns, for vertex v, a map arity -> |he_a(v)| (the number
// of incident hyperedges of each arity). Used by the IHS filter's arity
// containment rule.
func (h *Hypergraph) ArityHistogram(v VertexID) map[int]int {
	m := make(map[int]int, 4)
	for _, e := range h.Incident(v) {
		m[h.Arity(e)]++
	}
	return m
}

// FindEdge returns the ID of the hyperedge with exactly the given sorted
// vertex set, if present. Used by the match-by-vertex baseline to check the
// Theorem III.2 constraint. Every member's incidence list contains the
// edge, so the scan runs over the rarest vertex's list.
func (h *Hypergraph) FindEdge(vertices []uint32) (EdgeID, bool) {
	if len(vertices) == 0 {
		return 0, false
	}
	var best []uint32
	for i, v := range vertices {
		if int(v) >= len(h.labels) {
			return 0, false
		}
		if inc := h.Incident(v); i == 0 || len(inc) < len(best) {
			best = inc
		}
	}
	for _, e := range best {
		if setops.Equal(h.Edge(e), vertices) {
			return e, true
		}
	}
	return 0, false
}

// WithoutBitmapSidecars returns a copy of h whose partitions carry no
// bitmap posting containers, sharing every other structure with h: the
// same graph with the sidecar entries taken out of the side table.
// Matching produces identical results on either graph — the sidecar is
// pure acceleration — so the copy serves two purposes: equivalence tests
// pin the hybrid kernels against the array-only path, and
// memory-constrained deployments can shed Stats.BitmapBytes of derived
// state.
func (h *Hypergraph) WithoutBitmapSidecars() *Hypergraph {
	nh := *h
	nh.side = nil
	for i, p := range h.side {
		if h.onlySidecar(i, p) {
			continue // the directory row alone serves
		}
		np := *p
		np.dropBitmapSidecar()
		nh.setSide(i, &np)
	}
	return &nh
}

// String returns a short human-readable summary.
func (h *Hypergraph) String() string {
	return fmt.Sprintf("Hypergraph{V=%d E=%d Σ=%d amax=%d a=%.1f partitions=%d}",
		h.NumVertices(), h.NumEdges(), h.NumLabels(), h.maxArity, h.AvgArity(), h.nParts)
}

// Validate checks structural invariants; it is meant for tests and loaders,
// not hot paths. It returns the first violation found. Tombstoned slots of
// online snapshots are required to be absent from every incidence list and
// every table's member list; only a masked table's base postings may still
// list them, and only its own. The remaining invariants apply to live edges
// only.
func (h *Hypergraph) Validate() error {
	if !setops.IsSorted(h.dead) {
		return fmt.Errorf("tombstone list not sorted")
	}
	seen := make(map[string]EdgeID, h.NumEdges())
	for e := EdgeID(0); int(e) < h.NumEdges(); e++ {
		vs := h.Edge(e)
		if len(vs) == 0 {
			return fmt.Errorf("edge %d is empty", e)
		}
		if !setops.IsSorted(vs) {
			return fmt.Errorf("edge %d vertex set not strictly sorted: %v", e, vs)
		}
		dead := h.IsDeadEdge(e)
		for _, v := range vs {
			if int(v) >= len(h.labels) {
				return fmt.Errorf("edge %d refers to unknown vertex %d", e, v)
			}
			if in := setops.Contains(h.Incident(v), e); in == dead {
				if dead {
					return fmt.Errorf("incidence list of vertex %d lists tombstoned edge %d", v, e)
				}
				return fmt.Errorf("incidence list of vertex %d misses edge %d", v, e)
			}
		}
		if dead {
			continue // tombstones may duplicate live edges awaiting compaction
		}
		key := keyWithEdgeLabel(h.EdgeLabel(e), Signature(vs))
		if dup, ok := seen[key]; ok {
			return fmt.Errorf("edges %d and %d are duplicates", dup, e)
		}
		seen[key] = e
	}
	for v := range h.labels {
		es := h.Incident(VertexID(v))
		if !setops.IsSorted(es) {
			return fmt.Errorf("incidence list of vertex %d not sorted", v)
		}
		for _, e := range es {
			if int(e) >= h.NumEdges() || !setops.Contains(h.Edge(e), VertexID(v)) {
				return fmt.Errorf("vertex %d lists edge %d but edge lacks it", v, e)
			}
		}
	}
	total := 0
	for pi := 0; pi < h.nParts; pi++ {
		p := h.Partition(pi)
		if p.Len() == 0 && !h.delta {
			return fmt.Errorf("partition %d is empty", pi)
		}
		if !p.Sig.Equal(h.Sig(p.SigID)) {
			return fmt.Errorf("partition %d signature is not the one interned under its SigID", pi)
		}
		if q := h.PartitionBySigLabelled(p.EdgeLabel, p.SigID); !slices.Equal(q.Edges, p.Edges) {
			return fmt.Errorf("partition %d is not the table its (edge label, signature) resolves to", pi)
		}
		total += p.Len()
		// Members are live; a mask's dead members are tombstones of this
		// very table.
		for i, es := range [][]EdgeID{p.Edges, p.DeadEdges()} {
			for _, e := range es {
				if h.IsDeadEdge(e) != (i == 1) {
					return fmt.Errorf("partition %d lists edge %d (tombstoned: %v) among its %s", pi, e, i == 0, [2]string{"live members", "dead ones"}[i])
				}
				if int(h.partOf(e)) != pi {
					return fmt.Errorf("edge %d partition cross-link broken", e)
				}
				if h.EdgeLabel(e) != p.EdgeLabel || !p.Sig.Equal(SignatureOf(h.Edge(e), h.labels)) {
					return fmt.Errorf("edge %d signature mismatch", e)
				}
			}
		}
		if err := p.validate(h); err != nil {
			return fmt.Errorf("partition %d: %w", pi, err)
		}
	}
	if total != h.NumLiveEdges() {
		return fmt.Errorf("partitions cover %d edges, graph has %d live", total, h.NumLiveEdges())
	}
	return nil
}
