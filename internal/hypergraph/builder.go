package hypergraph

import (
	"cmp"
	"fmt"
	"slices"

	"hgmatch/internal/setops"
)

// Builder accumulates vertices and hyperedges and produces an immutable,
// indexed Hypergraph. Building performs the paper's offline preprocessing
// (§IV, §VII-A): repeated vertices within a hyperedge and repeated
// hyperedges are removed, then the hyperedge tables are partitioned by
// signature and the inverted hyperedge index is constructed per table.
type Builder struct {
	labels     []Label
	edgeOff    []uint32 // raw edge i is edgeVerts[edgeOff[i]:edgeOff[i+1]]
	edgeVerts  []uint32
	edgeLabels []Label
	dict       *Dict
	edgeDict   *Dict
	hasEdgeLbl bool
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder {
	return &Builder{edgeOff: []uint32{0}}
}

// WithDicts attaches label dictionaries so the built graph can render label
// names; optional.
func (b *Builder) WithDicts(vertex, edge *Dict) *Builder {
	b.dict, b.edgeDict = vertex, edge
	return b
}

// AddVertex appends a vertex with the given label and returns its ID.
func (b *Builder) AddVertex(l Label) VertexID {
	b.labels = append(b.labels, l)
	return VertexID(len(b.labels) - 1)
}

// NumVertices returns the number of vertices added so far.
func (b *Builder) NumVertices() int { return len(b.labels) }

// AddEdge appends a hyperedge over the given vertices. The slice is copied;
// order and duplicates are normalised at Build time.
func (b *Builder) AddEdge(vertices ...uint32) {
	b.edgeVerts = append(b.edgeVerts, vertices...)
	b.edgeOff = append(b.edgeOff, uint32(len(b.edgeVerts)))
	b.edgeLabels = append(b.edgeLabels, NoEdgeLabel)
}

// AddLabelledEdge appends a hyperedge carrying a hyperedge label (the
// footnote-2 extension). Mixing labelled and unlabelled edges is allowed;
// unlabelled edges get NoEdgeLabel.
func (b *Builder) AddLabelledEdge(label Label, vertices ...uint32) {
	b.AddEdge(vertices...)
	b.edgeLabels[len(b.edgeLabels)-1] = label
	b.hasEdgeLbl = true
}

// Build normalises, deduplicates, partitions and indexes, producing the
// immutable Hypergraph. The builder may be reused afterwards, but edges
// added before Build are retained.
func (b *Builder) Build() (*Hypergraph, error) {
	h := &Hypergraph{
		labels:   slices.Clone(b.labels),
		dict:     b.dict,
		edgeDict: b.edgeDict,
	}

	// Normalise and deduplicate hyperedges. Dedup interns the exact
	// (edge label, sorted vertex set) pair — ID-based, no per-edge key
	// bytes — and the interner includes the edge label so that two
	// same-vertex edges with different labels coexist (they are distinct
	// relations in an edge-labelled hypergraph). Kept edges receive dense
	// IDs in input order, so the interner's flat arrays are the edge table.
	seen := newU32Interner(len(b.edgeLabels), len(b.edgeVerts))
	var vs []uint32
	for i, el := range b.edgeLabels {
		vs = append(vs[:0], b.edgeVerts[b.edgeOff[i]:b.edgeOff[i+1]]...)
		slices.Sort(vs)
		vs = setops.Dedup(vs)
		if len(vs) == 0 {
			continue // paper: hyperedges are non-empty subsets
		}
		for _, v := range vs {
			if int(v) >= len(h.labels) {
				return nil, fmt.Errorf("hypergraph: edge %d references unknown vertex %d", i, v)
			}
		}
		if _, added := seen.intern(el, vs); !added {
			continue // repeated hyperedge: dropped, per paper preprocessing
		}
		h.maxArity = max(h.maxArity, len(vs))
	}
	h.edgeOff, h.edgeVerts = seen.off, seen.cells
	if b.hasEdgeLbl {
		h.edgeLabels = seen.tags
	}
	h.totalArity = len(h.edgeVerts)

	h.buildIncidence()
	h.buildTables()
	h.countLabels()
	return h, nil
}

// MustBuild is Build that panics on error; convenient in tests and
// generators where inputs are known valid.
func (b *Builder) MustBuild() *Hypergraph {
	h, err := b.Build()
	if err != nil {
		panic(err)
	}
	return h
}

// buildIncidence derives the incidence CSR from the edge table by a
// count / prefix-sum / fill pass; edges are visited in increasing ID, so
// every list comes out sorted.
func (h *Hypergraph) buildIncidence() {
	off := make([]uint32, len(h.labels)+1)
	for _, v := range h.edgeVerts {
		off[v+1]++
	}
	for v := range h.labels {
		off[v+1] += off[v]
	}
	inc := make([]uint32, len(h.edgeVerts))
	next := slices.Clone(off[:len(h.labels)])
	for e := 0; e < h.NumEdges(); e++ {
		for _, v := range h.Edge(EdgeID(e)) {
			inc[next[v]] = EdgeID(e)
			next[v]++
		}
	}
	h.incOff, h.incEdges = off, inc
}

// buildTables partitions the edge table by (edge label, signature) and
// builds the directory, the member lists and every table's CSR inverted
// index into the shared arrays.
func (h *Hypergraph) buildTables() {
	ne := h.NumEdges()
	h.edgePart = make([]uint32, ne)

	// Pass 1: intern every edge's signature (one hash probe per edge, no
	// key bytes), number the (edge label, SigID) groups in first-seen order
	// and count their members.
	h.sigTab = newU32Interner(16, 64)
	byKey := make(map[uint64]uint32)
	var groups []TableRow // Edges holds the member count for now
	sigBuf := make(Signature, 0, 16)
	for e := 0; e < ne; e++ {
		sigBuf = AppendSignature(sigBuf[:0], h.Edge(EdgeID(e)), h.labels)
		id, _ := h.sigTab.intern(0, sigBuf)
		key := partKey(h.EdgeLabel(EdgeID(e)), id)
		g, ok := byKey[key]
		if !ok {
			g = uint32(len(groups))
			byKey[key] = g
			groups = append(groups, TableRow{SigID: id, EdgeLabel: h.EdgeLabel(EdgeID(e))})
		}
		groups[g].Edges++
		h.edgePart[e] = g
	}
	h.sigTab.compact()

	// Canonical partition order: by (edge label, signature), numerically —
	// the same order the former byte-key sort produced, so partition
	// indices stay deterministic across builds and binary round trips.
	order := make([]uint32, len(groups))
	for i := range order {
		order[i] = uint32(i)
	}
	slices.SortFunc(order, func(a, b uint32) int {
		ga, gb := &groups[a], &groups[b]
		if ga.EdgeLabel != gb.EdgeLabel {
			return cmp.Compare(ga.EdgeLabel, gb.EdgeLabel)
		}
		return slices.Compare(h.Sig(ga.SigID), h.Sig(gb.SigID))
	})
	np := len(groups)
	h.tables = make([]TableRow, np+1)
	slot := make([]uint32, np) // group -> table index
	start := uint32(0)
	for pi, g := range order {
		h.tables[pi] = TableRow{SigID: groups[g].SigID, EdgeLabel: groups[g].EdgeLabel, Edges: start}
		start += groups[g].Edges
		slot[g] = uint32(pi)
	}
	h.tables[np].Edges = start

	// Member lists: edges land in increasing ID, so every list is sorted.
	h.partEdges = make([]EdgeID, ne)
	next := make([]uint32, np)
	for pi := range next {
		next[pi] = h.tables[pi].Edges
	}
	for e := range h.edgePart {
		pi := slot[h.edgePart[e]]
		h.edgePart[e] = pi
		h.partEdges[next[pi]] = EdgeID(e)
		next[pi]++
	}
	h.nParts = np
	h.buildCSR()
	h.indexTables()
	h.buildSidecars()
}

// buildCSR constructs every table's CSR inverted index in one linear sweep
// over the incidence lists: iterating vertices ascending and each vertex's
// (already sorted) incident edges yields the per-table vertex dictionaries
// and posting lists in exactly CSR order — no maps, no per-list sorts,
// three flat arrays shared by all tables. It fills the Verts and Posts
// columns of the directory.
func (h *Hypergraph) buildCSR() {
	np := h.nParts
	postCount := make([]uint32, np)
	vertCount := make([]uint32, np)
	lastSeen := make([]uint32, np) // vertex+1 last counted per table
	h.sweepIncidence(func(v VertexID, _ EdgeID, pi uint32) {
		postCount[pi]++
		if lastSeen[pi] != v+1 {
			lastSeen[pi] = v + 1
			vertCount[pi]++
		}
	})
	var nv, npost uint32
	for pi := 0; pi < np; pi++ {
		h.tables[pi].Verts, h.tables[pi].Posts = nv, npost
		nv += vertCount[pi]
		npost += postCount[pi]
	}
	h.tables[np].Verts, h.tables[np].Posts = nv, npost
	h.partVerts = make([]VertexID, nv)
	h.partOffs = make([]uint32, int(nv)+np)
	h.partPosts = make([]EdgeID, npost)

	// vertCount and postCount restart as per-table fill cursors.
	clear(vertCount)
	clear(postCount)
	clear(lastSeen)
	h.sweepIncidence(func(v VertexID, e EdgeID, pi uint32) {
		r := &h.tables[pi]
		if lastSeen[pi] != v+1 {
			lastSeen[pi] = v + 1
			h.partVerts[r.Verts+vertCount[pi]] = v
			h.partOffs[r.Verts+pi+vertCount[pi]] = postCount[pi]
			vertCount[pi]++
		}
		h.partPosts[r.Posts+postCount[pi]] = e
		postCount[pi]++
	})
	for pi := 0; pi < np; pi++ {
		h.partOffs[h.tables[pi+1].Verts+uint32(pi)] = postCount[pi]
	}
}

// sweepIncidence visits every (vertex, incident edge, edge's table) triple
// in (vertex, edge) order.
func (h *Hypergraph) sweepIncidence(visit func(v VertexID, e EdgeID, pi uint32)) {
	for v := range h.labels {
		for _, e := range h.incEdges[h.incOff[v]:h.incOff[v+1]] {
			visit(VertexID(v), e, h.edgePart[e])
		}
	}
}

// indexTables (re)derives the SigID→table and (edge label, SigID)→table
// lookups from the directory, rejecting two tables under one key.
func (h *Hypergraph) indexTables() error {
	h.sigParts = make([]int32, h.sigTab.len())
	for i := range h.sigParts {
		h.sigParts[i] = -1
	}
	h.labelledParts = nil
	for pi, r := range h.tables[:len(h.tables)-1] {
		if r.EdgeLabel == NoEdgeLabel {
			if h.sigParts[r.SigID] >= 0 {
				return fmt.Errorf("hypergraph: two partitions share signature %v", h.Sig(r.SigID))
			}
			h.sigParts[r.SigID] = int32(pi)
			continue
		}
		if h.labelledParts == nil {
			h.labelledParts = make(map[uint64]int32)
		}
		if _, dup := h.labelledParts[partKey(r.EdgeLabel, r.SigID)]; dup {
			return fmt.Errorf("hypergraph: two partitions share (label %d, signature %v)", r.EdgeLabel, h.Sig(r.SigID))
		}
		h.labelledParts[partKey(r.EdgeLabel, r.SigID)] = int32(pi)
	}
	return nil
}

// buildSidecars derives the bitmap sidecar of every table big enough to
// carry one and files the resulting views in the side table.
func (h *Hypergraph) buildSidecars() {
	for pi := 0; pi < h.nParts; pi++ {
		if h.rowLen(uint32(pi)) < bitmapMinEdges {
			continue
		}
		if p := h.Partition(pi); p.buildBitmapSidecar() {
			h.setSide(uint32(pi), &p)
		}
	}
}

// setSide files p as table pi's materialised view.
func (h *Hypergraph) setSide(pi uint32, p *Partition) {
	if h.side == nil {
		h.side = make(map[uint32]*Partition)
	}
	h.side[pi] = p
}

// PartitionForLabelled returns the table for (edge label, signature) in an
// edge-labelled hypergraph.
func (h *Hypergraph) PartitionForLabelled(el Label, sig Signature) Partition {
	id, ok := h.LookupSig(sig)
	if !ok {
		return Partition{}
	}
	return h.PartitionBySigLabelled(el, id)
}

func (h *Hypergraph) countLabels() {
	seen := make(map[Label]bool)
	for _, l := range h.labels {
		seen[l] = true
	}
	h.numLabels = len(seen)
}

// FromEdges is a convenience constructor: vertex i gets labels[i], and each
// entry of edges is one hyperedge's vertex list.
func FromEdges(labels []Label, edges [][]uint32) (*Hypergraph, error) {
	b := NewBuilder()
	for _, l := range labels {
		b.AddVertex(l)
	}
	for _, e := range edges {
		b.AddEdge(e...)
	}
	return b.Build()
}

// MustFromEdges is FromEdges that panics on error.
func MustFromEdges(labels []Label, edges [][]uint32) *Hypergraph {
	h, err := FromEdges(labels, edges)
	if err != nil {
		panic(err)
	}
	return h
}
