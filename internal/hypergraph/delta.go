package hypergraph

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"hgmatch/internal/setops"
)

// DeltaBuffer is the online-update subsystem: it accepts hyperedge inserts
// and deletes against an immutable base Hypergraph and serves consistent,
// immutable snapshots that matching reads lock-free.
//
// Writes accumulate in per-signature append-side tables (pending edges are
// deduplicated against both the base and each other through the same
// interner machinery the offline Builder uses, so online ingest preserves
// the simple-hypergraph invariant). Snapshot publication is copy-on-write
// and incremental: a snapshot shares the base's flat arrays — edge and
// incidence CSR, partition directory, member lists, inverted indexes — by
// reference and owns only what the pending writes touched: the incidence
// lists of touched vertices (an overlay map), a materialised view per
// touched table in the side table (gained edges: a delta CSR segment, see
// Partition; lost edges: a base segment rebuilt without the tombstoned
// members; lost all: an empty table holding its index until compaction),
// and the tables of signatures first seen online, indexed past the
// directory. The published *Hypergraph hangs off an atomic pointer — an
// MVCC epoch handoff: a match that started on snapshot N keeps reading N
// while N+1 serves new requests, with no locks anywhere on the match hot
// path.
//
// Compact folds all pending state into a fresh fully-indexed base (the
// exact graph an offline Builder run over the same live edge set would
// produce) and resets the buffer. Hyperedge IDs are stable across
// publications; compaction renumbers only when deletes occurred.
//
// Writers (Insert, Delete, AddVertex, Compact) serialise on an internal
// mutex; readers never block writers and writers never block readers.
type DeltaBuffer struct {
	mu   sync.Mutex
	base *Hypergraph

	snap       atomic.Pointer[Hypergraph]
	dirty      atomic.Bool
	pubVersion atomic.Uint64

	labels []Label // full vertex-label table (base prefix + added)

	// Pending inserts: slot i is hyperedge ID base.NumEdges()+i, with its
	// edge label as the interner tag and its sorted vertex set as the body.
	pend     *u32Interner
	pendDead []bool // pending slots deleted again before compaction
	livePend int
	dead     map[EdgeID]struct{} // tombstoned base edges

	// The edge table every snapshot since the last compaction reads: the
	// base's CSR followed by the pending slots published so far. It only
	// ever grows by append past the longest published view (a pending
	// slot's content never changes, dead or alive), so snapshots share one
	// backing array and a publication costs the new slots alone.
	edgeOff    []uint32
	edgeVerts  []uint32
	edgeLabels []Label // nil until the table holds a labelled edge

	// Pooled publish-side scratch (guarded by mu): the append-side maps a
	// publication fills and drains are reused across publications instead
	// of being reallocated per snapshot, which cuts the per-ingest-request
	// garbage roughly in half (the rest is the retained snapshot itself).
	// pubAddInc keeps its value slices' backings alive between uses —
	// entries are truncated, not deleted, so steady-state publication
	// appends into recycled buffers.
	pubAddInc  map[VertexID][]EdgeID
	pubTouched map[VertexID]struct{}
	segCnt     map[VertexID]uint32
}

// NewDeltaBuffer returns a buffer over base. A delta-carrying snapshot is
// compacted first so the buffer always grows from a fully-indexed base;
// version numbering continues from the snapshot's.
func NewDeltaBuffer(base *Hypergraph) (*DeltaBuffer, error) {
	if base == nil {
		return nil, fmt.Errorf("hypergraph: nil base")
	}
	if base.HasDelta() {
		var err error
		if base, err = base.Compacted(); err != nil {
			return nil, err
		}
	}
	d := &DeltaBuffer{
		pubAddInc:  make(map[VertexID][]EdgeID),
		pubTouched: make(map[VertexID]struct{}),
		segCnt:     make(map[VertexID]uint32),
	}
	d.rebase(base)
	d.pubVersion.Store(base.deltaVersion)
	return d, nil
}

// rebase makes base the buffer's compacted base and published snapshot,
// with no pending state. The shared arrays are clipped to their lengths:
// the first append must copy, never write into capacity another holder of
// base (a second buffer, the builder that made it) might also extend into.
func (d *DeltaBuffer) rebase(base *Hypergraph) {
	d.base = base
	d.labels = slices.Clip(base.labels)
	d.pend, d.pendDead, d.livePend = newU32Interner(16, 64), nil, 0
	d.dead = make(map[EdgeID]struct{})
	d.edgeOff, d.edgeVerts, d.edgeLabels = slices.Clip(base.edgeOff), slices.Clip(base.edgeVerts), slices.Clip(base.edgeLabels)
	d.snap.Store(base)
	d.dirty.Store(false)
}

// Base returns the most recently compacted base graph.
func (d *DeltaBuffer) Base() *Hypergraph {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.base
}

// Snapshot returns the current consistent view, publishing pending writes
// first when that costs no waiting. It NEVER blocks: when a writer holds
// the buffer (a bulk ingest mid-batch, a compaction folding the delta),
// the latest published view is returned immediately and the pending
// writes appear at that writer's own publication — readers are never
// parked behind an O(|E|) rebuild. The returned graph is immutable and
// remains valid (and correct for its epoch) however long the caller holds
// it; repeated calls without intervening writes return the identical
// pointer, so plan caches can key on Snapshot().DeltaVersion().
func (d *DeltaBuffer) Snapshot() *Hypergraph {
	if d.dirty.Load() && d.mu.TryLock() {
		if d.dirty.Load() {
			d.publishLocked()
		}
		d.mu.Unlock()
	}
	return d.snap.Load()
}

// Publish is the writer-side Snapshot: it blocks until pending writes are
// published and returns the resulting view. Ingest paths that must report
// "your writes are now live" call this; read paths use Snapshot.
func (d *DeltaBuffer) Publish() *Hypergraph {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.dirty.Load() {
		d.publishLocked()
	}
	return d.snap.Load()
}

// Version returns the publication counter of the current snapshot; it bumps
// on every Snapshot that had pending writes and on every Compact.
func (d *DeltaBuffer) Version() uint64 { return d.Snapshot().DeltaVersion() }

// PendingEdges returns the number of live pending (uncompacted) inserts —
// the quantity compaction thresholds watch.
func (d *DeltaBuffer) PendingEdges() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.livePend
}

// TombstonedEdges returns the number of deletions awaiting compaction
// (tombstoned base edges plus deleted pending inserts).
func (d *DeltaBuffer) TombstonedEdges() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.dead) + (d.pend.len() - d.livePend)
}

// AddVertex appends a vertex with the given label and returns its ID. The
// vertex becomes visible with the next snapshot publication.
func (d *DeltaBuffer) AddVertex(l Label) VertexID {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.labels = append(d.labels, l)
	d.dirty.Store(true)
	return VertexID(len(d.labels) - 1)
}

// NumVertices returns the vertex count including not-yet-published adds.
func (d *DeltaBuffer) NumVertices() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.labels)
}

// Insert adds a hyperedge over the given vertices. The vertex list is
// normalised (sorted, duplicates removed) exactly like the Builder does.
// It returns the hyperedge's stable ID and whether the graph changed:
// inserting an edge that already exists (in the base or pending) returns
// its existing ID with added=false; inserting an edge whose tombstone is
// pending resurrects it.
func (d *DeltaBuffer) Insert(vertices ...uint32) (EdgeID, bool, error) {
	return d.InsertLabelled(NoEdgeLabel, vertices...)
}

// InsertLabelled is Insert for a hyperedge carrying an edge label (the
// paper's footnote-2 extension). Mixing labelled and unlabelled edges is
// allowed, as in the Builder.
func (d *DeltaBuffer) InsertLabelled(el Label, vertices ...uint32) (EdgeID, bool, error) {
	vs, err := d.normalise(vertices)
	if err != nil {
		return 0, false, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if int(vs[len(vs)-1]) >= len(d.labels) {
		return 0, false, fmt.Errorf("hypergraph: insert references unknown vertex %d", vs[len(vs)-1])
	}
	if e, ok := d.base.findEdgeLabelled(el, vs); ok {
		if _, tomb := d.dead[e]; tomb {
			delete(d.dead, e) // resurrection: the tombstone is withdrawn
			d.dirty.Store(true)
			return e, true, nil
		}
		return e, false, nil
	}
	nb := EdgeID(d.base.NumEdges())
	if slot, ok := d.pend.lookup(el, vs); ok {
		if d.pendDead[slot] {
			d.pendDead[slot] = false
			d.livePend++
			d.dirty.Store(true)
			return nb + EdgeID(slot), true, nil
		}
		return nb + EdgeID(slot), false, nil
	}
	slot, _ := d.pend.intern(el, vs)
	d.pendDead = append(d.pendDead, false)
	d.livePend++
	d.dirty.Store(true)
	return nb + EdgeID(slot), true, nil
}

// Delete removes the hyperedge with exactly the given vertex set, if
// present, and reports whether anything was removed. Deleting a base edge
// tombstones its ID slot until the next compaction; deleting a pending
// insert cancels it.
func (d *DeltaBuffer) Delete(vertices ...uint32) (bool, error) {
	return d.DeleteLabelled(NoEdgeLabel, vertices...)
}

// DeleteLabelled is Delete for a labelled hyperedge.
func (d *DeltaBuffer) DeleteLabelled(el Label, vertices ...uint32) (bool, error) {
	vs, err := d.normalise(vertices)
	if err != nil {
		return false, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if e, ok := d.base.findEdgeLabelled(el, vs); ok {
		if _, tomb := d.dead[e]; tomb {
			return false, nil
		}
		d.dead[e] = struct{}{}
		d.dirty.Store(true)
		return true, nil
	}
	if slot, ok := d.pend.lookup(el, vs); ok && !d.pendDead[slot] {
		d.pendDead[slot] = true
		d.livePend--
		d.dirty.Store(true)
		return true, nil
	}
	return false, nil
}

// Compact folds every pending insert and delete into a fresh, fully
// compacted base — byte-for-byte the graph an offline Builder run over the
// same live edge set would produce — publishes it, and resets the buffer.
// In-flight matches keep the snapshot they started on (epoch handoff);
// only writers block for the duration. Hyperedge IDs are preserved when no
// deletes are pending; with deletes, live edges are renumbered densely in
// prior ID order, as a cold rebuild of the same edge set would.
func (d *DeltaBuffer) Compact() (*Hypergraph, error) {
	nh, _, _, err := d.CompactCounted()
	return nh, err
}

// CompactCounted is Compact reporting, atomically with the fold itself,
// how many pending inserts it folded in and how many tombstones it
// dropped — the numbers a serving layer returns to the caller that
// triggered the compaction (reading them outside the fold races with
// concurrent ingest).
func (d *DeltaBuffer) CompactCounted() (nh *Hypergraph, folded, dropped int, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	folded = d.livePend
	dropped = len(d.dead) + (d.pend.len() - d.livePend)
	if d.pend.len() == 0 && len(d.dead) == 0 && len(d.labels) == len(d.base.labels) &&
		d.snap.Load() == d.base && !d.dirty.Load() {
		// Truly idle (the base IS the published snapshot): keep it and its
		// version, so a periodic compaction neither copies the graph nor
		// invalidates cached plans. When the published snapshot has
		// diverged despite empty pending state (e.g. a delete + resurrect
		// cycle left a stale tombstoned view current), fall through to the
		// full rebuild: versions must never move backwards.
		return d.base, folded, dropped, nil
	}
	isDead := func(e EdgeID) bool { _, tomb := d.dead[e]; return tomb }
	nh, err = rebuildLive(d.base, d.labels, isDead, d.pend, d.pendDead)
	if err != nil {
		return nil, 0, 0, err // unreachable: every input was validated on entry
	}
	nh.deltaVersion = d.pubVersion.Add(1)
	d.rebase(nh)
	return nh, folded, dropped, nil
}

// normalise sorts and dedups an insert/delete vertex list into a private
// copy.
func (d *DeltaBuffer) normalise(vertices []uint32) ([]uint32, error) {
	if len(vertices) == 0 {
		return nil, fmt.Errorf("hypergraph: empty hyperedge")
	}
	vs := slices.Clone(vertices)
	slices.Sort(vs)
	return setops.Dedup(vs), nil
}

// extendEdgeTable appends the pending slots not yet in the shared edge
// table (dead ones too — ID slots are stable until compaction).
func (d *DeltaBuffer) extendEdgeTable() {
	nb := d.base.NumEdges()
	for slot := len(d.edgeOff) - 1 - nb; slot < d.pend.len(); slot++ {
		el := d.pend.tags[slot]
		if el != NoEdgeLabel && d.edgeLabels == nil {
			// First labelled edge of an unlabelled graph: the label column
			// materialises, NoEdgeLabel for everything before it.
			d.edgeLabels = make([]Label, nb+slot, nb+d.pend.len())
			for i := range d.edgeLabels {
				d.edgeLabels[i] = NoEdgeLabel
			}
		}
		if d.edgeLabels != nil {
			d.edgeLabels = append(d.edgeLabels, el)
		}
		d.edgeVerts = append(d.edgeVerts, d.pend.body(uint32(slot))...)
		d.edgeOff = append(d.edgeOff, uint32(len(d.edgeVerts)))
	}
}

// publishLocked builds and publishes a fresh snapshot from base + pending
// state. Cost is proportional to the pending writes, the incidence lists
// they touch and the tables they land in (plus one flat copy of the
// signature interner when a batch brings a signature never seen before);
// everything untouched is shared by reference with the base.
func (d *DeltaBuffer) publishLocked() {
	base := d.base
	nb := base.NumEdges()
	nPend := d.pend.len()

	d.extendEdgeTable()
	h := &Hypergraph{
		// d.labels is append-only; clipping makes later AddVertex appends
		// copy rather than scribble on this snapshot. The edge table is
		// shared the same way.
		labels:     slices.Clip(d.labels),
		edgeOff:    slices.Clip(d.edgeOff),
		edgeVerts:  slices.Clip(d.edgeVerts),
		edgeLabels: slices.Clip(d.edgeLabels),
		incOff:     base.incOff,
		incEdges:   base.incEdges,
		tables:     base.tables,
		partEdges:  base.partEdges,
		partVerts:  base.partVerts,
		partOffs:   base.partOffs,
		partPosts:  base.partPosts,
		side:       maps.Clone(base.side),
		nParts:     base.nParts,
		edgePart:   base.edgePart,
		pendPart:   make([]uint32, nPend), // dead slots keep 0: tombstones have no table
		sigTab:     base.sigTab,
		sigParts:   base.sigParts,
		dict:       base.dict,
		edgeDict:   base.edgeDict,
		numLabels:  base.numLabels,
		totalArity: base.totalArity,
		maxArity:   base.maxArity,
		delta:      nPend > 0 || len(d.dead) > 0 || len(d.labels) > len(base.labels),

		labelledParts: base.labelledParts,
	}

	isDeadBase := func(e EdgeID) bool { _, ok := d.dead[e]; return ok }

	// Tombstone list, and arity aggregates over live edges only.
	h.dead = make([]EdgeID, 0, len(d.dead)+(nPend-d.livePend))
	lostMax := false
	for e := range d.dead {
		h.dead = append(h.dead, e)
		h.totalArity -= base.Arity(e)
		lostMax = lostMax || base.Arity(e) == base.maxArity
	}
	for i, dd := range d.pendDead {
		if dd {
			h.dead = append(h.dead, EdgeID(nb+i))
		}
	}
	slices.Sort(h.dead)
	if lostMax {
		h.maxArity = 0
		for e := EdgeID(0); int(e) < nb; e++ {
			if !isDeadBase(e) {
				h.maxArity = max(h.maxArity, base.Arity(e))
			}
		}
	}

	// Incidence: only the lists of vertices touched by tombstoned base
	// edges or live pending edges are rebuilt, into the snapshot's overlay.
	// Pending IDs all exceed base IDs, so appends keep lists sorted. The
	// rebuilt lists are carved out of one exactly-sized backing array
	// (sized up-front from the touched lists' lengths), and the side maps
	// come from the buffer's pooled scratch.
	addInc, touched := d.pubAddInc, d.pubTouched
	for v := range addInc {
		addInc[v] = addInc[v][:0] // keep the backings for reuse
	}
	clear(touched)
	for i, isDead := range d.pendDead {
		if isDead {
			continue
		}
		vs := d.pend.body(uint32(i))
		h.totalArity += len(vs)
		h.maxArity = max(h.maxArity, len(vs))
		for _, v := range vs {
			addInc[v] = append(addInc[v], EdgeID(nb+i))
			touched[v] = struct{}{}
		}
	}
	for e := range d.dead {
		for _, v := range base.Edge(e) {
			touched[v] = struct{}{}
		}
	}
	total := 0
	for v := range touched {
		total += base.Degree(v) + len(addInc[v])
	}
	backing := make([]uint32, 0, total) // upper bound: tombstones shrink lists
	h.incOver = make(map[VertexID][]uint32, len(touched))
	for v := range touched {
		start := len(backing)
		if len(d.dead) == 0 {
			backing = append(backing, base.Incident(v)...)
		} else {
			for _, e := range base.Incident(v) {
				if !isDeadBase(e) {
					backing = append(backing, e)
				}
			}
		}
		backing = append(backing, addInc[v]...)
		h.incOver[v] = backing[start:len(backing):len(backing)]
	}

	// Rebuild the base segment of every table holding tombstones; a table
	// that lost every member stays as an empty view under its index.
	for e := range d.dead {
		pi := base.edgePart[e]
		if p := h.side[pi]; p != nil && p != base.side[pi] {
			continue // already rebuilt for an earlier tombstone
		}
		bp := base.Partition(int(pi))
		np := &Partition{Sig: bp.Sig, SigID: bp.SigID, EdgeLabel: bp.EdgeLabel}
		for _, m := range bp.Edges {
			if !isDeadBase(m) {
				np.Edges = append(np.Edges, m)
			}
		}
		if len(np.Edges) > 0 {
			np.verts, np.offsets, np.posts = buildSegmentCSR(h, np.Edges, d.segCnt)
			np.buildBitmapSidecar() // fresh base segment, fresh containers
		}
		h.setSide(pi, np)
	}

	// Group live pending edges by (edge label, signature), interning new
	// signatures into a copy-on-write clone of the base's table.
	type group struct {
		sigID SigID
		elbl  Label
		ids   []EdgeID
	}
	byKey := make(map[uint64]int)
	var groups []*group
	var sigBuf Signature
	for i, isDead := range d.pendDead {
		if isDead {
			continue
		}
		sigBuf = AppendSignature(sigBuf[:0], d.pend.body(uint32(i)), h.labels)
		id, ok := h.sigTab.lookup(0, sigBuf)
		if !ok {
			if h.sigTab == base.sigTab {
				h.sigTab = base.sigTab.clone()
			}
			id, _ = h.sigTab.intern(0, sigBuf)
		}
		key := partKey(d.pend.tags[i], id)
		gi, ok := byKey[key]
		if !ok {
			gi = len(groups)
			byKey[key] = gi
			groups = append(groups, &group{sigID: id, elbl: d.pend.tags[i]})
		}
		groups[gi].ids = append(groups[gi].ids, EdgeID(nb+i))
	}
	// Deterministic ordering for appended partitions (the canonical
	// (edge label, signature) order the Builder uses).
	slices.SortFunc(groups, func(a, b *group) int {
		if a.elbl != b.elbl {
			return cmp.Compare(a.elbl, b.elbl)
		}
		return slices.Compare(h.Sig(a.sigID), h.Sig(b.sigID))
	})

	// Attach the append-side segments: a table the base knows gains a delta
	// block beside its (shared or tombstone-rebuilt) base block and keeps
	// its sidecar; a table emptied by tombstones or never seen offline is
	// all delta, so uncompacted volume stays visible to Stats.DeltaEdges.
	// New tables take the indices past the directory, and the lookups that
	// must find them are copied before they are extended.
	ownSigParts, ownLabelled := false, false
	for _, g := range groups {
		var np Partition
		pi := base.tableOf(g.elbl, g.sigID)
		if pi >= 0 {
			np = h.Partition(pi)
		} else {
			pi = h.nParts
			np = Partition{Sig: h.Sig(g.sigID), SigID: g.sigID, EdgeLabel: g.elbl}
			h.nParts++
			if g.elbl == NoEdgeLabel {
				if !ownSigParts {
					ownSigParts = true
					h.sigParts = make([]int32, h.sigTab.len())
					for i := copy(h.sigParts, base.sigParts); i < len(h.sigParts); i++ {
						h.sigParts[i] = -1
					}
				}
				h.sigParts[g.sigID] = int32(pi)
			} else {
				if !ownLabelled {
					ownLabelled = true
					h.labelledParts = make(map[uint64]int32, len(base.labelledParts)+1)
					maps.Copy(h.labelledParts, base.labelledParts)
				}
				h.labelledParts[partKey(g.elbl, g.sigID)] = int32(pi)
			}
		}
		np.Edges = append(slices.Clip(np.Edges), g.ids...)
		np.nDelta = len(g.ids)
		np.dverts, np.doffsets, np.dposts = buildSegmentCSR(h, g.ids, d.segCnt)
		h.setSide(uint32(pi), &np)
		for _, e := range g.ids {
			h.pendPart[int(e)-nb] = uint32(pi)
		}
	}

	if len(h.labels) != len(base.labels) {
		h.countLabels()
	}
	h.deltaVersion = d.pubVersion.Add(1)
	d.snap.Store(h)
	d.dirty.Store(false)
}

// buildSegmentCSR constructs one canonical CSR block over the given member
// edges of h: sorted vertex dictionary, spanning offsets, posting lists
// sorted because members arrive in ascending ID order. Off the hot path —
// it runs only at snapshot publication, for touched partitions. cnt is a
// pooled counting map (cleared here); the retained outputs are allocated at
// exact size in a count/fill two-pass, so publication leaves no
// map-of-slices garbage behind.
func buildSegmentCSR(h *Hypergraph, members []EdgeID, cnt map[VertexID]uint32) (verts []VertexID, offsets []uint32, posts []EdgeID) {
	clear(cnt)
	total := 0
	for _, e := range members {
		for _, v := range h.Edge(e) {
			cnt[v]++
			total++
		}
	}
	verts = make([]VertexID, 0, len(cnt))
	for v := range cnt {
		verts = append(verts, v)
	}
	slices.Sort(verts)
	offsets = make([]uint32, len(verts)+1)
	off := uint32(0)
	for i, v := range verts {
		offsets[i] = off
		c := cnt[v]
		cnt[v] = off // repurpose as the vertex's fill cursor
		off += c
	}
	offsets[len(verts)] = off
	posts = make([]EdgeID, total)
	for _, e := range members {
		for _, v := range h.Edge(e) {
			posts[cnt[v]] = e
			cnt[v]++
		}
	}
	return verts, offsets, posts
}

// findEdgeLabelled returns the ID of the hyperedge with exactly the given
// (edge label, sorted vertex set), if present; the label-aware FindEdge
// used by online dedup.
func (h *Hypergraph) findEdgeLabelled(el Label, vertices []uint32) (EdgeID, bool) {
	return h.findEdge(vertices, func(e EdgeID) bool { return h.EdgeLabel(e) == el })
}

// Compacted returns a fully compacted equivalent of h: the graph an
// offline Builder run over h's live edge set would produce. Offline-built
// graphs return themselves; online snapshots are rebuilt, with hyperedge
// IDs renumbered densely (in prior ID order) when tombstones exist.
func (h *Hypergraph) Compacted() (*Hypergraph, error) {
	if !h.delta && len(h.dead) == 0 {
		return h, nil
	}
	nh, err := rebuildLive(h, h.labels, h.IsDeadEdge, nil, nil)
	if err != nil {
		return nil, err
	}
	nh.deltaVersion = h.deltaVersion
	return nh, nil
}

// rebuildLive runs the offline Builder over a live edge set: src's edges
// minus the ones isDead reports, plus the live entries of extra — the one
// rebuild sequence behind both Compact and Compacted, so "compaction ==
// cold offline build" is a single code path. labels is the full vertex
// table (src's, possibly extended by online AddVertex calls).
func rebuildLive(src *Hypergraph, labels []Label, isDead func(EdgeID) bool, extra *u32Interner, extraDead []bool) (*Hypergraph, error) {
	b := NewBuilder().WithDicts(src.dict, src.edgeDict)
	b.labels = labels // Build copies
	addEdge := func(el Label, vs []uint32) {
		if el != NoEdgeLabel {
			b.AddLabelledEdge(el, vs...)
		} else {
			b.AddEdge(vs...)
		}
	}
	for e := EdgeID(0); int(e) < src.NumEdges(); e++ {
		if !isDead(e) {
			addEdge(src.EdgeLabel(e), src.Edge(e))
		}
	}
	for i, dead := range extraDead {
		if !dead {
			addEdge(extra.tags[i], extra.body(uint32(i)))
		}
	}
	return b.Build()
}
