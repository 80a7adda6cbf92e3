package hypergraph

import (
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
// and incremental against the previous snapshot: a snapshot shares the
// base's flat arrays — edge and incidence CSR, partition directory, member
// lists, inverted indexes, signature interner and lookups — by reference,
// and shares with the snapshot before it the view of every table no write
// since then touched. A write marks its table's view stale, and the next
// publication rebuilds the stale views alone (gained edges: a delta CSR
// segment, see Partition; lost edges: a tombstone mask — the live member
// list and a dead list beside the unchanged, shared base index; lost all:
// a mask with no live member, holding its index until compaction).
// Signatures and tables first seen online live in a small append-only
// side interner with IDs and indices past the base's. The incidence
// overlay is not built at all until a reader asks (see incOverlay). The
// published *Hypergraph hangs off an atomic pointer — an MVCC epoch
// handoff: a match that started on snapshot N keeps reading N while N+1
// serves new requests, with no locks anywhere on the match hot path.
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
	// pendPart[i] is the slot's table, fixed when the slot is created; it
	// only grows by append, so snapshots share it as their pendPart.
	pend     *u32Interner
	pendDead []bool // pending slots deleted again before compaction
	pendPart []uint32
	livePend int

	dead setops.Bitmap // tombstoned base edges, one bit per base edge ID

	// Per-table write state: the pending slots each table holds (live and
	// cancelled, ascending) and the number of tombstoned members of each
	// base table.
	tabPend map[uint32][]uint32
	tabDead map[uint32]int

	// stale holds the tables written since the last publication: an
	// insert, a delete, a cancelled insert or a resurrection in a table
	// adds it. The view last published for every table — a delta segment,
	// a mask or both — is cached in the latest snapshot's side table; the
	// next publication clones that table and rebuilds the stale entries
	// alone. Published views are never written again, so a snapshot shares
	// the views of every table the writes since the one before it left
	// alone.
	stale map[uint32]bool

	// Signatures and tables first seen since the last compaction (see
	// onlineTables); newTables[i] is the partKey of table base.nParts+i.
	// online is written in place; onlinePub is the copy the latest
	// snapshot holds, retaken only at a publication whose batch added to
	// online.
	online      onlineTables
	onlinePub   *onlineTables
	onlineDirty bool
	newTables   []uint64

	// Arity aggregates over live edges: their sum and, per arity, their
	// count — the maximum arity is the highest non-zero count.
	totalArity int
	arities    []int

	// The edge table every snapshot since the last compaction reads: the
	// base's CSR followed by the pending slots published so far. It only
	// ever grows by append past the longest published view (a pending
	// slot's content never changes, dead or alive), so snapshots share one
	// backing array and a publication costs the new slots alone.
	edgeOff    []uint32
	edgeVerts  []uint32
	edgeLabels []Label // nil until the table holds a labelled edge

	// Writer-side scratch: the signature of the edge being inserted, and
	// buildSegmentCSR's dense per-vertex counters (all zero between calls)
	// with the list of vertices it touched.
	sigBuf Signature
	vcount []uint32
	vseen  []VertexID
}

// onlineTables is what the writes since the last compaction add past the
// base's signature interner and table lookups: signatures first seen
// online, under SigIDs continuing the base interner's, and the tables
// first seen online, under indices past the partition directory. Every
// lookup probes the base first, so the base's interner and lookups are
// shared, never cloned; a snapshot holds a copy of this small remainder.
type onlineTables struct {
	sigs  *u32Interner
	parts map[uint64]int32 // partKey(edge label, SigID) -> table index
}

// numSigs returns the number of signatures first seen online.
func (o *onlineTables) numSigs() int {
	if o == nil {
		return 0
	}
	return o.sigs.len()
}

// clone returns an independent copy for a snapshot to hold.
func (o *onlineTables) clone() *onlineTables {
	return &onlineTables{sigs: o.sigs.clone(), parts: maps.Clone(o.parts)}
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
	d := &DeltaBuffer{}
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
	d.pend, d.pendDead, d.pendPart, d.livePend = newU32Interner(16, 64), nil, nil, 0
	d.dead = *setops.FromSorted(nil, base.NumEdges())
	d.tabPend, d.tabDead = make(map[uint32][]uint32), make(map[uint32]int)
	d.stale = make(map[uint32]bool)
	d.online = onlineTables{sigs: newU32Interner(16, 64), parts: make(map[uint64]int32)}
	d.onlinePub, d.onlineDirty, d.newTables = nil, false, nil
	d.totalArity, d.arities = base.totalArity, make([]int, base.maxArity+1)
	for e := EdgeID(0); int(e) < base.NumEdges(); e++ {
		d.arities[base.Arity(e)]++
	}
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

// Published returns the latest published view and never publishes: pending
// writes stay invisible until a writer's Publish (or a Compact). A serving
// layer that journals a batch before acking it reads through Published, so
// a read can never expose a batch that is not yet durable, or one whose
// journal append failed.
func (d *DeltaBuffer) Published() *Hypergraph { return d.snap.Load() }

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
	return d.dead.Count() + (d.pend.len() - d.livePend)
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
	id := d.sigOf(vs)
	if e, ok := d.findBase(el, id, vs); ok {
		if d.dead.Contains(e) {
			d.dead.Remove(e) // resurrection: the tombstone is withdrawn
			pi := d.base.edgePart[e]
			d.tabDead[pi]--
			d.changed(pi, len(vs), 1)
			return e, true, nil
		}
		return e, false, nil
	}
	nb := EdgeID(d.base.NumEdges())
	if slot, ok := d.pend.lookup(el, vs); ok {
		if d.pendDead[slot] {
			d.pendDead[slot] = false
			d.livePend++
			d.changed(d.pendPart[slot], len(vs), 1)
			return nb + EdgeID(slot), true, nil
		}
		return nb + EdgeID(slot), false, nil
	}
	pi := d.tableFor(el, id)
	slot, _ := d.pend.intern(el, vs)
	d.pendDead = append(d.pendDead, false)
	d.pendPart = append(d.pendPart, pi)
	d.tabPend[pi] = append(d.tabPend[pi], slot)
	d.livePend++
	d.changed(pi, len(vs), 1)
	return nb + EdgeID(slot), true, nil
}

// sigOf returns the base's SigID for vs's signature, or NoSigID when the
// base has never seen it, and leaves the signature in d.sigBuf.
func (d *DeltaBuffer) sigOf(vs []uint32) SigID {
	d.sigBuf = AppendSignature(d.sigBuf[:0], vs, d.labels)
	if id, ok := d.base.sigTab.lookup(0, d.sigBuf); ok {
		return id
	}
	return NoSigID
}

// findBase returns the base edge with exactly (el, vs), whose base
// signature ID is id, if there is one. It scans the shortest of vs's
// posting lists in that one table — not the graph-wide incidence lists —
// so online dedup reads a few table-local entries per vertex; a table
// without an index is scanned whole, at most scanMax members.
func (d *DeltaBuffer) findBase(el Label, id SigID, vs []uint32) (EdgeID, bool) {
	pi := -1
	if id != NoSigID {
		pi = d.base.tableOf(el, id)
	}
	if pi < 0 {
		return 0, false
	}
	p := d.base.Partition(pi)
	best := p.Edges
	if p.HasBaseIndex() {
		for i, v := range vs {
			if l := p.Postings(v); i == 0 || len(l) < len(best) {
				best = l
			}
		}
	}
	for _, e := range best {
		if setops.Equal(d.base.Edge(e), vs) {
			return e, true
		}
	}
	return 0, false
}

// tableFor returns the table a new pending edge lands in, given its base
// signature ID from sigOf. A signature the base has never seen is
// interned from d.sigBuf into the online interner, and a table the base
// has no row for gets the next index past the directory, which it keeps
// until compaction.
func (d *DeltaBuffer) tableFor(el Label, id SigID) uint32 {
	if id == NoSigID {
		var added bool
		id, added = d.online.sigs.intern(0, d.sigBuf)
		id += SigID(d.base.sigTab.len())
		d.onlineDirty = d.onlineDirty || added
	} else if pi := d.base.tableOf(el, id); pi >= 0 {
		return uint32(pi)
	}
	key := partKey(el, id)
	pi, ok := d.online.parts[key]
	if !ok {
		pi = int32(d.base.nParts + len(d.newTables))
		d.online.parts[key] = pi
		d.newTables = append(d.newTables, key)
		d.onlineDirty = true
	}
	return uint32(pi)
}

// changed records a write to table pi that made one edge of the given
// arity live (sign 1) or dead (sign -1): the live-arity aggregates move,
// and the table's published view goes stale.
func (d *DeltaBuffer) changed(pi uint32, arity, sign int) {
	if arity >= len(d.arities) {
		d.arities = append(d.arities, make([]int, arity+1-len(d.arities))...)
	}
	d.arities[arity] += sign
	d.totalArity += sign * arity
	d.stale[pi] = true
	d.dirty.Store(true)
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
	if int(vs[len(vs)-1]) >= len(d.labels) {
		return false, nil
	}
	if e, ok := d.findBase(el, d.sigOf(vs), vs); ok {
		if d.dead.Contains(e) {
			return false, nil
		}
		d.dead.Add(e)
		pi := d.base.edgePart[e]
		d.tabDead[pi]++
		d.changed(pi, len(vs), -1)
		return true, nil
	}
	if slot, ok := d.pend.lookup(el, vs); ok && !d.pendDead[slot] {
		d.pendDead[slot] = true
		d.livePend--
		d.changed(d.pendPart[slot], len(vs), -1)
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
	dropped = d.dead.Count() + (d.pend.len() - d.livePend)
	if d.pend.len() == 0 && d.dead.Count() == 0 && len(d.labels) == len(d.base.labels) &&
		d.snap.Load() == d.base && !d.dirty.Load() {
		// Truly idle (the base IS the published snapshot): keep it and its
		// version, so a periodic compaction neither copies the graph nor
		// invalidates cached plans. When the published snapshot has
		// diverged despite empty pending state (e.g. a delete + resurrect
		// cycle left a stale tombstoned view current), fall through to the
		// full rebuild: versions must never move backwards.
		return d.base, folded, dropped, nil
	}
	nh, err = rebuildLive(d.base, d.labels, d.dead.Contains, d.pend, d.pendDead)
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
// state, incrementally against the previous snapshot: it costs the batch,
// not everything pending since the last compaction. The new pending slots
// are appended to the shared edge table; the views of the tables the
// batch touched are rebuilt (a touched table costs one pass over its
// members and its pending slots, no re-indexing of its base block) and
// every other view is re-attached as published; the online signatures and
// tables are copied only when the batch added to them. What remains per
// publication beyond the batch is flat: the tombstone list and one copy
// of the side table's pointers. The incidence overlay is left for the
// first reader that asks for it.
func (d *DeltaBuffer) publishLocked() {
	base, prev := d.base, d.snap.Load()
	nb := base.NumEdges()
	nPend := d.pend.len()
	nDead := d.dead.Count()

	d.extendEdgeTable()
	if d.onlineDirty {
		d.onlinePub, d.onlineDirty = d.online.clone(), false
	}
	h := &Hypergraph{
		// d.labels is append-only; clipping makes later AddVertex appends
		// copy rather than scribble on this snapshot. The edge table and
		// the pending slots' table links are shared the same way.
		labels:     slices.Clip(d.labels),
		edgeOff:    slices.Clip(d.edgeOff),
		edgeVerts:  slices.Clip(d.edgeVerts),
		edgeLabels: slices.Clip(d.edgeLabels),
		incOff:     base.incOff,
		incEdges:   base.incEdges,
		inc:        &incOverlay{},
		tables:     base.tables,
		partEdges:  base.partEdges,
		partVerts:  base.partVerts,
		partOffs:   base.partOffs,
		partPosts:  base.partPosts,
		side:       maps.Clone(prev.side),
		nParts:     base.nParts + len(d.newTables),
		edgePart:   base.edgePart,
		pendPart:   slices.Clip(d.pendPart),
		sigTab:     base.sigTab,
		sigParts:   base.sigParts,
		online:     d.onlinePub,
		dict:       base.dict,
		edgeDict:   base.edgeDict,
		numLabels:  base.numLabels,
		totalArity: d.totalArity,
		delta:      nPend > 0 || nDead > 0 || len(d.labels) > len(base.labels),

		labelledParts: base.labelledParts,
	}
	for a := len(d.arities) - 1; a > 0 && h.maxArity == 0; a-- {
		if d.arities[a] > 0 {
			h.maxArity = a
		}
	}

	// Tombstone list: the bitset decodes in ID order and every pending slot
	// follows every base ID, so it comes out sorted.
	h.dead = d.dead.AppendTo(make([]EdgeID, 0, nDead+(nPend-d.livePend)))
	for i, dd := range d.pendDead {
		if dd {
			h.dead = append(h.dead, EdgeID(nb+i))
		}
	}

	// prev.side is the base's side table with every view published so
	// far; only the stale tables change. A base table the writes left
	// with neither a tombstone nor a pending insert goes back to the
	// base's own entry (its sidecar) or to its directory row.
	for pi := range d.stale {
		if v := d.view(h, pi); v != nil {
			h.setSide(pi, v)
		} else if bp := base.side[pi]; bp != nil {
			h.side[pi] = bp
		} else {
			delete(h.side, pi)
		}
	}
	clear(d.stale)

	if len(h.labels) != len(base.labels) {
		h.countLabels()
	}
	h.deltaVersion = d.pubVersion.Add(1)
	d.snap.Store(h)
	d.dirty.Store(false)
}

// view returns table pi's view under the current writes, or nil for a
// base table that has neither a tombstoned member nor a live pending one.
// A base table that lost members is masked: its live members and its dead
// ones, split in one pass over the member list, beside the base's own
// index (BaseEdges stays the full member list, so the sidecar's rank space
// is unchanged). Live pending members are appended to the member list and
// indexed by a delta CSR segment. A table first seen online is all delta,
// and stays, empty if its inserts were all deleted again, until
// compaction. h is the snapshot being published, whose interners name
// every signature.
func (d *DeltaBuffer) view(h *Hypergraph, pi uint32) *Partition {
	nb := uint32(d.base.NumEdges())
	pend, nDead := d.tabPend[pi], d.tabDead[pi]
	nNew := 0
	for _, slot := range pend {
		if !d.pendDead[slot] {
			nNew++
		}
	}
	var p Partition
	if int(pi) < d.base.nParts {
		if nNew == 0 && nDead == 0 {
			return nil
		}
		p = d.base.Partition(int(pi))
	} else {
		key := d.newTables[int(pi)-d.base.nParts]
		p = Partition{Sig: h.Sig(SigID(key)), SigID: SigID(key), EdgeLabel: Label(key >> 32)}
	}
	edges := make([]EdgeID, 0, len(p.Edges)-nDead+nNew)
	if nDead > 0 {
		dead := make([]EdgeID, 0, nDead)
		for _, e := range p.Edges {
			if d.dead.Contains(e) {
				dead = append(dead, e)
			} else {
				edges = append(edges, e)
			}
		}
		p.baseAll, p.dead = p.Edges, dead
	} else {
		edges = append(edges, p.Edges...)
	}
	for _, slot := range pend {
		if !d.pendDead[slot] {
			edges = append(edges, nb+slot)
		}
	}
	p.Edges = edges
	if nNew > 0 {
		p.nDelta = nNew
		p.dverts, p.doffsets, p.dposts = d.buildSegmentCSR(edges[len(edges)-nNew:])
	}
	return &p
}

// buildSegmentCSR constructs one canonical CSR block over the given
// pending member edges: sorted vertex dictionary, spanning offsets,
// posting lists sorted because members arrive in ascending ID order. It
// counts into the buffer's dense per-vertex array and resets only the
// entries it touched, so a segment costs its own cells; the retained
// outputs are allocated at exact size in a count/fill two-pass.
func (d *DeltaBuffer) buildSegmentCSR(members []EdgeID) (verts []VertexID, offsets []uint32, posts []EdgeID) {
	nb := EdgeID(d.base.NumEdges())
	if len(d.vcount) < len(d.labels) {
		d.vcount = make([]uint32, len(d.labels))
	}
	cnt, seen := d.vcount, d.vseen[:0]
	for _, e := range members {
		for _, v := range d.pend.body(e - nb) {
			if cnt[v] == 0 {
				seen = append(seen, v)
			}
			cnt[v]++
		}
	}
	if len(seen)*16 < len(cnt) {
		slices.Sort(seen)
	} else { // a dense segment: a sweep of the counters beats the sort
		seen = seen[:0]
		for v, c := range cnt {
			if c > 0 {
				seen = append(seen, VertexID(v))
			}
		}
	}
	verts = slices.Clone(seen)
	d.vseen = seen
	offsets = make([]uint32, len(verts)+1)
	off := uint32(0)
	for i, v := range verts {
		offsets[i] = off
		c := cnt[v]
		cnt[v] = off // repurpose as the vertex's fill cursor
		off += c
	}
	offsets[len(verts)] = off
	posts = make([]EdgeID, off)
	for _, e := range members {
		for _, v := range d.pend.body(e - nb) {
			posts[cnt[v]] = e
			cnt[v]++
		}
	}
	for _, v := range verts {
		cnt[v] = 0
	}
	return verts, offsets, posts
}

// incOverlay is an online snapshot's incidence overlay: the rebuilt lists
// of the vertices its pending writes touched — those of live pending edges
// and of tombstoned base edges. It is derived from the snapshot's own
// immutable fields (the base incidence CSR, the tombstone list and the
// pending slots of the shared edge table) the first time Incident asks.
// The matcher never does — Algorithm 4 reads the edge table and the
// table-local postings — so publication leaves it unbuilt. It sits behind
// a pointer so the value copies WithoutBitmapSidecars makes share one
// build.
type incOverlay struct {
	once  sync.Once
	lists atomic.Pointer[map[VertexID][]uint32] // nil until built
}

// get returns h's overlay, building it on first use.
func (o *incOverlay) get(h *Hypergraph) map[VertexID][]uint32 {
	o.once.Do(func() {
		m := h.buildOverlay()
		o.lists.Store(&m)
	})
	return *o.lists.Load()
}

// buildOverlay derives h's incidence overlay. Pending IDs all exceed base
// IDs, so appending a vertex's pending edges after its live base ones
// keeps its list sorted.
func (h *Hypergraph) buildOverlay() map[VertexID][]uint32 {
	nb := len(h.edgePart)
	split, _ := slices.BinarySearch(h.dead, EdgeID(nb))
	deadBase, deadPend := h.dead[:split], h.dead[split:]
	added := make(map[VertexID][]EdgeID)
	for _, e := range deadBase {
		for _, v := range h.Edge(e) {
			if _, ok := added[v]; !ok {
				added[v] = nil
			}
		}
	}
	for e := EdgeID(nb); int(e) < h.NumEdges(); e++ {
		if len(deadPend) > 0 && deadPend[0] == e {
			deadPend = deadPend[1:]
			continue
		}
		for _, v := range h.Edge(e) {
			added[v] = append(added[v], e)
		}
	}
	isDead := setops.FromSorted(deadBase, nb)
	total := 0
	for v, es := range added {
		total += len(h.baseIncident(v)) + len(es)
	}
	backing := make([]uint32, 0, total) // upper bound: tombstones shrink lists
	lists := make(map[VertexID][]uint32, len(added))
	for v, es := range added {
		start := len(backing)
		for _, e := range h.baseIncident(v) {
			if len(deadBase) == 0 || !isDead.Contains(e) {
				backing = append(backing, e)
			}
		}
		backing = append(backing, es...)
		lists[v] = backing[start:len(backing):len(backing)]
	}
	return lists
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
