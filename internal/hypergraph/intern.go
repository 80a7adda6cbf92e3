package hypergraph

import (
	"slices"

	"hgmatch/internal/setops"
)

// SigID is a dense interned identifier for a hyperedge signature. Every
// distinct signature of a built Hypergraph gets one SigID in
// [0, NumSignatures); the planner threads SigIDs instead of signature
// values through compilation, so the per-lookup cost is a hash probe over
// the label slice — no canonical key bytes are ever materialised.
type SigID = uint32

// NoSigID marks "signature not present in this hypergraph".
const NoSigID = ^SigID(0)

// u32Interner interns (tag, body) pairs — a uint32 tag plus a []uint32
// body — into dense uint32 IDs. It backs the global signature table (tag
// unused, body = sorted label multiset), the Builder's exact-set edge
// dedup and the DeltaBuffer's pending-edge table (tag = edge label, body =
// sorted vertex set).
//
// The table is open-addressing with linear probing, and both lookup and
// intern hash the slice in place: unlike a map[string]T keyed on encoded
// bytes, no key allocation happens on either path. Bodies are copied into
// one flat cell array located by running-sum offsets, so an interner of
// any size is four pointer-free arrays — and an interner fed hyperedges in
// ID order IS their CSR edge table (off, cells) and label column (tags).
type u32Interner struct {
	tags  []uint32 // id -> tag
	off   []uint32 // id -> start of its body in cells; len = entries+1
	cells []uint32 // every body back to back
	slots []uint32 // hash slot -> id+1; 0 = empty
	mask  uint32   // len(slots)-1; len is a power of two
}

// newU32Interner returns an interner pre-sized for about n entries holding
// about cells body words in total.
func newU32Interner(n, cells int) *u32Interner {
	size := internerSlots(n)
	return &u32Interner{
		tags:  make([]uint32, 0, n),
		off:   append(make([]uint32, 0, n+1), 0),
		cells: make([]uint32, 0, cells),
		slots: make([]uint32, size),
		mask:  size - 1,
	}
}

// internerSlots is the canonical slot-table size for n entries: the
// smallest power of two keeping the load factor under 3/4.
func internerSlots(n int) uint32 {
	size := uint32(8)
	for int(size)*3 < n*4 {
		size <<= 1
	}
	return size
}

// hashU32s is FNV-1a over the tag and body words, mixing each uint32 as
// four bytes would but one multiply per word.
func hashU32s(tag uint32, body []uint32) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	h = (h ^ uint64(tag)) * prime64
	for _, x := range body {
		h = (h ^ uint64(x)) * prime64
	}
	return h
}

// len returns the number of interned entries.
func (t *u32Interner) len() int { return len(t.tags) }

// body returns the body of an interned ID as a view into the cell array.
// Callers must not mutate it.
func (t *u32Interner) body(id uint32) []uint32 {
	lo, hi := t.off[id], t.off[id+1]
	return t.cells[lo:hi:hi]
}

// find probes for (tag, body), returning its ID or, when absent, the empty
// slot the probe ended on.
func (t *u32Interner) find(tag uint32, body []uint32) (id, slot uint32, ok bool) {
	i := uint32(hashU32s(tag, body)) & t.mask
	for {
		s := t.slots[i]
		if s == 0 {
			return NoSigID, i, false
		}
		if id := s - 1; t.tags[id] == tag && setops.Equal(t.body(id), body) {
			return id, i, true
		}
		i = (i + 1) & t.mask
	}
}

// lookup returns the ID interned for (tag, body), if any. It allocates
// nothing.
func (t *u32Interner) lookup(tag uint32, body []uint32) (uint32, bool) {
	if t == nil || len(t.tags) == 0 {
		return NoSigID, false
	}
	id, _, ok := t.find(tag, body)
	return id, ok
}

// intern returns the ID for (tag, body), interning a copy of body under
// the next dense ID on first sight. added reports whether this call
// created the entry.
func (t *u32Interner) intern(tag uint32, body []uint32) (id uint32, added bool) {
	id, slot, ok := t.find(tag, body)
	if ok {
		return id, false
	}
	id = uint32(len(t.tags))
	t.tags = append(t.tags, tag)
	t.cells = append(t.cells, body...)
	t.off = append(t.off, uint32(len(t.cells)))
	t.slots[slot] = id + 1
	if uint32(len(t.tags))*4 >= uint32(len(t.slots))*3 {
		t.rehash(uint32(len(t.slots)) * 2)
	}
	return id, true
}

// clone returns an independent copy; the DeltaBuffer snapshot path clones
// the base graph's table copy-on-write before interning signatures first
// seen online, so already published snapshots keep probing an untouched
// table.
func (t *u32Interner) clone() *u32Interner {
	return &u32Interner{
		tags:  slices.Clone(t.tags),
		off:   slices.Clone(t.off),
		cells: slices.Clone(t.cells),
		slots: slices.Clone(t.slots),
		mask:  t.mask,
	}
}

// compact trims the entry arrays to their contents and rebuilds the slot
// table at the canonical size for the entry count, making the table's
// footprint a function of its contents alone — graphs built offline and
// graphs assembled from a binary file report identical index statistics.
func (t *u32Interner) compact() {
	if cap(t.cells) > len(t.cells) || cap(t.tags) > len(t.tags) {
		t.tags, t.off, t.cells = slices.Clone(t.tags), slices.Clone(t.off), slices.Clone(t.cells)
	}
	if size := internerSlots(t.len()); size != uint32(len(t.slots)) {
		t.rehash(size)
	}
}

func (t *u32Interner) rehash(size uint32) {
	t.slots = make([]uint32, size)
	t.mask = size - 1
	for id, tag := range t.tags {
		i := uint32(hashU32s(tag, t.body(uint32(id)))) & t.mask
		for t.slots[i] != 0 {
			i = (i + 1) & t.mask
		}
		t.slots[i] = uint32(id) + 1
	}
}

// tableBytes returns the interner's memory footprint: four flat arrays.
func (t *u32Interner) tableBytes() int {
	if t == nil {
		return 0
	}
	return 4 * (len(t.slots) + len(t.tags) + len(t.off) + len(t.cells))
}
