package hgio

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"hgmatch/internal/hypergraph"
	"hgmatch/internal/setops"
)

// Binary format version 3 ("HGB3"): the mmap(2)-servable layout.
//
// Where HGB2 is a varint stream that must be decoded byte by byte,
// HGB3 stores every array of the built storage layer — vertex labels, edge
// tables, incidence lists, the partitioned CSR inverted indexes and the
// bitmap posting-container sidecars — as fixed-width little-endian sections,
// each padded to a page-aligned offset and located through a section
// directory in the header. A loader can therefore validate the directory
// plus its checksum fingerprint, reinterpret the mapped sections as typed
// slices in place, and serve matches with the page cache faulting pages in
// on first touch: near-zero startup, near-zero steady-state heap. See
// mmap.go (MapFile) for the attach path and docs/FORMAT.md for the
// normative byte-level specification.
//
// Layout:
//
//	header (96 bytes, all fields little-endian):
//	  [0:4)   magic "HGB3"
//	  [4:8)   u32 flags (edge labels / dict / edge dict / bitmaps)
//	  [8:16)  u64 file size in bytes
//	  [16:24) u64 numVertices
//	  [24:32) u64 numEdges
//	  [32:40) u64 numPartitions
//	  [40:48) u64 totalArity (Σ a(e))
//	  [48:52) u32 maxArity
//	  [52:56) u32 numLabels
//	  [56:60) u32 dict entries
//	  [60:64) u32 edge-dict entries
//	  [64:68) u32 section alignment (4096)
//	  [68:72) u32 section count
//	  [72:76) u32 payload CRC (crc32c over [payloadStart, fileSize))
//	  [76:80) u32 header CRC (crc32c over header+directory, field zeroed)
//	  [80:96) reserved, zero
//	directory: section count × 24-byte entries {u32 id, u32 zero,
//	  u64 offset, u64 length}, ascending ids, zero-length sections omitted
//	sections: each starting at an offset aligned to the header's alignment,
//	  gaps zero-filled, all multi-byte values little-endian
//
// Tombstone- or delta-carrying online snapshots are compacted before
// writing, as WriteBinary does: dense IDs and delta-free CSR blocks are
// part of the format.
const binaryMagicV3 = "HGB3"

const (
	v3HeaderSize   = 96
	v3DirEntrySize = 24
	v3Align        = 4096
	v3MaxSections  = 32
	// v3MaxAlign bounds the alignment a file may declare: big enough for
	// any plausible huge-page setup, small enough that alignment padding
	// cannot be abused.
	v3MaxAlign = 1 << 21
)

// Section identifiers. PartMeta rows carry, per partition, the element
// offsets and lengths of its windows in the shared PartEdges/PartVerts/
// PartOffs/PartPosts arrays; BmMeta rows do the same for the bitmap
// sidecar sections.
const (
	secDict       = 1  // dict entries, uvarint length + bytes each
	secEdgeDict   = 2  // edge-dict entries, same encoding
	secLabels     = 3  // nv × u32 vertex labels
	secEdgeLabels = 4  // ne × u32 edge labels (flagged)
	secEdgeOff    = 5  // (ne+1) × u32 offsets into EdgeVerts
	secEdgeVerts  = 6  // totalArity × u32 edge vertex cells
	secIncOff     = 7  // (nv+1) × u32 offsets into IncEdges
	secIncEdges   = 8  // totalArity × u32 incidence lists
	secEdgePart   = 9  // ne × u32 edge -> partition index
	secPartMeta   = 10 // np × 32-byte partition rows
	secPartEdges  = 11 // ne × u32 concatenated member edge lists
	secPartVerts  = 12 // Σ × u32 concatenated CSR vertex dictionaries
	secPartOffs   = 13 // Σ (verts+1) × u32 concatenated CSR offsets
	secPartPosts  = 14 // Σ × u32 concatenated posting lists
	secBmMeta     = 15 // np × 32-byte bitmap sidecar rows (flagged)
	secBmIdx      = 16 // Σ × i32 per-vertex container indexes
	secBmWords    = 17 // Σ × u64 bitmap words
	secBmRanks    = 18 // Σ × u32 rank-table entries
	secBmCards    = 19 // Σ × u32 persisted container cardinalities
	v3MaxSecID    = 19
)

const (
	v3FlagEdgeLabels = 1 << 0
	v3FlagDict       = 1 << 1
	v3FlagEdgeDict   = 1 << 2
	v3FlagBitmaps    = 1 << 3
	v3KnownFlags     = v3FlagEdgeLabels | v3FlagDict | v3FlagEdgeDict | v3FlagBitmaps
)

// crcTable is the Castagnoli polynomial both v3 checksums use (hardware
// CRC32C on amd64/arm64).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

func v3AlignUp(x, align uint64) uint64 { return (x + align - 1) &^ (align - 1) }

// ---------------------------------------------------------------------------
// Writer

// v3BmRow is one BmMeta directory row.
type v3BmRow struct {
	nBms     uint32
	idxOff   uint32
	wordsOff uint32
	cardsOff uint32
	rankOff  uint32
	rankLen  uint32
	rankBase uint32
}

// WriteBinaryV3 serialises h in binary format v3: the page-aligned,
// section-directory layout a loader can serve straight off mmap(2).
// Online snapshots carrying uncompacted state (append-side deltas or
// tombstones) are compacted first — the format stores exactly one
// delta-free base CSR per table.
func WriteBinaryV3(w io.Writer, h *hypergraph.Hypergraph) error {
	if h.HasDelta() || h.NumDeadEdges() > 0 {
		var err error
		if h, err = h.Compacted(); err != nil {
			return err
		}
	}
	// A compacted graph keeps exactly the arrays the sections hold.
	st := h.Storage()
	nv, ne, np := h.NumVertices(), h.NumEdges(), h.NumPartitions()
	ta := h.TotalArity()
	if uint64(ta) >= 1<<32 || uint64(ne) >= 1<<31 || uint64(nv) >= 1<<31 {
		return fmt.Errorf("hgio: graph too large for binary v3 (Σa(e)=%d)", ta)
	}

	flags := uint32(0)
	if h.EdgeLabelled() {
		flags |= v3FlagEdgeLabels
	}
	dictLen, edgeDictLen := 0, 0
	if d := h.Dict(); d != nil && d.Len() > 0 {
		flags |= v3FlagDict
		dictLen = d.Len()
	}
	if d := h.EdgeDict(); d != nil && d.Len() > 0 {
		flags |= v3FlagEdgeDict
		edgeDictLen = d.Len()
	}

	// Sidecar directory rows (element offsets are running sums: the reader
	// requires contiguous, in-order windows, which is also what makes its
	// bounds checks O(np)) and the shared-array totals their sections are
	// sized by.
	bmRows := make([]v3BmRow, np)
	var sumBmIdx, sumWords, sumCards, sumRanks uint64
	for _, sc := range st.Sidecars {
		bmRows[sc.Table] = v3BmRow{
			nBms:     uint32(len(sc.Bms)),
			idxOff:   uint32(sumBmIdx),
			wordsOff: uint32(sumWords),
			cardsOff: uint32(sumCards),
			rankOff:  uint32(sumRanks),
			rankLen:  uint32(len(sc.Ranks.Tab)),
			rankBase: sc.Ranks.Base,
		}
		sumBmIdx += uint64(len(sc.BmIdx))
		for i := range sc.Bms {
			sumWords += uint64(len(sc.Bms[i].Words()))
		}
		sumCards += uint64(len(sc.Bms))
		sumRanks += uint64(len(sc.Ranks.Tab))
	}
	hasBitmaps := len(st.Sidecars) > 0
	sumVerts, sumOffs, sumPosts := uint64(len(st.PartVerts)), uint64(len(st.PartOffs)), uint64(len(st.PartPosts))
	if sumWords >= 1<<32 || sumRanks >= 1<<32 {
		return fmt.Errorf("hgio: graph too large for binary v3 (CSR arrays exceed 32-bit offsets)")
	}
	if hasBitmaps {
		flags |= v3FlagBitmaps
	}

	dictBlob := encodeDictBlob(h.Dict())
	edgeDictBlob := encodeDictBlob(h.EdgeDict())

	// Section lengths in id order; zero-length sections are omitted from
	// the directory.
	lens := [v3MaxSecID + 1]uint64{
		secDict:      uint64(len(dictBlob)),
		secEdgeDict:  uint64(len(edgeDictBlob)),
		secLabels:    4 * uint64(nv),
		secEdgeOff:   4 * uint64(ne+1),
		secEdgeVerts: 4 * uint64(ta),
		secIncOff:    4 * uint64(nv+1),
		secIncEdges:  4 * uint64(ta),
		secEdgePart:  4 * uint64(ne),
		secPartMeta:  32 * uint64(np),
		secPartEdges: 4 * uint64(ne),
		secPartVerts: 4 * sumVerts,
		secPartOffs:  4 * sumOffs,
		secPartPosts: 4 * sumPosts,
	}
	if h.EdgeLabelled() {
		lens[secEdgeLabels] = 4 * uint64(ne)
	}
	if hasBitmaps {
		lens[secBmMeta] = 32 * uint64(np)
		lens[secBmIdx] = 4 * sumBmIdx
		lens[secBmWords] = 8 * sumWords
		lens[secBmRanks] = 4 * sumRanks
		lens[secBmCards] = 4 * sumCards
	}
	type dirEnt struct {
		id       uint32
		off, len uint64
	}
	var dir []dirEnt
	for id := uint32(1); id <= v3MaxSecID; id++ {
		if lens[id] > 0 {
			dir = append(dir, dirEnt{id: id, len: lens[id]})
		}
	}
	dirEnd := uint64(v3HeaderSize + v3DirEntrySize*len(dir))
	cur := v3AlignUp(dirEnd, v3Align)
	payloadStart := cur
	for i := range dir {
		dir[i].off = cur
		cur = v3AlignUp(cur+dir[i].len, v3Align)
	}
	fileSize := payloadStart
	if n := len(dir); n > 0 {
		fileSize = dir[n-1].off + dir[n-1].len
	}

	emitPayload := func(em *v3Emitter) {
		for _, d := range dir {
			em.padTo(d.off)
			switch d.id {
			case secDict:
				em.bytes(dictBlob)
			case secEdgeDict:
				em.bytes(edgeDictBlob)
			case secLabels:
				em.u32s(st.Labels)
			case secEdgeLabels:
				em.u32s(st.EdgeLabels)
			case secEdgeOff:
				em.u32s(st.EdgeOff)
			case secEdgeVerts:
				em.u32s(st.EdgeVerts)
			case secIncOff:
				em.u32s(st.IncOff)
			case secIncEdges:
				em.u32s(st.IncEdges)
			case secEdgePart:
				em.u32s(st.EdgePart)
			case secPartMeta:
				for pi := 0; pi < np; pi++ {
					r, end := st.Tables[pi], st.Tables[pi+1]
					em.u32(r.EdgeLabel)
					em.u32(r.Edges)
					em.u32(end.Edges - r.Edges)
					em.u32(r.Verts)
					em.u32(end.Verts - r.Verts)
					em.u32(r.Verts + uint32(pi))
					em.u32(r.Posts)
					em.u32(end.Posts - r.Posts)
				}
			case secPartEdges:
				em.u32s(st.PartEdges)
			case secPartVerts:
				em.u32s(st.PartVerts)
			case secPartOffs:
				em.u32s(st.PartOffs)
			case secPartPosts:
				em.u32s(st.PartPosts)
			case secBmMeta:
				for pi := range bmRows {
					r := &bmRows[pi]
					em.u32(r.nBms)
					em.u32(r.idxOff)
					em.u32(r.wordsOff)
					em.u32(r.cardsOff)
					em.u32(r.rankOff)
					em.u32(r.rankLen)
					em.u32(r.rankBase)
					em.u32(0)
				}
			case secBmIdx:
				for _, sc := range st.Sidecars {
					em.i32s(sc.BmIdx)
				}
			case secBmWords:
				for _, sc := range st.Sidecars {
					for i := range sc.Bms {
						em.u64s(sc.Bms[i].Words())
					}
				}
			case secBmRanks:
				for _, sc := range st.Sidecars {
					em.u32s(sc.Ranks.Tab)
				}
			case secBmCards:
				for _, sc := range st.Sidecars {
					for i := range sc.Bms {
						em.u32(uint32(sc.Bms[i].Count()))
					}
				}
			}
		}
	}

	// Pass 1: checksum the payload exactly as it will stream out.
	crc := crc32.New(crcTable)
	cem := &v3Emitter{w: crc, pos: payloadStart}
	emitPayload(cem)
	cem.flush()
	if cem.err != nil {
		return cem.err
	}
	if cem.pos != fileSize {
		return fmt.Errorf("hgio: internal v3 layout error: emitted %d of %d bytes", cem.pos, fileSize)
	}
	payloadCRC := crc.Sum32()

	// Header + directory, checksummed with the headerCRC field zeroed.
	hdr := make([]byte, dirEnd)
	copy(hdr, binaryMagicV3)
	le := binary.LittleEndian
	le.PutUint32(hdr[4:], flags)
	le.PutUint64(hdr[8:], fileSize)
	le.PutUint64(hdr[16:], uint64(nv))
	le.PutUint64(hdr[24:], uint64(ne))
	le.PutUint64(hdr[32:], uint64(np))
	le.PutUint64(hdr[40:], uint64(ta))
	le.PutUint32(hdr[48:], uint32(h.MaxArity()))
	le.PutUint32(hdr[52:], uint32(h.NumLabels()))
	le.PutUint32(hdr[56:], uint32(dictLen))
	le.PutUint32(hdr[60:], uint32(edgeDictLen))
	le.PutUint32(hdr[64:], v3Align)
	le.PutUint32(hdr[68:], uint32(len(dir)))
	le.PutUint32(hdr[72:], payloadCRC)
	for i, d := range dir {
		ent := hdr[v3HeaderSize+i*v3DirEntrySize:]
		le.PutUint32(ent, d.id)
		le.PutUint64(ent[8:], d.off)
		le.PutUint64(ent[16:], d.len)
	}
	le.PutUint32(hdr[76:], crc32.Checksum(hdr, crcTable))

	// Pass 2: the real bytes.
	em := &v3Emitter{w: w}
	em.bytes(hdr)
	em.padTo(payloadStart)
	emitPayload(em)
	em.flush()
	return em.err
}

// WriteBinaryV3File writes binary format v3 to a path.
func WriteBinaryV3File(path string, h *hypergraph.Hypergraph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteBinaryV3(f, h); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// encodeDictBlob serialises a dictionary as uvarint length + bytes per
// entry (the same entry encoding v1/v2 use).
func encodeDictBlob(d *hypergraph.Dict) []byte {
	if d == nil || d.Len() == 0 {
		return nil
	}
	var out []byte
	var tmp [binary.MaxVarintLen64]byte
	for l := 0; l < d.Len(); l++ {
		name := d.Name(hypergraph.Label(l))
		n := binary.PutUvarint(tmp[:], uint64(len(name)))
		out = append(out, tmp[:n]...)
		out = append(out, name...)
	}
	return out
}

// v3Emitter streams little-endian fixed-width sections with zero-fill
// padding, buffering encodes so emission costs one Write per ~32KiB.
type v3Emitter struct {
	w   io.Writer
	pos uint64
	buf []byte
	err error
}

const v3EmitBuf = 32 << 10

func (e *v3Emitter) flush() {
	if e.err != nil || len(e.buf) == 0 {
		e.buf = e.buf[:0]
		return
	}
	_, e.err = e.w.Write(e.buf)
	e.buf = e.buf[:0]
}

func (e *v3Emitter) room(n int) {
	if len(e.buf)+n > v3EmitBuf {
		e.flush()
	}
	if cap(e.buf) == 0 {
		e.buf = make([]byte, 0, v3EmitBuf)
	}
}

func (e *v3Emitter) bytes(b []byte) {
	if e.err != nil {
		return
	}
	e.flush()
	_, e.err = e.w.Write(b)
	e.pos += uint64(len(b))
}

var v3Zeros [4096]byte

func (e *v3Emitter) padTo(off uint64) {
	if e.err != nil {
		return
	}
	e.flush()
	for e.pos < off && e.err == nil {
		n := off - e.pos
		if n > uint64(len(v3Zeros)) {
			n = uint64(len(v3Zeros))
		}
		_, e.err = e.w.Write(v3Zeros[:n])
		e.pos += n
	}
}

func (e *v3Emitter) u32(x uint32) {
	if e.err != nil {
		return
	}
	e.room(4)
	e.buf = binary.LittleEndian.AppendUint32(e.buf, x)
	e.pos += 4
}

func (e *v3Emitter) u32s(s []uint32) {
	for _, x := range s {
		e.u32(x)
	}
}

func (e *v3Emitter) i32s(s []int32) {
	for _, x := range s {
		e.u32(uint32(x))
	}
}

func (e *v3Emitter) u64s(s []uint64) {
	for _, x := range s {
		if e.err != nil {
			return
		}
		e.room(8)
		e.buf = binary.LittleEndian.AppendUint64(e.buf, x)
		e.pos += 8
	}
}

// ---------------------------------------------------------------------------
// Parser (shared by the mmap attach path and the heap reader)

// v3File is a structurally validated v3 image: the header fields plus one
// byte window per present section. Only the directory and header have been
// checked — section contents are still raw bytes.
type v3File struct {
	data  []byte
	flags uint32
	nv    int
	ne    int
	np    int
	ta    int

	maxArity    int
	numLabels   int
	dictLen     int
	edgeDictLen int

	payloadCRC   uint32
	payloadStart uint64

	sec [v3MaxSecID + 1][]byte // nil = absent
}

func (f *v3File) hasEdgeLabels() bool { return f.flags&v3FlagEdgeLabels != 0 }
func (f *v3File) hasBitmaps() bool    { return f.flags&v3FlagBitmaps != 0 }

// parseV3 validates the header and section directory of a complete v3
// image: magic, declared file size, header checksum, section ids, bounds,
// alignment, overlaps and the exact byte length of every count-determined
// section. Malformed input of any kind returns an error; nothing here
// reads the large payload arrays, so the mmap attach path faults only the
// header pages.
func parseV3(data []byte) (*v3File, error) {
	le := binary.LittleEndian
	if len(data) < v3HeaderSize {
		return nil, fmt.Errorf("hgio: v3 file truncated at %d bytes", len(data))
	}
	if string(data[:4]) != binaryMagicV3 {
		return nil, fmt.Errorf("hgio: bad magic %q", data[:4])
	}
	f := &v3File{data: data}
	f.flags = le.Uint32(data[4:])
	if f.flags&^uint32(v3KnownFlags) != 0 {
		return nil, fmt.Errorf("hgio: v3 file carries unknown flags %#x", f.flags)
	}
	fileSize := le.Uint64(data[8:])
	if fileSize != uint64(len(data)) {
		return nil, fmt.Errorf("hgio: v3 file is %d bytes, header declares %d", len(data), fileSize)
	}
	nv, ne, np, ta := le.Uint64(data[16:]), le.Uint64(data[24:]), le.Uint64(data[32:]), le.Uint64(data[40:])
	if nv > sizeSanity || ne > sizeSanity || np > sizeSanity || ta > sizeSanity {
		return nil, fmt.Errorf("hgio: implausible v3 sizes v=%d e=%d p=%d Σa=%d", nv, ne, np, ta)
	}
	if np > ne || (ne > 0 && np == 0) {
		return nil, fmt.Errorf("hgio: %d partitions for %d edges", np, ne)
	}
	if ta < ne { // every edge has arity ≥ 1
		return nil, fmt.Errorf("hgio: total arity %d below edge count %d", ta, ne)
	}
	f.nv, f.ne, f.np, f.ta = int(nv), int(ne), int(np), int(ta)
	f.maxArity = int(le.Uint32(data[48:]))
	f.numLabels = int(le.Uint32(data[52:]))
	f.dictLen = int(le.Uint32(data[56:]))
	f.edgeDictLen = int(le.Uint32(data[60:]))
	if uint64(f.maxArity) > nv || (ne > 0 && f.maxArity == 0) || uint64(f.numLabels) > nv {
		return nil, fmt.Errorf("hgio: implausible v3 arity/label counts")
	}
	if uint64(f.dictLen) > sizeSanity || uint64(f.edgeDictLen) > sizeSanity {
		return nil, fmt.Errorf("hgio: implausible v3 dictionary sizes")
	}
	align := uint64(le.Uint32(data[64:]))
	if align < 8 || align > v3MaxAlign || align&(align-1) != 0 {
		return nil, fmt.Errorf("hgio: bad v3 section alignment %d", align)
	}
	nSec := int(le.Uint32(data[68:]))
	if nSec > v3MaxSections {
		return nil, fmt.Errorf("hgio: implausible v3 section count %d", nSec)
	}
	f.payloadCRC = le.Uint32(data[72:])
	dirEnd := uint64(v3HeaderSize + nSec*v3DirEntrySize)
	if dirEnd > uint64(len(data)) {
		return nil, fmt.Errorf("hgio: v3 directory extends past end of file")
	}
	// Header fingerprint: crc32c over header+directory with the CRC field
	// itself zeroed. A flipped directory offset or length dies here, before
	// any section is interpreted.
	hcrc := le.Uint32(data[76:])
	var zero [4]byte
	got := crc32.Checksum(data[:76], crcTable)
	got = crc32.Update(got, crcTable, zero[:])
	got = crc32.Update(got, crcTable, data[80:dirEnd])
	if got != hcrc {
		return nil, fmt.Errorf("hgio: v3 header checksum mismatch")
	}
	f.payloadStart = v3AlignUp(dirEnd, align)

	// Directory: known unique ids, aligned in-bounds non-overlapping
	// windows, ascending id order (which the writer emits, and which makes
	// the overlap check a single pass over offsets).
	prevID := uint32(0)
	prevEnd := f.payloadStart
	for i := 0; i < nSec; i++ {
		ent := data[v3HeaderSize+i*v3DirEntrySize:]
		id := le.Uint32(ent)
		off := le.Uint64(ent[8:])
		length := le.Uint64(ent[16:])
		if id == 0 || id > v3MaxSecID {
			return nil, fmt.Errorf("hgio: unknown v3 section id %d", id)
		}
		if id <= prevID {
			return nil, fmt.Errorf("hgio: v3 directory not in ascending id order at section %d", id)
		}
		prevID = id
		if length == 0 {
			return nil, fmt.Errorf("hgio: v3 section %d has zero length", id)
		}
		if off%align != 0 {
			return nil, fmt.Errorf("hgio: v3 section %d offset %d not %d-aligned", id, off, align)
		}
		if off < prevEnd || off > uint64(len(data)) || length > uint64(len(data))-off {
			return nil, fmt.Errorf("hgio: v3 section %d window [%d,+%d) out of bounds or overlapping", id, off, length)
		}
		prevEnd = off + length
		f.sec[id] = data[off : off+length]
	}

	// Exact lengths for every count-determined section, and presence
	// exactly when the header says the section must exist. The
	// meta-determined sections (PartVerts/PartOffs/PartPosts, Bm*) get
	// their exact lengths cross-checked against the meta rows later.
	const anyLen = ^uint64(0) // free-form length (dict blobs)
	want := func(id int, n uint64, present bool) error {
		s := f.sec[id]
		switch {
		case !present && s != nil:
			return fmt.Errorf("hgio: unexpected v3 section %d", id)
		case present && s == nil:
			return fmt.Errorf("hgio: missing v3 section %d", id)
		case present && n != anyLen && uint64(len(s)) != n:
			return fmt.Errorf("hgio: v3 section %d is %d bytes, want %d", id, len(s), n)
		}
		return nil
	}
	checks := []error{
		want(secDict, anyLen, f.flags&v3FlagDict != 0),
		want(secEdgeDict, anyLen, f.flags&v3FlagEdgeDict != 0),
		want(secLabels, 4*nv, nv > 0),
		want(secEdgeLabels, 4*ne, f.hasEdgeLabels() && ne > 0),
		want(secEdgeOff, 4*(ne+1), true),
		want(secEdgeVerts, 4*ta, ta > 0),
		want(secIncOff, 4*(nv+1), true),
		want(secIncEdges, 4*ta, ta > 0),
		want(secEdgePart, 4*ne, ne > 0),
		want(secPartMeta, 32*np, np > 0),
		want(secPartEdges, 4*ne, ne > 0),
		want(secBmMeta, 32*np, f.hasBitmaps()),
	}
	for _, err := range checks {
		if err != nil {
			return nil, err
		}
	}
	// Dict sections: free length but presence must match the flag (checked
	// above with n=0: a present free-form section passes want() only via
	// the length check, so re-verify presence here).
	if f.flags&v3FlagDict != 0 && (f.sec[secDict] == nil || f.dictLen == 0) {
		return nil, fmt.Errorf("hgio: v3 dict flag set without dictionary")
	}
	if f.flags&v3FlagEdgeDict != 0 && (f.sec[secEdgeDict] == nil || f.edgeDictLen == 0) {
		return nil, fmt.Errorf("hgio: v3 edge-dict flag set without dictionary")
	}
	// PartOffs holds at least one entry per table; PartVerts and PartPosts
	// are empty when no table carries an index (tableRows checks their
	// lengths).
	if (np > 0) != (f.sec[secPartOffs] != nil) {
		return nil, fmt.Errorf("hgio: v3 section %d presence inconsistent with %d partitions", secPartOffs, np)
	}
	for _, id := range []int{secPartVerts, secPartOffs, secPartPosts} {
		if len(f.sec[id])%4 != 0 {
			return nil, fmt.Errorf("hgio: v3 section %d not a whole number of elements", id)
		}
	}
	if !f.hasBitmaps() {
		for _, id := range []int{secBmIdx, secBmWords, secBmRanks, secBmCards} {
			if f.sec[id] != nil {
				return nil, fmt.Errorf("hgio: unexpected v3 section %d", id)
			}
		}
	}
	return f, nil
}

// verifyPayload checks the payload fingerprint (everything from the first
// section to end of file). The heap reader always pays this; the mmap
// attach path only on request, because it faults every page in.
func (f *v3File) verifyPayload() error {
	if crc32.Checksum(f.data[f.payloadStart:], crcTable) != f.payloadCRC {
		return fmt.Errorf("hgio: v3 payload checksum mismatch")
	}
	return nil
}

// decodeDictBlob decodes a dictionary section (exactly n entries filling
// the blob).
func decodeDictBlob(blob []byte, n int) (*hypergraph.Dict, error) {
	if n == 0 {
		return nil, nil
	}
	d := hypergraph.NewDict()
	for i := 0; i < n; i++ {
		l, used := binary.Uvarint(blob)
		if used <= 0 || l > 1<<20 || uint64(len(blob)-used) < l {
			return nil, fmt.Errorf("hgio: v3 dict entry %d malformed", i)
		}
		d.Intern(string(blob[used : used+int(l)]))
		blob = blob[used+int(l):]
	}
	if len(blob) != 0 {
		return nil, fmt.Errorf("hgio: %d trailing bytes after v3 dict", len(blob))
	}
	return d, nil
}

// tableRows decodes the PartMeta section into partition-directory rows
// (plus the closing sentinel), validating it: member windows must be
// non-empty, index windows both empty or both not (a small table carries
// no index; hypergraph requires one on every larger table), and all
// contiguous, in order and exactly covering their sections, with the
// member counts summing to the header's edge count and the posting counts
// at most the total arity. O(np), one allocation.
func (f *v3File) tableRows() ([]hypergraph.TableRow, error) {
	le := binary.LittleEndian
	meta := f.sec[secPartMeta]
	rows := make([]hypergraph.TableRow, f.np+1)
	var eo, vo, po uint64
	for pi := 0; pi < f.np; pi++ {
		row := meta[pi*32:]
		edgeLabel := le.Uint32(row)
		edgesOff, edgesLen := uint64(le.Uint32(row[4:])), uint64(le.Uint32(row[8:]))
		vertsOff, vertsLen := uint64(le.Uint32(row[12:])), uint64(le.Uint32(row[16:]))
		offsOff := uint64(le.Uint32(row[20:]))
		postsOff, postsLen := uint64(le.Uint32(row[24:])), uint64(le.Uint32(row[28:]))
		if !f.hasEdgeLabels() && edgeLabel != hypergraph.NoEdgeLabel {
			return nil, fmt.Errorf("hgio: partition %d carries an edge label in an unlabelled v3 file", pi)
		}
		if edgesLen == 0 {
			return nil, fmt.Errorf("hgio: partition %d is empty", pi)
		}
		if (vertsLen == 0) != (postsLen == 0) {
			return nil, fmt.Errorf("hgio: partition %d index windows malformed", pi)
		}
		if edgesOff != eo || vertsOff != vo || offsOff != vo+uint64(pi) || postsOff != po {
			return nil, fmt.Errorf("hgio: partition %d windows not contiguous", pi)
		}
		rows[pi] = hypergraph.TableRow{EdgeLabel: edgeLabel, Edges: uint32(eo), Verts: uint32(vo), Posts: uint32(po)}
		eo += edgesLen
		vo += vertsLen
		po += postsLen
		if eo > uint64(f.ne) || po > uint64(f.ta) || vo > uint64(f.ta) {
			return nil, fmt.Errorf("hgio: partition %d windows out of bounds", pi)
		}
	}
	if eo != uint64(f.ne) {
		return nil, fmt.Errorf("hgio: partitions claim %d member edges, file has %d", eo, f.ne)
	}
	if po*4 != uint64(len(f.sec[secPartPosts])) {
		return nil, fmt.Errorf("hgio: partitions claim %d postings, the section holds %d", po, len(f.sec[secPartPosts])/4)
	}
	if vo*4 != uint64(len(f.sec[secPartVerts])) || (vo+uint64(f.np))*4 != uint64(len(f.sec[secPartOffs])) {
		return nil, fmt.Errorf("hgio: partition windows do not cover their sections")
	}
	rows[f.np] = hypergraph.TableRow{Edges: uint32(eo), Verts: uint32(vo), Posts: uint32(po)}
	return rows, nil
}

// v3BmWindows cuts the bitmap sidecar sections, validating the BmMeta rows
// the same way; nil when the file carries no sidecars.
type v3BmWin struct {
	nBms                     int
	rankBase                 uint32
	idx, words, cards, ranks []byte
}

func (f *v3File) bmWindows(rows []hypergraph.TableRow) ([]v3BmWin, error) {
	if !f.hasBitmaps() {
		return nil, nil
	}
	le := binary.LittleEndian
	meta := f.sec[secBmMeta]
	partEdges := f.sec[secPartEdges]
	wins := make([]v3BmWin, f.np)
	var io_, wo, co, ro uint64
	for pi := 0; pi < f.np; pi++ {
		row := meta[pi*32:]
		nBms := uint64(le.Uint32(row))
		idxOff, wordsOff := uint64(le.Uint32(row[4:])), uint64(le.Uint32(row[8:]))
		cardsOff, rankOff := uint64(le.Uint32(row[12:])), uint64(le.Uint32(row[16:]))
		rankLen, rankBase := uint64(le.Uint32(row[20:])), le.Uint32(row[24:])
		if nBms == 0 {
			if idxOff|wordsOff|cardsOff|rankOff|rankLen != 0 || rankBase != 0 {
				return nil, fmt.Errorf("hgio: partition %d sidecar row not zeroed", pi)
			}
			continue
		}
		nEdges := uint64(rows[pi+1].Edges - rows[pi].Edges)
		nVerts := uint64(rows[pi+1].Verts - rows[pi].Verts)
		if nBms > nVerts { // one container per distinct vertex at most
			return nil, fmt.Errorf("hgio: partition %d claims %d bitmap containers for %d vertices", pi, nBms, nVerts)
		}
		// The rank table must span exactly the member-edge ID range: two
		// boundary reads against the partition's edge window prove it.
		first := le.Uint32(partEdges[4*rows[pi].Edges:])
		last := le.Uint32(partEdges[4*rows[pi+1].Edges-4:])
		if rankBase != first || last < first || rankLen != uint64(last-first)+1 {
			return nil, fmt.Errorf("hgio: partition %d rank table spans [%d,+%d), members span [%d,%d]", pi, rankBase, rankLen, first, last)
		}
		if idxOff != io_ || wordsOff != wo || cardsOff != co || rankOff != ro {
			return nil, fmt.Errorf("hgio: partition %d sidecar windows not contiguous", pi)
		}
		words := uint64(setops.WordsFor(int(nEdges)))
		io_ += nVerts
		wo += nBms * words
		co += nBms
		ro += rankLen
		wins[pi] = v3BmWin{
			nBms:     int(nBms),
			rankBase: rankBase,
			idx:      sliceWin(f.sec[secBmIdx], idxOff, nVerts, 4),
			words:    sliceWin(f.sec[secBmWords], wordsOff, nBms*words, 8),
			cards:    sliceWin(f.sec[secBmCards], cardsOff, nBms, 4),
			ranks:    sliceWin(f.sec[secBmRanks], rankOff, rankLen, 4),
		}
		if wins[pi].idx == nil || wins[pi].words == nil || wins[pi].cards == nil || wins[pi].ranks == nil {
			return nil, fmt.Errorf("hgio: partition %d sidecar windows out of bounds", pi)
		}
	}
	if io_*4 != uint64(len(f.sec[secBmIdx])) || wo*8 != uint64(len(f.sec[secBmWords])) ||
		co*4 != uint64(len(f.sec[secBmCards])) || ro*4 != uint64(len(f.sec[secBmRanks])) {
		return nil, fmt.Errorf("hgio: sidecar windows do not cover their sections")
	}
	return wins, nil
}

// sliceWin returns sec[off*elem : (off+n)*elem], nil when out of bounds.
func sliceWin(sec []byte, off, n, elem uint64) []byte {
	end := (off + n) * elem
	if off > uint64(len(sec))/elem || end > uint64(len(sec)) || end < off*elem {
		return nil
	}
	return sec[off*elem : end]
}

// ---------------------------------------------------------------------------
// Heap reader

// readBinaryV3 decodes a complete v3 image onto the heap through the same
// fully-validating Assemble path v2 uses: both checksums are always
// verified, every section is deep-copied into native byte order, and the
// canonical-CSR replay re-proves the index. This is the entry point for
// untrusted bytes; MapFile is the trusting zero-copy one.
func readBinaryV3(data []byte) (*hypergraph.Hypergraph, error) {
	f, err := parseV3(data)
	if err != nil {
		return nil, err
	}
	if err := f.verifyPayload(); err != nil {
		return nil, err
	}
	dict, err := decodeDictBlob(f.sec[secDict], f.dictLen)
	if err != nil {
		return nil, err
	}
	edgeDict, err := decodeDictBlob(f.sec[secEdgeDict], f.edgeDictLen)
	if err != nil {
		return nil, err
	}
	labels := decodeU32s(f.sec[secLabels])
	var edgeLabels []hypergraph.Label
	if f.hasEdgeLabels() {
		edgeLabels = decodeU32s(f.sec[secEdgeLabels])
		if edgeLabels == nil {
			edgeLabels = []hypergraph.Label{}
		}
	}
	rows, err := f.tableRows()
	if err != nil {
		return nil, err
	}
	// Incidence lists, edge→partition links and bitmap sidecars are
	// re-derived by Assemble; their sections were still checksummed above,
	// so corruption anywhere in the file fails the load.
	h, err := hypergraph.Assemble(hypergraph.Storage{
		Labels:     labels,
		EdgeOff:    decodeU32s(f.sec[secEdgeOff]),
		EdgeVerts:  decodeU32s(f.sec[secEdgeVerts]),
		EdgeLabels: edgeLabels,
		Tables:     rows,
		PartEdges:  decodeU32s(f.sec[secPartEdges]),
		PartVerts:  decodeU32s(f.sec[secPartVerts]),
		PartOffs:   decodeU32s(f.sec[secPartOffs]),
		PartPosts:  decodeU32s(f.sec[secPartPosts]),
		Dict:       dict,
		EdgeDict:   edgeDict,
	})
	if err != nil {
		return nil, fmt.Errorf("hgio: %w", err)
	}
	return h, nil
}

// decodeU32s copies a little-endian u32 section into a native slice.
func decodeU32s(b []byte) []uint32 {
	if len(b) == 0 {
		return nil
	}
	out := make([]uint32, len(b)/4)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[i*4:])
	}
	return out
}

// checkOffsets validates a CSR offset table over a flat array of n
// elements: offsets[0] must be 0, the sequence monotone (strictly
// increasing when nonEmpty — every row holds at least one element), and
// the final offset must equal n.
func checkOffsets(offsets []uint32, n int, nonEmpty bool) error {
	if len(offsets) == 0 {
		return fmt.Errorf("missing offset table")
	}
	if offsets[0] != 0 {
		return fmt.Errorf("offset table does not start at 0")
	}
	if int(offsets[len(offsets)-1]) != n {
		return fmt.Errorf("offset table covers %d of %d elements", offsets[len(offsets)-1], n)
	}
	for i := 1; i < len(offsets); i++ {
		if lo, hi := offsets[i-1], offsets[i]; hi < lo || (nonEmpty && hi == lo) {
			return fmt.Errorf("row %d offsets [%d,%d) malformed", i-1, lo, hi)
		}
	}
	return nil
}
