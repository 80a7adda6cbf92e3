package hgio

import (
	"errors"
	"fmt"
	"os"
	"sync/atomic"
	"unsafe"

	"hgmatch/internal/hypergraph"
	"hgmatch/internal/setops"
)

// The mmap attach path: serve a binary-v3 graph straight off the mapped
// file. parseV3 validates the directory and header fingerprint, the small
// structural tables (offset arrays, partition links, sidecar indexes) are
// swept eagerly so no later access can index out of bounds, and everything
// big — edge vertex sets, incidence lists, posting arrays, bitmap words —
// is adopted as zero-copy views into the mapping, trusted under the file's
// payload checksum (verified only on request: it would fault every page
// in). The kernel pages the arrays in on first touch and may drop them
// again under memory pressure; the Go heap holds only the partition
// directory and the signature lookup structures.

// ErrNotV3 reports that a file is not in binary format v3 and therefore
// cannot be memory-mapped; callers typically fall back to a heap load.
var ErrNotV3 = errors.New("hgio: not a binary v3 file")

var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// MapOptions configures MapFile.
type MapOptions struct {
	// Verify checks the payload checksum during attach. It faults every
	// page of the file in (a full sequential read), trading the lazy-load
	// benefit for end-to-end corruption detection.
	Verify bool
}

// MappedGraph is a hypergraph served from a memory-mapped binary-v3 file.
// The handle is reference-counted: the creator holds one reference, every
// in-flight user that may outlive the creator's interest takes another via
// Retain, and the final Release unmaps the file. After that any access to
// the graph's storage would fault — the registry's eviction protocol
// drains references before releasing its own.
type MappedGraph struct {
	h      *hypergraph.Hypergraph
	data   []byte
	mapped bool // true: data is an OS mapping; false: aligned heap buffer
	path   string
	refs   atomic.Int64
}

// MapFile memory-maps a binary-v3 file read-only and attaches a
// hypergraph over it. Non-v3 files return an error wrapping ErrNotV3. On
// platforms without mmap support the file is read into an aligned buffer
// instead — same handle semantics, no paging benefit.
func MapFile(path string, opts MapOptions) (*MappedGraph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	var magic [4]byte
	if _, err := f.ReadAt(magic[:], 0); err != nil || string(magic[:]) != binaryMagicV3 {
		return nil, fmt.Errorf("%w: %s", ErrNotV3, path)
	}
	if size > int64(^uint(0)>>1) {
		return nil, fmt.Errorf("hgio: %s too large to map", path)
	}
	data, mapped, err := mmapWhole(f, int(size))
	if err != nil {
		return nil, fmt.Errorf("hgio: mapping %s: %w", path, err)
	}
	h, err := attachV3(data, opts.Verify)
	if err != nil {
		if mapped {
			munmapData(data)
		}
		return nil, fmt.Errorf("hgio: attaching %s: %w", path, err)
	}
	m := &MappedGraph{h: h, data: data, mapped: mapped, path: path}
	m.refs.Store(1)
	return m, nil
}

// MapBytes attaches a hypergraph over an in-memory v3 image. The bytes are
// copied into an 8-byte-aligned buffer (unsafe reinterpretation needs the
// alignment; arbitrary caller slices don't guarantee it). Intended for
// tests and tooling; file serving goes through MapFile.
func MapBytes(data []byte, opts MapOptions) (*MappedGraph, error) {
	buf := alignedBuf(len(data))
	copy(buf, data)
	h, err := attachV3(buf, opts.Verify)
	if err != nil {
		return nil, err
	}
	m := &MappedGraph{h: h, data: buf, mapped: false, path: "(bytes)"}
	m.refs.Store(1)
	return m, nil
}

// Graph returns the attached hypergraph. Valid only while the caller holds
// a reference.
func (m *MappedGraph) Graph() *hypergraph.Hypergraph { return m.h }

// Path returns the backing file's path.
func (m *MappedGraph) Path() string { return m.path }

// FileBytes returns the size of the mapped image — the amount of address
// space the graph occupies, and the upper bound on what the page cache
// keeps resident for it.
func (m *MappedGraph) FileBytes() int { return len(m.data) }

// HeapOverheadBytes reports the Go-heap bytes the attached graph pins
// while mapped: the partition directory, the signature interner and the
// signature→table lookup. Everything per edge, per vertex and per posting
// lives in the mapping and is not counted.
func (m *MappedGraph) HeapOverheadBytes() int {
	st := hypergraph.ComputeStats(m.h)
	return st.SigTableBytes + 20*st.Partitions + 4*st.Signatures
}

// Retain takes an additional reference. It must only be called by a holder
// of a live reference (the count can never revive from zero).
func (m *MappedGraph) Retain() {
	if m.refs.Add(1) <= 1 {
		panic("hgio: Retain on released MappedGraph")
	}
}

// Release drops one reference; the final release unmaps the file. After
// that the graph and every slice derived from it are invalid.
func (m *MappedGraph) Release() error {
	n := m.refs.Add(-1)
	if n < 0 {
		panic("hgio: MappedGraph over-released")
	}
	if n > 0 {
		return nil
	}
	data := m.data
	m.data = nil
	m.h = nil
	if m.mapped {
		return munmapData(data)
	}
	return nil
}

// Close is Release, for io.Closer call sites.
func (m *MappedGraph) Close() error { return m.Release() }

// alignedBuf returns a zeroed byte slice of length n whose base address is
// 8-byte aligned (backed by a []uint64).
func alignedBuf(n int) []byte {
	if n == 0 {
		return nil
	}
	w := make([]uint64, (n+7)/8)
	return unsafe.Slice((*byte)(unsafe.Pointer(&w[0])), n)
}

// u32view reinterprets a little-endian u32 section in place. Caller
// guarantees 4-byte alignment and a little-endian host.
func u32view(b []byte) []uint32 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), len(b)/4)
}

func i32view(b []byte) []int32 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), len(b)/4)
}

func u64view(b []byte) []uint64 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), len(b)/8)
}

// attachV3 builds a hypergraph over a v3 image in place. Eagerly swept
// (and therefore safe against any file content): the section directory,
// both offset tables, the edge→partition links, the partition and sidecar
// directory rows, the per-partition CSR offset windows, the container
// index tables and cardinalities. Trusted under the payload checksum: the
// content of edge vertex sets, incidence lists, posting arrays, rank
// tables and bitmap words.
func attachV3(data []byte, verify bool) (*hypergraph.Hypergraph, error) {
	if !hostLittleEndian {
		return nil, fmt.Errorf("hgio: zero-copy v3 attach requires a little-endian host")
	}
	if len(data) > 0 && uintptr(unsafe.Pointer(&data[0]))%8 != 0 {
		return nil, fmt.Errorf("hgio: v3 image base address not 8-byte aligned")
	}
	f, err := parseV3(data)
	if err != nil {
		return nil, err
	}
	if verify {
		if err := f.verifyPayload(); err != nil {
			return nil, err
		}
	}
	dict, err := decodeDictBlob(f.sec[secDict], f.dictLen)
	if err != nil {
		return nil, err
	}
	edgeDict, err := decodeDictBlob(f.sec[secEdgeDict], f.edgeDictLen)
	if err != nil {
		return nil, err
	}

	st := hypergraph.Storage{
		Labels:    u32view(f.sec[secLabels]),
		EdgeOff:   u32view(f.sec[secEdgeOff]),
		EdgeVerts: u32view(f.sec[secEdgeVerts]),
		PartEdges: u32view(f.sec[secPartEdges]),
		PartVerts: u32view(f.sec[secPartVerts]),
		PartOffs:  u32view(f.sec[secPartOffs]),
		PartPosts: u32view(f.sec[secPartPosts]),
		IncOff:    u32view(f.sec[secIncOff]),
		IncEdges:  u32view(f.sec[secIncEdges]),
		EdgePart:  u32view(f.sec[secEdgePart]),
		NumLabels: f.numLabels,
		MaxArity:  f.maxArity,
		Dict:      dict,
		EdgeDict:  edgeDict,
	}
	if f.hasEdgeLabels() {
		st.EdgeLabels = u32view(f.sec[secEdgeLabels])
		if st.EdgeLabels == nil {
			st.EdgeLabels = []hypergraph.Label{}
		}
	}
	if err := checkOffsets(st.EdgeOff, len(st.EdgeVerts), true); err != nil {
		return nil, fmt.Errorf("hgio: v3 edge table: %w", err)
	}
	if err := checkOffsets(st.IncOff, len(st.IncEdges), false); err != nil {
		return nil, fmt.Errorf("hgio: v3 incidence table: %w", err)
	}
	for _, p := range st.EdgePart {
		if int(p) >= f.np {
			return nil, fmt.Errorf("hgio: edge linked to partition %d of %d", p, f.np)
		}
	}

	if st.Tables, err = f.tableRows(); err != nil {
		return nil, err
	}
	bmWins, err := f.bmWindows(st.Tables)
	if err != nil {
		return nil, err
	}
	for pi := 0; pi < f.np; pi++ {
		r, end := st.Tables[pi], st.Tables[pi+1]
		// The per-partition CSR offset window must be a valid cover of the
		// posting window: starts at 0, strictly increasing (every vertex
		// posts at least once), ends at the posting count.
		offs := st.PartOffs[int(r.Verts)+pi : int(end.Verts)+pi+1]
		if err := checkOffsets(offs, int(end.Posts-r.Posts), true); err != nil {
			return nil, fmt.Errorf("hgio: partition %d CSR offsets: %w", pi, err)
		}
		if bmWins == nil || bmWins[pi].nBms == 0 {
			continue
		}
		bw := &bmWins[pi]
		idx := i32view(bw.idx)
		for _, x := range idx {
			if x < -1 || int(x) >= bw.nBms {
				return nil, fmt.Errorf("hgio: partition %d container index %d out of range", pi, x)
			}
		}
		cards := u32view(bw.cards)
		nbits := int(end.Edges - r.Edges)
		words := u64view(bw.words)
		wpb := setops.WordsFor(nbits)
		bms := make([]setops.Bitmap, bw.nBms)
		for i := range bms {
			card := int(cards[i])
			if card > nbits {
				return nil, fmt.Errorf("hgio: partition %d container %d cardinality %d exceeds span %d", pi, i, card, nbits)
			}
			bms[i] = setops.BorrowBitmap(words[i*wpb:(i+1)*wpb], nbits, card)
		}
		st.Sidecars = append(st.Sidecars, hypergraph.Sidecar{
			Table: uint32(pi),
			Ranks: setops.RankTable{Base: bw.rankBase, Tab: u32view(bw.ranks)},
			BmIdx: idx,
			Bms:   bms,
		})
	}
	h, err := hypergraph.AdoptForeign(st)
	if err != nil {
		return nil, fmt.Errorf("hgio: %w", err)
	}
	return h, nil
}
