package hgio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"hgmatch/internal/hypergraph"
)

// Binary format v2 ("HGB2"): a compact varint encoding for large
// hypergraphs where the text format's parse cost matters (the paper's AR
// stand-in is ~4M hyperedges at full scale). It persists the raw graph
// and the built storage layer — the partitioned hyperedge tables and their
// CSR inverted indexes — so loading assembles the flat arrays directly
// (hypergraph.Assemble) instead of re-inverting postings. The graph
// sections come first:
//
//	magic "HGB2"
//	uvarint numVertices, numEdges, numDictEntries, flags
//	dict entries: uvarint len + bytes (vertex label names, index = Label)
//	vertex labels: uvarint per vertex
//	per edge: [uvarint edgeLabel+1 when flagEdgeLabels] uvarint arity,
//	          then delta-encoded sorted vertex IDs (uvarint first,
//	          uvarint gaps-1)
//
// followed by the index section:
//
//	uvarint numPartitions
//	per partition (canonical order):
//	  [uvarint edgeLabel+1 when flagEdgeLabels]
//	  uvarint numEdges + delta-encoded sorted member edge IDs
//	  uvarint numVerts + delta-encoded sorted CSR vertex dictionary
//	  per vertex: uvarint postingLen + delta-encoded posting edge IDs
//
// A table of at most a few edges (hypergraph's small-table cutoff) carries
// no index: numVerts is 0. Files written before that carry the full index
// on such tables too; the reader accepts it and drops it.
// Edge labels use +1 so NoEdgeLabel encodes as 0. The retired version 1
// ("HGB1", the graph sections alone) is no longer read.
//
// An online DeltaBuffer snapshot is compacted before writing, as for v3:
// the file then equals a cold offline build of the live edge set, with
// the same hyperedge IDs unless tombstones left gaps to close.
//
// docs/FORMAT.md is the normative byte-level specification.
const binaryMagicV2 = "HGB2"

const flagEdgeLabels = 1

const sizeSanity = 1 << 31

// binWriter wraps the varint encoding plumbing.
type binWriter struct {
	bw  *bufio.Writer
	buf [binary.MaxVarintLen64]byte
}

func (w *binWriter) uv(x uint64) error {
	n := binary.PutUvarint(w.buf[:], x)
	_, err := w.bw.Write(w.buf[:n])
	return err
}

// deltaSet writes a strictly increasing uint32 set as first + (gap-1)s.
func (w *binWriter) deltaSet(s []uint32) error {
	prev := uint64(0)
	for i, v := range s {
		x := uint64(v)
		if i > 0 {
			x -= prev + 1
		}
		if err := w.uv(x); err != nil {
			return err
		}
		prev = uint64(v)
	}
	return nil
}

func (w *binWriter) edgeLabel(el hypergraph.Label) error {
	enc := uint64(0)
	if el != hypergraph.NoEdgeLabel {
		enc = uint64(el) + 1
	}
	return w.uv(enc)
}

// writeCommon emits the header, dictionary, vertex-label and edge sections.
func (w *binWriter) writeCommon(h *hypergraph.Hypergraph) error {
	if _, err := w.bw.WriteString(binaryMagicV2); err != nil {
		return err
	}
	flags := uint64(0)
	if h.EdgeLabelled() {
		flags |= flagEdgeLabels
	}
	dictLen := 0
	if d := h.Dict(); d != nil {
		dictLen = d.Len()
	}
	for _, x := range []uint64{uint64(h.NumVertices()), uint64(h.NumEdges()), uint64(dictLen), flags} {
		if err := w.uv(x); err != nil {
			return err
		}
	}
	if d := h.Dict(); d != nil {
		for l := 0; l < d.Len(); l++ {
			name := d.Name(hypergraph.Label(l))
			if err := w.uv(uint64(len(name))); err != nil {
				return err
			}
			if _, err := w.bw.WriteString(name); err != nil {
				return err
			}
		}
	}
	for v := 0; v < h.NumVertices(); v++ {
		if err := w.uv(uint64(h.Label(uint32(v)))); err != nil {
			return err
		}
	}
	for e := 0; e < h.NumEdges(); e++ {
		id := hypergraph.EdgeID(e)
		if h.EdgeLabelled() {
			if err := w.edgeLabel(h.EdgeLabel(id)); err != nil {
				return err
			}
		}
		vs := h.Edge(id)
		if err := w.uv(uint64(len(vs))); err != nil {
			return err
		}
		if err := w.deltaSet(vs); err != nil {
			return err
		}
	}
	return nil
}

// WriteBinary serialises h in binary format v2, index included. A
// delta-carrying snapshot is compacted first.
func WriteBinary(w io.Writer, h *hypergraph.Hypergraph) error {
	if h.HasDelta() || h.NumDeadEdges() > 0 {
		var err error
		if h, err = h.Compacted(); err != nil {
			return err
		}
	}
	bw := &binWriter{bw: bufio.NewWriter(w)}
	if err := bw.writeCommon(h); err != nil {
		return err
	}
	if err := bw.uv(uint64(h.NumPartitions())); err != nil {
		return err
	}
	for pi := 0; pi < h.NumPartitions(); pi++ {
		p := h.Partition(pi)
		if h.EdgeLabelled() {
			if err := bw.edgeLabel(p.EdgeLabel); err != nil {
				return err
			}
		}
		if err := bw.uv(uint64(p.Len())); err != nil {
			return err
		}
		if err := bw.deltaSet(p.Edges); err != nil {
			return err
		}
		if err := bw.writePostings(&p); err != nil {
			return err
		}
	}
	return bw.bw.Flush()
}

// writePostings emits one partition's CSR section: the vertex dictionary
// followed by each vertex's posting list.
func (w *binWriter) writePostings(p *hypergraph.Partition) error {
	verts := p.PostingVertices()
	if err := w.uv(uint64(len(verts))); err != nil {
		return err
	}
	if err := w.deltaSet(verts); err != nil {
		return err
	}
	for i := range verts {
		l := p.PostingsAt(i)
		if err := w.uv(uint64(len(l))); err != nil {
			return err
		}
		if err := w.deltaSet(l); err != nil {
			return err
		}
	}
	return nil
}

// binReader decodes an HGB2 image from a byte-slice cursor. The whole
// image is in memory, so every count can be checked against the bytes
// left before anything is sized by it: every encoded entry costs at least
// one byte, and truncation and overflow are errors, never panics.
type binReader struct {
	b   []byte
	off int
}

func (r *binReader) left() uint64 { return uint64(len(r.b) - r.off) }

// uv reads one uvarint; one-byte varints take the inline fast path.
func (r *binReader) uv(what string) (uint64, error) {
	if r.off < len(r.b) && r.b[r.off] < 0x80 {
		x := uint64(r.b[r.off])
		r.off++
		return x, nil
	}
	return r.uvSlow(what)
}

func (r *binReader) uvSlow(what string) (uint64, error) {
	x, n := binary.Uvarint(r.b[r.off:])
	if n == 0 {
		return 0, fmt.Errorf("hgio: reading %s: %w", what, io.ErrUnexpectedEOF)
	}
	if n < 0 {
		return 0, fmt.Errorf("hgio: reading %s: varint overflows 64 bits", what)
	}
	r.off += n
	return x, nil
}

// count reads a count of entries that must each still fit in the image.
func (r *binReader) count(what string) (uint64, error) {
	n, err := r.uv(what)
	if err != nil {
		return 0, err
	}
	if n > r.left() {
		return 0, fmt.Errorf("hgio: %s %d exceeds the %d bytes left: %w", what, n, r.left(), io.ErrUnexpectedEOF)
	}
	return n, nil
}

// deltaSet appends n strictly increasing uint32s below limit to dst, so
// batched decodes (member lists, CSR posting lists) share one backing
// array. Varints of up to three bytes — every gap of a graph under 2M
// hyperedges — decode inline.
func (r *binReader) deltaSet(dst []uint32, n, limit uint64, what string) ([]uint32, error) {
	if n > r.left() {
		return nil, fmt.Errorf("hgio: %d %ss exceed the %d bytes left: %w", n, what, r.left(), io.ErrUnexpectedEOF)
	}
	b, off := r.b, r.off
	prev := uint64(0)
	for i := uint64(0); i < n; i++ {
		var x uint64
		switch {
		case off < len(b) && b[off] < 0x80:
			x = uint64(b[off])
			off++
		case off+1 < len(b) && b[off+1] < 0x80:
			x = uint64(b[off]&0x7f) | uint64(b[off+1])<<7
			off += 2
		case off+2 < len(b) && b[off+2] < 0x80:
			x = uint64(b[off]&0x7f) | uint64(b[off+1]&0x7f)<<7 | uint64(b[off+2])<<14
			off += 3
		default:
			r.off = off
			var err error
			if x, err = r.uvSlow(what); err != nil {
				return nil, err
			}
			off = r.off
		}
		if i > 0 {
			if x >= limit {
				return nil, fmt.Errorf("hgio: %s gap %d out of range %d", what, x, limit)
			}
			x += prev + 1
		}
		if x >= limit {
			return nil, fmt.Errorf("hgio: %s %d out of range %d", what, x, limit)
		}
		dst = append(dst, uint32(x))
		prev = x
	}
	r.off = off
	return dst, nil
}

func (r *binReader) edgeLabel() (hypergraph.Label, error) {
	enc, err := r.uv("edge label")
	if err != nil {
		return 0, err
	}
	if enc == 0 {
		return hypergraph.NoEdgeLabel, nil
	}
	if enc-1 >= uint64(hypergraph.NoEdgeLabel) {
		return 0, fmt.Errorf("hgio: implausible edge label %d", enc-1)
	}
	return hypergraph.Label(enc - 1), nil
}

// v2Sizes holds the entry counts of the arrays no header states: the
// edges' vertex cells (Σ arity), and the tables' CSR vertex dictionaries
// and posting lists.
type v2Sizes struct{ cells, verts, posts uint64 }

// measure walks the edge and index sections without storing anything or
// moving the cursor, and returns the sizes the decode then allocates
// exactly once. It checks
// only that every run it skips is present; the decode validates the
// content. Each counted entry was skipped over, so both sizes are bounded
// by the image's length, not by what its header claims.
func (r *binReader) measure(ne uint64, hasEL bool) (v2Sizes, error) {
	b, off, ok := r.b, r.off, true
	// count reads a uvarint that must not exceed the bytes left after it.
	count := func() uint64 {
		x, n := uint64(0), 1
		if off < len(b) && b[off] < 0x80 {
			x = uint64(b[off])
		} else {
			x, n = binary.Uvarint(b[off:])
		}
		if n <= 0 || x > uint64(len(b)-off-n) {
			ok, off = false, len(b)
			return 0
		}
		off += n
		return x
	}
	// skip advances past n uvarints: one per byte with the high bit clear.
	skip := func(n uint64) {
		for ; n > 0; off++ {
			if off >= len(b) {
				ok = false
				return
			}
			n -= uint64(b[off]>>7 ^ 1)
		}
	}
	label := uint64(0)
	if hasEL {
		label = 1
	}
	var sz v2Sizes
	for e := uint64(0); e < ne && ok; e++ {
		skip(label)
		arity := count()
		skip(arity)
		sz.cells += arity
	}
	np := count()
	for pi := uint64(0); pi < np && ok; pi++ {
		skip(label)
		skip(count()) // member edges
		nverts := count()
		skip(nverts) // vertex dictionary
		for i := uint64(0); i < nverts && ok; i++ {
			plen := count()
			skip(plen) // one posting list
			sz.posts += plen
		}
		sz.verts += nverts
	}
	if !ok {
		return sz, fmt.Errorf("hgio: reading edge and index sections: %w", io.ErrUnexpectedEOF)
	}
	return sz, nil
}

// commonSections holds the decoded header, dictionary, labels and edges.
type commonSections struct {
	nv, ne     uint64
	hasEL      bool
	dict       *hypergraph.Dict
	labels     []hypergraph.Label
	edgeLabels []hypergraph.Label // nil when !hasEL
	edgeOff    []uint32           // edge e is edgeVerts[edgeOff[e]:edgeOff[e+1]]
	edgeVerts  []uint32
	sizes      v2Sizes
}

// edge returns the vertex set of edge e.
func (c *commonSections) edge(e uint32) []uint32 {
	return c.edgeVerts[c.edgeOff[e]:c.edgeOff[e+1]]
}

func (r *binReader) readCommon() (*commonSections, error) {
	nv, err := r.count("vertex count")
	if err != nil {
		return nil, err
	}
	ne, err := r.count("edge count")
	if err != nil {
		return nil, err
	}
	nd, err := r.count("dict size")
	if err != nil {
		return nil, err
	}
	flags, err := r.uv("flags")
	if err != nil {
		return nil, err
	}
	if nv > sizeSanity || ne > sizeSanity || nd > sizeSanity {
		return nil, fmt.Errorf("hgio: implausible sizes v=%d e=%d d=%d", nv, ne, nd)
	}
	c := &commonSections{nv: nv, ne: ne, hasEL: flags&flagEdgeLabels != 0}
	if nd > 0 {
		c.dict = hypergraph.NewDict()
		for i := uint64(0); i < nd; i++ {
			l, err := r.uv("dict entry length")
			if err != nil {
				return nil, err
			}
			if l > 1<<20 {
				return nil, fmt.Errorf("hgio: implausible label length %d", l)
			}
			if l > r.left() {
				return nil, fmt.Errorf("hgio: reading dict entry: %w", io.ErrUnexpectedEOF)
			}
			c.dict.Intern(string(r.b[r.off : r.off+int(l)]))
			r.off += int(l)
		}
	}
	if nv > r.left() {
		return nil, fmt.Errorf("hgio: reading vertex labels: %w", io.ErrUnexpectedEOF)
	}
	c.labels = make([]hypergraph.Label, nv)
	for v := range c.labels {
		l, err := r.uv("vertex label")
		if err != nil {
			return nil, err
		}
		c.labels[v] = hypergraph.Label(l)
	}
	if c.sizes, err = r.measure(ne, c.hasEL); err != nil {
		return nil, err
	}
	if c.sizes.cells >= 1<<32 {
		return nil, fmt.Errorf("hgio: total arity exceeds 32-bit offsets")
	}
	if c.hasEL {
		c.edgeLabels = make([]hypergraph.Label, ne)
	}
	c.edgeOff = make([]uint32, ne+1)
	c.edgeVerts = make([]uint32, 0, c.sizes.cells)
	for e := uint64(0); e < ne; e++ {
		if c.hasEL {
			if c.edgeLabels[e], err = r.edgeLabel(); err != nil {
				return nil, err
			}
		}
		arity, err := r.uv("arity")
		if err != nil {
			return nil, err
		}
		if arity > nv {
			return nil, fmt.Errorf("hgio: edge %d arity %d exceeds vertex count", e, arity)
		}
		if c.edgeVerts, err = r.deltaSet(c.edgeVerts, arity, nv, "vertex id"); err != nil {
			return nil, err
		}
		c.edgeOff[e+1] = uint32(len(c.edgeVerts))
	}
	return c, nil
}

// ReadBinary parses any binary format version, dispatching on the magic.
// It reads rd to its end and decodes the image in memory.
func ReadBinary(rd io.Reader) (*hypergraph.Hypergraph, error) {
	data, err := io.ReadAll(rd)
	if err != nil {
		return nil, fmt.Errorf("hgio: reading binary image: %w", err)
	}
	return readBinaryImage(data)
}

// readBinaryImage decodes a complete binary image, magic included.
func readBinaryImage(data []byte) (*hypergraph.Hypergraph, error) {
	if len(data) < len(binaryMagicV2) {
		return nil, fmt.Errorf("hgio: reading magic: %w", io.ErrUnexpectedEOF)
	}
	switch magic := string(data[:len(binaryMagicV2)]); magic {
	case binaryMagicV2:
		return readBinaryV2(&binReader{b: data, off: len(binaryMagicV2)})
	case binaryMagicV3:
		// v3 is a random-access sectioned layout: decode the complete
		// image (heap path, both checksums verified).
		return readBinaryV3(data)
	default:
		return nil, fmt.Errorf("hgio: bad magic %q", magic)
	}
}

// readBinaryV2 decodes the persisted index section and assembles the
// hypergraph directly from the flat arrays — no re-sorting, no dedup
// hashing, no posting-list inversion.
func readBinaryV2(r *binReader) (*hypergraph.Hypergraph, error) {
	c, err := r.readCommon()
	if err != nil {
		return nil, err
	}
	np, err := r.uv("partition count")
	if err != nil {
		return nil, err
	}
	if np > c.ne {
		return nil, fmt.Errorf("hgio: %d partitions for %d edges", np, c.ne)
	}
	// The index decodes straight into the graph's shared table arrays; the
	// directory rows record where each table's windows start. Every array
	// is allocated once at its final size: member lists hold one entry per
	// edge, and measure counted the vertex dictionaries and the postings.
	// A small table's dictionary is empty; a file written before small
	// tables dropped their index still fills it, and Assemble drops it.
	st := hypergraph.Storage{
		Labels: c.labels, EdgeOff: c.edgeOff, EdgeVerts: c.edgeVerts, EdgeLabels: c.edgeLabels,
		Tables:    make([]hypergraph.TableRow, 0, np+1),
		PartEdges: make([]uint32, 0, c.ne),
		PartVerts: make([]uint32, 0, c.sizes.verts),
		PartOffs:  make([]uint32, 0, c.sizes.verts+np),
		PartPosts: make([]uint32, 0, c.sizes.posts),
		Dict:      c.dict,
	}
	// Partitions must claim disjoint edges (re-checked structurally by
	// Assemble); enforcing it while decoding bounds the total posting
	// count decoded across ALL partitions by Σ a(e) of the actually
	// parsed edges — a malicious file cannot multiply one big edge into
	// many partitions' posting lists.
	claimed := make([]bool, c.ne)
	for pi := uint64(0); pi < np; pi++ {
		row := hypergraph.TableRow{
			EdgeLabel: hypergraph.NoEdgeLabel,
			Edges:     uint32(len(st.PartEdges)), Verts: uint32(len(st.PartVerts)), Posts: uint32(len(st.PartPosts)),
		}
		if c.hasEL {
			if row.EdgeLabel, err = r.edgeLabel(); err != nil {
				return nil, err
			}
		}
		st.Tables = append(st.Tables, row)
		npe, err := r.uv("partition edge count")
		if err != nil {
			return nil, err
		}
		if npe == 0 || npe > c.ne {
			return nil, fmt.Errorf("hgio: partition %d has implausible edge count %d", pi, npe)
		}
		if st.PartEdges, err = r.deltaSet(st.PartEdges, npe, c.ne, "partition edge id"); err != nil {
			return nil, err
		}
		occ := uint64(0)
		for _, e := range st.PartEdges[row.Edges:] {
			if claimed[e] {
				return nil, fmt.Errorf("hgio: edge %d claimed by two partitions", e)
			}
			claimed[e] = true
			occ += uint64(len(c.edge(e)))
		}
		nverts, err := r.uv("partition vertex count")
		if err != nil {
			return nil, err
		}
		if nverts > occ || nverts > c.nv {
			return nil, fmt.Errorf("hgio: partition %d has implausible vertex count %d", pi, nverts)
		}
		if st.PartVerts, err = r.deltaSet(st.PartVerts, nverts, c.nv, "CSR vertex"); err != nil {
			return nil, err
		}
		st.PartOffs = append(st.PartOffs, 0)
		for range st.PartVerts[row.Verts:] {
			plen, err := r.uv("posting length")
			if err != nil {
				return nil, err
			}
			if have := uint64(len(st.PartPosts)) - uint64(row.Posts); plen == 0 || have+plen > occ {
				return nil, fmt.Errorf("hgio: partition %d posting lists overflow %d incidences", pi, occ)
			}
			if st.PartPosts, err = r.deltaSet(st.PartPosts, plen, c.ne, "posting edge id"); err != nil {
				return nil, err
			}
			st.PartOffs = append(st.PartOffs, uint32(len(st.PartPosts))-row.Posts)
		}
	}
	st.Tables = append(st.Tables, hypergraph.TableRow{
		Edges: uint32(len(st.PartEdges)), Verts: uint32(len(st.PartVerts)), Posts: uint32(len(st.PartPosts)),
	})
	h, err := hypergraph.Assemble(st)
	if err != nil {
		return nil, fmt.Errorf("hgio: %w", err)
	}
	return h, nil
}

// WriteBinaryFile writes the binary format to a path.
func WriteBinaryFile(path string, h *hypergraph.Hypergraph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteBinary(f, h); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadBinaryFile reads the binary format from a path.
func ReadBinaryFile(path string) (*hypergraph.Hypergraph, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return readBinaryImage(data)
}

// ReadAuto reads either format, sniffing the magic bytes.
func ReadAuto(r io.Reader) (*hypergraph.Hypergraph, error) {
	br := bufio.NewReader(r)
	if head, _ := br.Peek(len(binaryMagicV2)); isBinary(head) {
		return ReadBinary(br)
	}
	return Read(br)
}

// ReadAutoFile reads either format from a path. A binary file is taken
// in one read sized by the file; a text file streams through the parser.
func ReadAutoFile(path string) (*hypergraph.Hypergraph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	if head, _ := br.Peek(len(binaryMagicV2)); !isBinary(head) {
		return Read(br)
	}
	return ReadBinaryFile(path)
}

// isBinary reports whether head starts with a binary format's magic.
func isBinary(head []byte) bool {
	if len(head) < len(binaryMagicV2) {
		return false
	}
	m := string(head[:len(binaryMagicV2)])
	return m == binaryMagicV2 || m == binaryMagicV3
}
