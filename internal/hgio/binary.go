package hgio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"slices"

	"hgmatch/internal/hypergraph"
	"hgmatch/internal/setops"
)

// Binary formats: compact varint encodings for large hypergraphs where the
// text format's parse cost matters (the paper's AR stand-in is ~4M
// hyperedges at full scale).
//
// Version 1 ("HGB1") stores only the raw graph; loading replays the full
// offline build (sort, dedup, partition, invert). Version 2 ("HGB2")
// additionally persists the built storage layer — the partitioned
// hyperedge tables and their CSR inverted indexes — so loading assembles
// the flat arrays directly (hypergraph.Assemble) instead of re-inverting
// postings. Both versions share the header and edge sections:
//
//	magic "HGB1" / "HGB2"
//	uvarint numVertices, numEdges, numDictEntries, flags
//	dict entries: uvarint len + bytes (vertex label names, index = Label)
//	vertex labels: uvarint per vertex
//	per edge: [uvarint edgeLabel+1 when flagEdgeLabels] uvarint arity,
//	          then delta-encoded sorted vertex IDs (uvarint first,
//	          uvarint gaps-1)
//
// Version 2 appends the index section:
//
//	uvarint numPartitions
//	per partition (canonical order):
//	  [uvarint edgeLabel+1 when flagEdgeLabels]
//	  uvarint numEdges + delta-encoded sorted member edge IDs
//	  uvarint numVerts + delta-encoded sorted CSR vertex dictionary
//	  per vertex: uvarint postingLen + delta-encoded posting edge IDs
//
// Edge labels use +1 so NoEdgeLabel encodes as 0. WriteBinary emits v2;
// v1 files continue to load (via rebuild), and WriteBinaryV1 still writes
// them for compatibility.
//
// Both writers are delta-aware: an online DeltaBuffer snapshot saves
// without compacting first. Append-side partition segments are folded into
// the persisted posting lists on the fly (base and delta blocks are both
// sorted with every delta ID above every base ID, so folding is a linear
// merge that allocates nothing per list), preserving hyperedge IDs
// exactly. Snapshots carrying tombstoned edges cannot keep their ID gaps
// in a dense-ID file format, so they are compacted before writing — the
// file then equals a cold offline build of the live edge set, which is
// also what a reload of the delta snapshot would have produced.
//
// docs/FORMAT.md is the normative byte-level specification of both
// versions.
const (
	binaryMagicV1 = "HGB1"
	binaryMagicV2 = "HGB2"
	binaryMagic   = binaryMagicV1 // historical name; used for sniff length
)

const flagEdgeLabels = 1

const sizeSanity = 1 << 31

// preallocEntries caps how many slice entries any reader preallocates from
// an untrusted header count before payload actually arrives: a corrupt
// count must produce a parse error, never a multi-GiB allocation (which
// the runtime treats as fatal, not recoverable). Beyond the cap, append
// grows slices only as bytes are really decoded.
const preallocEntries = 1 << 16

func preallocCap(n uint64) int {
	if n > preallocEntries {
		return preallocEntries
	}
	return int(n)
}

// binWriter wraps the shared varint plumbing of both format versions.
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

// writeCommon emits the header, dictionary, vertex-label and edge sections
// shared by both versions.
func (w *binWriter) writeCommon(magic string, h *hypergraph.Hypergraph) error {
	if _, err := w.bw.WriteString(magic); err != nil {
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

// WriteBinary serialises h in binary format v2, index included. Online
// snapshots save without a prior Compact: delta segments fold into the
// posting lists as they stream out, and only tombstone-carrying snapshots
// pay a compaction (dense IDs are part of the format).
func WriteBinary(w io.Writer, h *hypergraph.Hypergraph) error {
	if h.NumDeadEdges() > 0 {
		var err error
		if h, err = h.Compacted(); err != nil {
			return err
		}
	}
	bw := &binWriter{bw: bufio.NewWriter(w)}
	if err := bw.writeCommon(binaryMagicV2, h); err != nil {
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

// writePostings emits one partition's CSR section: the merged vertex
// dictionary followed by each vertex's full posting list, folding the
// delta block into the base block as the bytes stream out; base-only
// partitions take the plain fast path.
func (w *binWriter) writePostings(p *hypergraph.Partition) error {
	bverts, dverts := p.PostingVertices(), p.DeltaPostingVertices()
	if len(dverts) == 0 {
		if err := w.uv(uint64(len(bverts))); err != nil {
			return err
		}
		if err := w.deltaSet(bverts); err != nil {
			return err
		}
		for i := range bverts {
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
	// Materialise the merged vertex dictionary (sorted-set union), then
	// stream it and each vertex's full posting list through the one
	// canonical deltaSet encoder. The full posting list of v is
	// base ++ delta: both sorted, every delta ID above every base ID, so
	// concatenation IS the merge. Save-path-only, so the scratch
	// allocations are irrelevant.
	merged := setops.Union(nil, bverts, dverts)
	if err := w.uv(uint64(len(merged))); err != nil {
		return err
	}
	if err := w.deltaSet(merged); err != nil {
		return err
	}
	var list []hypergraph.EdgeID
	for _, v := range merged {
		list = append(append(list[:0], p.Postings(v)...), p.DeltaPostings(v)...)
		if err := w.uv(uint64(len(list))); err != nil {
			return err
		}
		if err := w.deltaSet(list); err != nil {
			return err
		}
	}
	return nil
}

// WriteBinaryV1 serialises h in the legacy v1 format (no index section);
// v1 files rebuild their index on load. Tombstone-carrying online
// snapshots are compacted first, like WriteBinary.
func WriteBinaryV1(w io.Writer, h *hypergraph.Hypergraph) error {
	if h.NumDeadEdges() > 0 {
		var err error
		if h, err = h.Compacted(); err != nil {
			return err
		}
	}
	bw := &binWriter{bw: bufio.NewWriter(w)}
	if err := bw.writeCommon(binaryMagicV1, h); err != nil {
		return err
	}
	return bw.bw.Flush()
}

// binReader wraps the shared decoding plumbing.
type binReader struct {
	br *bufio.Reader
}

func (r *binReader) uv(what string) (uint64, error) {
	x, err := binary.ReadUvarint(r.br)
	if err != nil {
		return 0, fmt.Errorf("hgio: reading %s: %w", what, err)
	}
	return x, nil
}

// deltaSet reads n strictly increasing uint32s below limit.
func (r *binReader) deltaSet(n uint64, limit uint64, what string) ([]uint32, error) {
	return r.deltaSetInto(make([]uint32, 0, preallocCap(n)), n, limit, what)
}

// deltaSetInto appends n strictly increasing uint32s below limit to dst,
// so batched decodes (CSR posting lists) reuse one backing array.
func (r *binReader) deltaSetInto(dst []uint32, n uint64, limit uint64, what string) ([]uint32, error) {
	prev := uint64(0)
	for i := uint64(0); i < n; i++ {
		x, err := r.uv(what)
		if err != nil {
			return nil, err
		}
		if i > 0 {
			x += prev + 1
		}
		if x >= limit {
			return nil, fmt.Errorf("hgio: %s %d out of range %d", what, x, limit)
		}
		dst = append(dst, uint32(x))
		prev = x
	}
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

// commonSections holds the decoded header, dictionary, labels and edges
// shared by both versions.
type commonSections struct {
	nv, ne     uint64
	hasEL      bool
	dict       *hypergraph.Dict
	labels     []hypergraph.Label
	edgeLabels []hypergraph.Label // nil when !hasEL
	edgeOff    []uint32           // edge e is edgeVerts[edgeOff[e]:edgeOff[e+1]]
	edgeVerts  []uint32
}

// edge returns the vertex set of edge e.
func (c *commonSections) edge(e uint32) []uint32 {
	return c.edgeVerts[c.edgeOff[e]:c.edgeOff[e+1]]
}

// fit returns s without the spare capacity append-growth left behind when
// that is more than a sixteenth of it: the arrays decoded here are the
// graph's storage for as long as it is loaded.
func fit(s []uint32) []uint32 {
	if cap(s)-len(s) > len(s)/16 {
		return slices.Clone(s)
	}
	return s
}

func (r *binReader) readCommon() (*commonSections, error) {
	nv, err := r.uv("vertex count")
	if err != nil {
		return nil, err
	}
	ne, err := r.uv("edge count")
	if err != nil {
		return nil, err
	}
	nd, err := r.uv("dict size")
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
			name := make([]byte, l)
			if _, err := io.ReadFull(r.br, name); err != nil {
				return nil, fmt.Errorf("hgio: reading dict entry: %w", err)
			}
			c.dict.Intern(string(name))
		}
	}
	c.labels = make([]hypergraph.Label, 0, preallocCap(nv))
	for v := uint64(0); v < nv; v++ {
		l, err := r.uv("vertex label")
		if err != nil {
			return nil, err
		}
		c.labels = append(c.labels, hypergraph.Label(l))
	}
	if c.hasEL {
		c.edgeLabels = make([]hypergraph.Label, 0, preallocCap(ne))
	}
	c.edgeOff = append(make([]uint32, 0, preallocCap(ne+1)), 0)
	for e := uint64(0); e < ne; e++ {
		if c.hasEL {
			el, err := r.edgeLabel()
			if err != nil {
				return nil, err
			}
			c.edgeLabels = append(c.edgeLabels, el)
		}
		arity, err := r.uv("arity")
		if err != nil {
			return nil, err
		}
		if arity > nv {
			return nil, fmt.Errorf("hgio: edge %d arity %d exceeds vertex count", e, arity)
		}
		if c.edgeVerts, err = r.deltaSetInto(c.edgeVerts, arity, nv, "vertex id"); err != nil {
			return nil, err
		}
		if uint64(len(c.edgeVerts)) >= 1<<32 {
			return nil, fmt.Errorf("hgio: total arity exceeds 32-bit offsets")
		}
		c.edgeOff = append(c.edgeOff, uint32(len(c.edgeVerts)))
	}
	c.edgeOff, c.edgeVerts = fit(c.edgeOff), fit(c.edgeVerts)
	return c, nil
}

// ReadBinary parses any binary format version, dispatching on the magic.
func ReadBinary(rd io.Reader) (*hypergraph.Hypergraph, error) {
	br := bufio.NewReader(rd)
	magic := make([]byte, len(binaryMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("hgio: reading magic: %w", err)
	}
	r := &binReader{br: br}
	switch string(magic) {
	case binaryMagicV1:
		return readBinaryV1(r)
	case binaryMagicV2:
		return readBinaryV2(r)
	case binaryMagicV3:
		// v3 is a random-access sectioned layout, not a stream: slurp the
		// remainder and decode the complete image (heap path, both
		// checksums verified).
		rest, err := io.ReadAll(br)
		if err != nil {
			return nil, fmt.Errorf("hgio: reading v3 image: %w", err)
		}
		data := make([]byte, 0, len(binaryMagicV3)+len(rest))
		data = append(data, binaryMagicV3...)
		data = append(data, rest...)
		return readBinaryV3(data)
	}
	return nil, fmt.Errorf("hgio: bad magic %q", magic)
}

// readBinaryV1 rebuilds the index from the raw graph via the Builder — the
// full offline preprocessing replays on every load.
func readBinaryV1(r *binReader) (*hypergraph.Hypergraph, error) {
	c, err := r.readCommon()
	if err != nil {
		return nil, err
	}
	b := hypergraph.NewBuilder().WithDicts(c.dict, nil)
	for _, l := range c.labels {
		b.AddVertex(l)
	}
	for e := uint32(0); uint64(e) < c.ne; e++ {
		if c.hasEL && c.edgeLabels[e] != hypergraph.NoEdgeLabel {
			b.AddLabelledEdge(c.edgeLabels[e], c.edge(e)...)
		} else {
			b.AddEdge(c.edge(e)...)
		}
	}
	return b.Build()
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
	// directory rows record where each table's windows start. Posting
	// arrays of a valid index hold exactly one entry per (vertex, member
	// edge) incidence, and member lists one entry per edge, so both are
	// sized by what the edge section actually contained.
	st := hypergraph.Storage{
		Labels: c.labels, EdgeOff: c.edgeOff, EdgeVerts: c.edgeVerts, EdgeLabels: c.edgeLabels,
		Tables:    make([]hypergraph.TableRow, 0, np+1),
		PartEdges: make([]uint32, 0, c.ne),
		PartPosts: make([]uint32, 0, len(c.edgeVerts)),
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
		if st.PartEdges, err = r.deltaSetInto(st.PartEdges, npe, c.ne, "partition edge id"); err != nil {
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
		if nverts == 0 || nverts > occ || nverts > c.nv {
			return nil, fmt.Errorf("hgio: partition %d has implausible vertex count %d", pi, nverts)
		}
		if st.PartVerts, err = r.deltaSetInto(st.PartVerts, nverts, c.nv, "CSR vertex"); err != nil {
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
			if st.PartPosts, err = r.deltaSetInto(st.PartPosts, plen, c.ne, "posting edge id"); err != nil {
				return nil, err
			}
			st.PartOffs = append(st.PartOffs, uint32(len(st.PartPosts))-row.Posts)
		}
	}
	st.Tables = append(st.Tables, hypergraph.TableRow{
		Edges: uint32(len(st.PartEdges)), Verts: uint32(len(st.PartVerts)), Posts: uint32(len(st.PartPosts)),
	})
	st.PartVerts, st.PartOffs = fit(st.PartVerts), fit(st.PartOffs)
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
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadBinary(f)
}

// ReadAuto reads either format, sniffing the magic bytes.
func ReadAuto(r io.Reader) (*hypergraph.Hypergraph, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(len(binaryMagic))
	if err == nil {
		switch string(head) {
		case binaryMagicV1, binaryMagicV2, binaryMagicV3:
			return ReadBinary(br)
		}
	}
	return Read(br)
}

// ReadAutoFile reads either format from a path.
func ReadAutoFile(path string) (*hypergraph.Hypergraph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadAuto(f)
}
