package hypergraph

import "encoding/binary"

// CanonicalKey returns a deterministic byte-string encoding of h, usable as
// a map key: two hypergraphs built from the same vertex sequence and the
// same hyperedge sequence produce the same key.
//
// The encoding is form-canonical, not isomorphism-canonical: vertices and
// hyperedges are identified by their declaration order, so queries that
// are isomorphic but declared differently get different keys. That is the
// right trade-off for plan caching — a plan's matching order and the rows
// it produces are numbered in the query's own edge IDs, so only a query
// declared exactly alike may reuse it — and the key costs O(Σ a(e)) while
// still collapsing every textually identical query (the overwhelmingly
// common repeat case) onto one cache entry.
//
// Labels are compared numerically; callers caching plans against a fixed
// data hypergraph should align the query's label IDs to the data's
// dictionary first (hgio.AlignLabels), exactly as the matcher itself
// requires.
func CanonicalKey(h *Hypergraph) string {
	n := 8 + 4*h.NumVertices()
	for e := 0; e < h.NumEdges(); e++ {
		n += 8 + 4*h.Arity(EdgeID(e))
	}
	out := make([]byte, 0, n)
	out = binary.BigEndian.AppendUint32(out, uint32(h.NumVertices()))
	for v := 0; v < h.NumVertices(); v++ {
		out = binary.BigEndian.AppendUint32(out, h.Label(VertexID(v)))
	}
	out = binary.BigEndian.AppendUint32(out, uint32(h.NumEdges()))
	for e := 0; e < h.NumEdges(); e++ {
		id := EdgeID(e)
		vs := h.Edge(id)
		// The arity prefix keeps edge boundaries unambiguous.
		out = binary.BigEndian.AppendUint32(out, uint32(len(vs)))
		out = binary.BigEndian.AppendUint32(out, h.EdgeLabel(id))
		for _, v := range vs {
			out = binary.BigEndian.AppendUint32(out, v)
		}
	}
	return string(out)
}
