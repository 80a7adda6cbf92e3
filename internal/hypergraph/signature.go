package hypergraph

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// Signature is a hyperedge signature S(e): the multiset of vertex labels
// contained in a hyperedge (paper Definition IV.1), canonically represented
// as a non-decreasing slice of labels. Two hyperedges can match only if
// their signatures are equal (Observation V.1), so data hyperedges are
// partitioned into tables keyed by signature.
//
// When the hypergraph is edge-labelled (footnote-2 extension) the edge label
// is folded into the partition key so that tables also separate by edge
// label; see keyWithEdgeLabel.
type Signature []Label

// SignatureOf computes S(e) for a vertex set under the given vertex->label
// table.
func SignatureOf(vertices []uint32, labels []Label) Signature {
	return AppendSignature(make(Signature, 0, len(vertices)), vertices, labels)
}

// AppendSignature appends S(e) for a vertex set to dst and returns the
// extended slice; with a reused dst the computation allocates nothing.
// Hyperedge arities are small, so the canonical non-decreasing order comes
// from an insertion sort rather than sort.Slice and its closure.
func AppendSignature(dst Signature, vertices []uint32, labels []Label) Signature {
	base := len(dst)
	for _, v := range vertices {
		dst = append(dst, labels[v])
	}
	s := dst[base:]
	for i := 1; i < len(s); i++ {
		x := s[i]
		j := i - 1
		for j >= 0 && s[j] > x {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = x
	}
	return dst
}

// Arity returns the arity of any hyperedge carrying this signature.
func (s Signature) Arity() int { return len(s) }

// Equal reports whether two signatures are the same multiset.
func (s Signature) Equal(t Signature) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// Key returns a canonical byte encoding usable as a map key. Labels are
// encoded big-endian so byte order equals numeric order.
func (s Signature) Key() []byte {
	b := make([]byte, 4*len(s))
	for i, l := range s {
		binary.BigEndian.PutUint32(b[4*i:], l)
	}
	return b
}

// keyWithEdgeLabel prefixes the signature key with an edge label, so that
// edge-labelled hypergraphs partition by (edge label, vertex-label multiset).
func keyWithEdgeLabel(el Label, s Signature) string {
	b := make([]byte, 4+4*len(s))
	binary.BigEndian.PutUint32(b, el)
	for i, l := range s {
		binary.BigEndian.PutUint32(b[4+4*i:], l)
	}
	return string(b)
}

// String formats the signature with the dictionary if provided, else
// numerically: {A, A, C}.
func (s Signature) String() string {
	return s.Format(nil)
}

// Format renders the signature, resolving labels through dict when non-nil.
func (s Signature) Format(dict *Dict) string {
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range s {
		if i > 0 {
			b.WriteString(", ")
		}
		if dict != nil {
			b.WriteString(dict.Name(l))
		} else {
			fmt.Fprintf(&b, "%d", l)
		}
	}
	b.WriteByte('}')
	return b.String()
}

// Dict interns label names. The zero value is not usable; call NewDict.
type Dict struct {
	byName map[string]Label
	names  []string
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{byName: make(map[string]Label)}
}

// Intern returns the Label for name, assigning the next dense ID on first
// sight.
func (d *Dict) Intern(name string) Label {
	if l, ok := d.byName[name]; ok {
		return l
	}
	l := Label(len(d.names))
	d.byName[name] = l
	d.names = append(d.names, name)
	return l
}

// Lookup returns the Label for name without interning.
func (d *Dict) Lookup(name string) (Label, bool) {
	l, ok := d.byName[name]
	return l, ok
}

// Name returns the name of label l, or a numeric fallback for unknown IDs.
func (d *Dict) Name(l Label) string {
	if d == nil || int(l) >= len(d.names) {
		return fmt.Sprintf("#%d", l)
	}
	return d.names[l]
}

// Len returns the number of interned labels.
func (d *Dict) Len() int { return len(d.names) }
