package setops

import "math/bits"

// This file adds the word-parallel layer of the set-operation kernels: a
// fixed-span bitset processing 64 set elements per machine word. The paper
// notes (§V-B) that candidate generation is pure set algebra and that these
// operations map well onto modern hardware; the bitmap container is how the
// scalar Go kernels get there without SIMD intrinsics — AND/OR/ANDNOT run
// one branchless word op per 64 elements, and Count is a popcount loop.
//
// Bitmaps live in a DENSE LOCAL COORDINATE SPACE, not the global ID space:
// a posting container over a hyperedge table maps each member edge to its
// rank within the table (RankTable), so a table of n edges costs ⌈n/64⌉
// words however sparse its global IDs are. Sorted []uint32 arrays remain
// the representation of choice for sparse sets; View carries either, and
// the k-way kernels in kway.go mix both.

// Bitmap is a fixed-span bitset over a dense coordinate range [0, span).
// The zero value is an empty bitmap of span 0. Bitmaps either own their
// words (FromSorted) or borrow caller storage (Reuse) — the scratch
// discipline of the match hot path hands out per-set word windows from one
// reusable arena, so steady-state expansion allocates nothing.
type Bitmap struct {
	words []uint64
	nbits int
	card  int // cached cardinality; -1 when unknown
}

// WordsFor returns the number of 64-bit words a bitmap of the given span
// needs; callers sizing arenas use it.
func WordsFor(nbits int) int { return (nbits + 63) >> 6 }

// FromSorted builds a bitmap of the given span from a strictly increasing
// slice of in-span values, allocating exactly the words needed. The
// cardinality is cached.
func FromSorted(s []uint32, nbits int) *Bitmap {
	b := &Bitmap{words: make([]uint64, WordsFor(nbits)), nbits: nbits, card: len(s)}
	for _, x := range s {
		b.words[x>>6] |= 1 << (x & 63)
	}
	return b
}

// Reuse re-points the bitmap at caller-provided word storage spanning
// [0, nbits). The words are NOT cleared — call Clear before accumulating
// into a dirty window. len(words) must be at least WordsFor(nbits).
func (b *Bitmap) Reuse(words []uint64, nbits int) {
	b.words = words[:WordsFor(nbits)]
	b.nbits = nbits
	b.card = -1
}

// BorrowBitmap wraps caller-owned word storage as a bitmap of the given
// span with a precomputed cardinality (pass -1 when unknown). The mmap
// attach path uses it to adopt persisted posting containers together with
// their persisted cardinalities, so attaching never popcounts — or even
// faults — the word pages. The words are adopted by reference and must not
// be mutated while the bitmap is in use.
func BorrowBitmap(words []uint64, nbits, card int) Bitmap {
	return Bitmap{words: words[:WordsFor(nbits)], nbits: nbits, card: card}
}

// Words exposes the bitmap's backing words for serialisation. Callers must
// not mutate them.
func (b *Bitmap) Words() []uint64 { return b.words }

// Clear zeroes the bitmap.
func (b *Bitmap) Clear() {
	clear(b.words)
	b.card = 0
}

// Add sets bit x (which must be inside the span).
func (b *Bitmap) Add(x uint32) {
	b.words[x>>6] |= 1 << (x & 63)
	b.card = -1
}

// Remove clears bit x (which must be inside the span).
func (b *Bitmap) Remove(x uint32) {
	b.words[x>>6] &^= 1 << (x & 63)
	b.card = -1
}

// AddRanked sets the bit rank.Rank(x) for every x of a sorted global-ID
// slice: the scatter step of a dense union over array inputs.
func (b *Bitmap) AddRanked(s []uint32, rank RankTable) {
	for _, x := range s {
		r := rank.Rank(x)
		b.words[r>>6] |= 1 << (r & 63)
	}
	if len(s) > 0 {
		b.card = -1
	}
}

// Contains reports whether bit x is set; x must be inside the span.
func (b *Bitmap) Contains(x uint32) bool {
	return b.words[x>>6]&(1<<(x&63)) != 0
}

// Or folds o into b word-parallel. o must not span more bits than b; a
// shorter o leaves b's tail untouched (missing words are zero).
func (b *Bitmap) Or(o *Bitmap) {
	bw, ow := b.words, o.words
	if len(ow) > len(bw) {
		panic("setops: Or operand spans more words than receiver")
	}
	for i, w := range ow {
		bw[i] |= w
	}
	b.card = -1
}

// And intersects b with o word-parallel, zeroing any tail words of b
// beyond o's span.
func (b *Bitmap) And(o *Bitmap) {
	bw, ow := b.words, o.words
	n := len(ow)
	if n > len(bw) {
		n = len(bw)
	}
	for i := 0; i < n; i++ {
		bw[i] &= ow[i]
	}
	clear(bw[n:])
	b.card = -1
}

// CopyFrom makes b an exact copy of o, growing b's own storage as needed
// (so a KScratch accumulator never aliases an input sidecar).
func (b *Bitmap) CopyFrom(o *Bitmap) {
	n := len(o.words)
	if cap(b.words) < n {
		b.words = make([]uint64, n)
	}
	b.words = b.words[:n]
	copy(b.words, o.words)
	b.nbits = o.nbits
	b.card = o.card
}

// Count returns the cardinality via a popcount loop, caching the result
// until the next mutation.
func (b *Bitmap) Count() int {
	if b.card >= 0 {
		return b.card
	}
	n := 0
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	b.card = n
	return n
}

// Len is Count; it exists so Bitmap and []uint32 read uniformly in sizing
// code.
func (b *Bitmap) Len() int { return b.Count() }

// AppendTo decodes the set bits in increasing order, appending to dst.
func (b *Bitmap) AppendTo(dst []uint32) []uint32 {
	for wi, w := range b.words {
		base := uint32(wi) << 6
		for w != 0 {
			dst = append(dst, base+uint32(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return dst
}

// AppendUnranked decodes the set bits in increasing order, mapping each
// rank back to its global ID through unrank (the table's member-edge
// array), appending to dst. Ranks are strictly increasing and unrank is
// sorted, so the output is a valid sorted set.
func (b *Bitmap) AppendUnranked(dst []uint32, unrank []uint32) []uint32 {
	for wi, w := range b.words {
		base := uint32(wi) << 6
		for w != 0 {
			dst = append(dst, unrank[base+uint32(bits.TrailingZeros64(w))])
			w &= w - 1
		}
	}
	return dst
}

// RankTable maps sparse global IDs to dense local coordinates: the rank of
// member x is Tab[x-Base]. Only IDs that are actual members of the table
// the ranks were built over may be ranked — non-member slots hold junk.
// The zero value is an empty table (IsEmpty reports true).
type RankTable struct {
	Base uint32
	Tab  []uint32
}

// BuildRankTable ranks a strictly increasing member array: member[i] ranks
// to i. The table spans [member[0], member[len-1]].
func BuildRankTable(members []uint32) RankTable {
	if len(members) == 0 {
		return RankTable{}
	}
	base := members[0]
	tab := make([]uint32, members[len(members)-1]-base+1)
	for i, e := range members {
		tab[e-base] = uint32(i)
	}
	return RankTable{Base: base, Tab: tab}
}

// Rank returns the dense coordinate of member x.
func (r RankTable) Rank(x uint32) uint32 { return r.Tab[x-r.Base] }

// IsEmpty reports whether the table ranks nothing.
func (r RankTable) IsEmpty() bool { return len(r.Tab) == 0 }

// Bytes returns the table's memory footprint.
func (r RankTable) Bytes() int { return 4 * len(r.Tab) }

// View is a hybrid set view: exactly one representation is active. Arr is
// a sorted global-ID array; Bits is a word-parallel bitset in the local
// rank space of the table both came from. Posting indexes hand these out
// zero-copy (Partition.PostingsView); the k-way kernels consume mixtures.
type View struct {
	Arr  []uint32
	Bits *Bitmap
}

// Len returns the view's cardinality.
func (v View) Len() int {
	if v.Bits != nil {
		return v.Bits.Count()
	}
	return len(v.Arr)
}

// IsEmpty reports whether the view holds no elements.
func (v View) IsEmpty() bool {
	if v.Bits != nil {
		return v.Bits.Count() == 0
	}
	return len(v.Arr) == 0
}
