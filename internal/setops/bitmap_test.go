package setops

import (
	"math/rand"
	"testing"
)

func randSet(rng *rand.Rand, n, span int) []uint32 {
	s := make([]uint32, 0, n)
	for i := 0; i < n; i++ {
		s = append(s, uint32(rng.Intn(span)))
	}
	return mkset(s)
}

func TestBitmapRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		span := 1 + rng.Intn(500)
		s := randSet(rng, rng.Intn(80), span)
		b := FromSorted(s, span)
		if b.Count() != len(s) {
			t.Fatalf("Count=%d want %d", b.Count(), len(s))
		}
		got := b.AppendTo(nil)
		if !Equal(got, s) {
			t.Fatalf("round trip %v != %v", got, s)
		}
		for _, x := range s {
			if !b.Contains(x) {
				t.Fatalf("Contains(%d)=false", x)
			}
		}
		miss := 0
		for x := uint32(0); int(x) < span && miss < 20; x++ {
			if !Contains(s, x) {
				miss++
				if b.Contains(x) {
					t.Fatalf("Contains(%d)=true for absent element", x)
				}
			}
		}
	}
}

func TestBitmapWordOps(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		span := 1 + rng.Intn(400)
		a := randSet(rng, rng.Intn(60), span)
		b := randSet(rng, rng.Intn(60), span)
		ba, bb := FromSorted(a, span), FromSorted(b, span)

		or := FromSorted(a, span)
		or.Or(bb)
		if got, want := or.AppendTo(nil), Union(nil, a, b); !Equal(got, want) {
			t.Fatalf("Or: %v want %v", got, want)
		}
		and := FromSorted(a, span)
		and.And(bb)
		if got, want := and.AppendTo(nil), Intersect(nil, a, b); !Equal(got, want) {
			t.Fatalf("And: %v want %v", got, want)
		}
		if ba.Count() != len(a) || bb.Count() != len(b) {
			t.Fatal("operands mutated")
		}
	}
}

// Shorter operands behave as zero-extended: Or keeps the receiver's tail,
// And clears it.
func TestBitmapUnevenSpans(t *testing.T) {
	long := FromSorted([]uint32{1, 70, 130}, 192)
	short := FromSorted([]uint32{1, 2}, 64)
	or := FromSorted(nil, 192)
	or.CopyFrom(long)
	or.Or(short)
	if got := or.AppendTo(nil); !Equal(got, []uint32{1, 2, 70, 130}) {
		t.Fatalf("uneven Or = %v", got)
	}
	and := FromSorted(nil, 192)
	and.CopyFrom(long)
	and.And(short)
	if got := and.AppendTo(nil); !Equal(got, []uint32{1}) {
		t.Fatalf("uneven And = %v", got)
	}
}

func TestBitmapReuseClear(t *testing.T) {
	words := make([]uint64, WordsFor(200))
	for i := range words {
		words[i] = ^uint64(0) // dirty arena window
	}
	var b Bitmap
	b.Reuse(words, 200)
	b.Clear()
	if b.Count() != 0 {
		t.Fatalf("Clear left %d bits", b.Count())
	}
	b.Add(7)
	b.Add(199)
	if got := b.AppendTo(nil); !Equal(got, []uint32{7, 199}) {
		t.Fatalf("after Add: %v", got)
	}
	b.Remove(7)
	b.Remove(8) // absent: no-op
	if got := b.AppendTo(nil); !Equal(got, []uint32{199}) || b.Count() != 1 {
		t.Fatalf("after Remove: %v (count %d)", got, b.Count())
	}
}

func TestRankTable(t *testing.T) {
	members := []uint32{10, 17, 18, 500, 901}
	r := BuildRankTable(members)
	for i, e := range members {
		if int(r.Rank(e)) != i {
			t.Fatalf("Rank(%d)=%d want %d", e, r.Rank(e), i)
		}
	}
	if r.Bytes() != 4*int(901-10+1) {
		t.Fatalf("Bytes=%d", r.Bytes())
	}
	var empty RankTable
	if !empty.IsEmpty() || !BuildRankTable(nil).IsEmpty() {
		t.Fatal("empty table not empty")
	}
}

func TestBitmapRankedScatterDecode(t *testing.T) {
	members := []uint32{4, 9, 33, 70, 71, 300}
	r := BuildRankTable(members)
	b := FromSorted(nil, len(members))
	b.AddRanked([]uint32{9, 70, 300}, r)
	got := b.AppendUnranked(nil, members)
	if !Equal(got, []uint32{9, 70, 300}) {
		t.Fatalf("unranked decode = %v", got)
	}
}

func TestViewLen(t *testing.T) {
	if (View{}).Len() != 0 || !(View{}).IsEmpty() {
		t.Fatal("zero view not empty")
	}
	v := View{Arr: []uint32{1, 2, 3}}
	if v.Len() != 3 || v.IsEmpty() {
		t.Fatal("array view len")
	}
	bv := View{Bits: FromSorted([]uint32{0, 5}, 64)}
	if bv.Len() != 2 || bv.IsEmpty() {
		t.Fatal("bitmap view len")
	}
}

func TestUnionManyAliasPanics(t *testing.T) {
	a := []uint32{5, 9}
	b := []uint32{1, 2, 3}
	defer func() {
		if recover() == nil {
			t.Fatal("unionMany(a[:0], a, b) did not panic")
		}
	}()
	// Regression: before the contract was enforced this silently corrupted
	// a (the union stream writes position 0 before a[0] is read).
	unionMany(a[:0], a, b)
}

func TestUnionManySeparateDstStaysCorrect(t *testing.T) {
	a := []uint32{5, 9}
	b := []uint32{1, 2, 3}
	dst := make([]uint32, 0, 8)
	got := unionMany(dst, a, b)
	if !Equal(got, []uint32{1, 2, 3, 5, 9}) {
		t.Fatalf("unionMany = %v", got)
	}
	if !Equal(a, []uint32{5, 9}) || !Equal(b, []uint32{1, 2, 3}) {
		t.Fatal("inputs mutated")
	}
}
