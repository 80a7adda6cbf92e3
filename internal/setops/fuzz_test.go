package setops

import (
	"testing"
)

// FuzzSetopsEquivalence cross-checks every array kernel against the
// word-parallel bitmap kernel and a naive map-based oracle on the same
// randomized sorted sets, including dst-aliasing-adjacent reuse patterns
// (dirty dst buffers), empty sets, and duplicate runs at set boundaries
// (exercising Dedup). The raw fuzz bytes decode into two multisets plus a
// span, so the corpus explores length/density/overlap space freely.
func FuzzSetopsEquivalence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 1, 1, 2, 250})
	f.Add([]byte{7, 7, 7, 9, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{255, 254, 253, 0, 0, 0, 1, 128, 64, 32, 16, 8, 4, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		// Decode: span byte, split byte, then raw elements (mod span) for
		// set a and set b — duplicates survive decoding so Dedup and the
		// strictly-increasing boundary cases get exercised.
		span := 1
		split := 0
		if len(data) > 0 {
			span = 1 + int(data[0])
		}
		if len(data) > 1 {
			split = int(data[1]) % (len(data) + 1)
		}
		rest := data
		if len(data) > 2 {
			rest = data[2:]
		}
		if split > len(rest) {
			split = len(rest)
		}
		rawA := make([]uint32, 0, split)
		for _, x := range rest[:split] {
			rawA = append(rawA, uint32(int(x)%span))
		}
		rawB := make([]uint32, 0, len(rest)-split)
		for _, x := range rest[split:] {
			rawB = append(rawB, uint32(int(x)%span))
		}
		a, b := mkset(rawA), mkset(rawB)

		// Dedup on a sorted-with-duplicates copy must agree with mkset.
		sortedDup := append([]uint32(nil), a...)
		for _, x := range a {
			sortedDup = append(sortedDup, x) // duplicate every element
		}
		if got := Dedup(mkset(sortedDup)); !Equal(got, a) {
			t.Fatalf("Dedup: %v want %v", got, a)
		}

		// Dirty reusable dst buffers: correctness must not depend on dst's
		// previous contents past its length.
		dirty := make([]uint32, 0, len(a)+len(b)+4)
		dirty = append(dirty, 0xdead, 0xbeef)[:0]

		wantI := naiveIntersect(a, b)
		wantU := naiveUnion(a, b)
		wantD := naiveDifference(a, b)
		gotI := Intersect(dirty, a, b)
		if !Equal(gotI, wantI) {
			t.Fatalf("Intersect=%v want %v", gotI, wantI)
		}
		if got := Union(nil, a, b); !Equal(got, wantU) {
			t.Fatalf("Union=%v want %v", got, wantU)
		}
		if got := Difference(nil, a, b); !Equal(got, wantD) {
			t.Fatalf("Difference=%v want %v", got, wantD)
		}
		if got := IntersectCount(a, b); got != len(wantI) {
			t.Fatalf("IntersectCount=%d want %d", got, len(wantI))
		}
		if got := ContainsAny(a, b); got != (len(wantI) > 0) {
			t.Fatalf("ContainsAny=%v want %v", got, len(wantI) > 0)
		}

		// Bitmap kernels over the same sets must agree element-for-element
		// with the array kernels.
		ba, bb := FromSorted(a, span), FromSorted(b, span)
		or := FromSorted(nil, span)
		or.CopyFrom(ba)
		or.Or(bb)
		if got := or.AppendTo(nil); !Equal(got, wantU) {
			t.Fatalf("bitmap Or=%v want %v", got, wantU)
		}
		and := FromSorted(nil, span)
		and.CopyFrom(ba)
		and.And(bb)
		if got := and.AppendTo(nil); !Equal(got, wantI) {
			t.Fatalf("bitmap And=%v want %v", got, wantI)
		}
		if and.Count() != len(wantI) {
			t.Fatalf("bitmap Count=%d want %d", and.Count(), len(wantI))
		}
		for _, x := range a {
			if !ba.Contains(x) {
				t.Fatalf("bitmap Contains(%d)=false", x)
			}
		}

		// K-way kernels: {a, b, a∩b, a\b} in every array/bitmap mixture
		// must match the oracle fold.
		sets := [][]uint32{a, b, wantI, wantD}
		wantUK := naiveUnionAll(sets)
		wantIK := naiveIntersectAll(sets)
		var ks KScratch
		for mask := uint(0); mask < 1<<len(sets); mask++ {
			views, rank, unrank := buildViews(sets, mask)
			var bm Bitmap
			bm.Reuse(make([]uint64, WordsFor(len(unrank))), len(unrank))
			u := UnionK(nil, &bm, len(unrank), rank, views, &ks)
			var dec []uint32
			if u.Bits != nil {
				dec = u.Bits.AppendUnranked(nil, unrank)
			} else {
				dec = u.Arr
			}
			if !Equal(dec, wantUK) {
				t.Fatalf("UnionK mask=%b: %v want %v", mask, dec, wantUK)
			}
			got := IntersectK(dirty[:0], views, rank, unrank, &ks)
			if !Equal(got, wantIK) && len(got)+len(wantIK) > 0 {
				t.Fatalf("IntersectK mask=%b: %v want %v", mask, got, wantIK)
			}
		}

		// The split shape of a delta-carrying table: cut every set at a
		// pivot into a base half below it, in rank space in every
		// array/bitmap mixture, and an array tail from it up. Each half
		// intersects and unions on its own, the tail result appended,
		// with one KScratch and separate output buffers.
		pivot := uint32(span / 2)
		if len(data) > 2 {
			pivot = uint32(int(data[2]) % (span + 1))
		}
		bases, tails := make([][]uint32, len(sets)), make([]View, len(sets))
		for i, s := range sets {
			cut := 0
			for cut < len(s) && s[cut] < pivot {
				cut++
			}
			bases[i], tails[i] = s[:cut], View{Arr: s[cut:]}
		}
		for mask := uint(0); mask < 1<<len(sets); mask++ {
			views, rank, unrank := buildViews(bases, mask)
			var bm Bitmap
			bm.Reuse(make([]uint64, WordsFor(len(unrank))), len(unrank))
			u := UnionK(nil, &bm, len(unrank), rank, views, &ks)
			var dec []uint32
			if u.Bits != nil {
				dec = u.Bits.AppendUnranked(nil, unrank)
			} else {
				dec = append(dec, u.Arr...)
			}
			dec = append(dec, UnionK(nil, nil, 0, RankTable{}, tails, &ks).Arr...)
			if !Equal(dec, wantUK) && len(dec)+len(wantUK) > 0 {
				t.Fatalf("split UnionK pivot=%d mask=%b: %v want %v", pivot, mask, dec, wantUK)
			}
			got := IntersectK(dirty[:0], views, rank, unrank, &ks)
			got = append(got, IntersectK(nil, tails, RankTable{}, nil, &ks)...)
			if !Equal(got, wantIK) && len(got)+len(wantIK) > 0 {
				t.Fatalf("split IntersectK pivot=%d mask=%b: %v want %v", pivot, mask, got, wantIK)
			}
		}

		// The enforced unionMany contract: aliasing dst panics, separate
		// dst agrees with the oracle.
		if len(a) > 0 {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatal("unionMany alias did not panic")
					}
				}()
				unionMany(a[:0], a, b)
			}()
		}
		if got := unionMany(nil, a, b, wantI); !Equal(got, wantU) {
			t.Fatalf("unionMany=%v want %v", got, wantU)
		}
	})
}
