package setops

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// mkset converts an arbitrary slice into a valid strictly increasing set.
func mkset(xs []uint32) []uint32 {
	s := append([]uint32(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return Dedup(s)
}

// naive reference implementations over maps.
func naiveIntersect(a, b []uint32) []uint32 {
	in := make(map[uint32]bool, len(b))
	for _, x := range b {
		in[x] = true
	}
	var out []uint32
	for _, x := range a {
		if in[x] {
			out = append(out, x)
		}
	}
	return out
}

func naiveUnion(a, b []uint32) []uint32 {
	in := make(map[uint32]bool, len(a)+len(b))
	for _, x := range a {
		in[x] = true
	}
	for _, x := range b {
		in[x] = true
	}
	out := make([]uint32, 0, len(in))
	for x := range in {
		out = append(out, x)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func naiveDifference(a, b []uint32) []uint32 {
	in := make(map[uint32]bool, len(b))
	for _, x := range b {
		in[x] = true
	}
	out := []uint32{}
	for _, x := range a {
		if !in[x] {
			out = append(out, x)
		}
	}
	return out
}

func TestIntersectBasic(t *testing.T) {
	cases := []struct{ a, b, want []uint32 }{
		{nil, nil, nil},
		{[]uint32{1, 2, 3}, nil, nil},
		{nil, []uint32{1, 2, 3}, nil},
		{[]uint32{1, 2, 3}, []uint32{2, 3, 4}, []uint32{2, 3}},
		{[]uint32{1, 5, 9}, []uint32{2, 6, 10}, nil},
		{[]uint32{1, 2, 3}, []uint32{1, 2, 3}, []uint32{1, 2, 3}},
		{[]uint32{7}, []uint32{1, 2, 3, 4, 5, 6, 7, 8}, []uint32{7}},
	}
	for _, c := range cases {
		got := Intersect(nil, c.a, c.b)
		if !Equal(got, c.want) && !(len(got) == 0 && len(c.want) == 0) {
			t.Errorf("Intersect(%v,%v)=%v want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestIntersectMatchesNaive(t *testing.T) {
	f := func(xs, ys []uint32) bool {
		a, b := mkset(xs), mkset(ys)
		got := Intersect(nil, a, b)
		want := naiveIntersect(a, b)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return IntersectCount(a, b) == len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestIntersectGallopPath(t *testing.T) {
	// Force the galloping path: small a, large b.
	rng := rand.New(rand.NewSource(1))
	big := make([]uint32, 0, 10000)
	for i := 0; i < 10000; i++ {
		big = append(big, uint32(i*3))
	}
	for trial := 0; trial < 50; trial++ {
		small := make([]uint32, 0, 8)
		for i := 0; i < 8; i++ {
			small = append(small, uint32(rng.Intn(31000)))
		}
		small = mkset(small)
		got := Intersect(nil, small, big)
		want := naiveIntersect(small, big)
		if len(got) != len(want) {
			t.Fatalf("gallop intersect mismatch: got %v want %v", got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("gallop intersect mismatch at %d", i)
			}
		}
	}
}

func TestUnionMatchesNaive(t *testing.T) {
	f := func(xs, ys []uint32) bool {
		a, b := mkset(xs), mkset(ys)
		got := Union(nil, a, b)
		want := naiveUnion(a, b)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestUnionMany(t *testing.T) {
	f := func(xs, ys, zs, ws []uint32) bool {
		a, b, c, d := mkset(xs), mkset(ys), mkset(zs), mkset(ws)
		got := unionMany(nil, a, b, c, d)
		want := naiveUnion(naiveUnion(a, b), naiveUnion(c, d))
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	if got := unionMany(nil); len(got) != 0 {
		t.Errorf("unionMany() = %v, want empty", got)
	}
	if got := unionMany(nil, []uint32{1, 2}); !Equal(got, []uint32{1, 2}) {
		t.Errorf("unionMany(one) = %v", got)
	}
}

func TestDifferenceMatchesNaive(t *testing.T) {
	f := func(xs, ys []uint32) bool {
		a, b := mkset(xs), mkset(ys)
		got := Difference(nil, a, b)
		want := naiveDifference(a, b)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Algebraic identities, checked property-style.
func TestSetAlgebra(t *testing.T) {
	f := func(xs, ys []uint32) bool {
		a, b := mkset(xs), mkset(ys)
		inter := Intersect(nil, a, b)
		uni := Union(nil, a, b)
		diffAB := Difference(nil, a, b)
		diffBA := Difference(nil, b, a)
		// |A∪B| = |A|+|B|-|A∩B|
		if len(uni) != len(a)+len(b)-len(inter) {
			return false
		}
		// A = (A\B) ∪ (A∩B)
		recon := Union(nil, diffAB, inter)
		if !Equal(recon, a) {
			return false
		}
		// (A\B) ∩ B = ∅
		if len(Intersect(nil, diffAB, b)) != 0 {
			return false
		}
		// A∪B = (A\B) ∪ (B\A) ∪ (A∩B)
		recon2 := unionMany(nil, diffAB, diffBA, inter)
		return Equal(recon2, uni)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestContains(t *testing.T) {
	s := []uint32{2, 4, 6, 8, 100}
	for _, x := range s {
		if !Contains(s, x) {
			t.Errorf("Contains(%v,%d)=false", s, x)
		}
	}
	for _, x := range []uint32{0, 1, 3, 5, 7, 9, 99, 101} {
		if Contains(s, x) {
			t.Errorf("Contains(%v,%d)=true", s, x)
		}
	}
	if Contains(nil, 1) {
		t.Error("Contains(nil,1)=true")
	}
}

func TestContainsAny(t *testing.T) {
	f := func(xs, ys []uint32) bool {
		a, b := mkset(xs), mkset(ys)
		want := len(naiveIntersect(a, b)) > 0
		return ContainsAny(a, b) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	// Gallop path.
	big := make([]uint32, 1000)
	for i := range big {
		big[i] = uint32(i * 2)
	}
	if !ContainsAny([]uint32{999, 1000}, big) {
		t.Error("ContainsAny gallop missed a hit")
	}
	if ContainsAny([]uint32{999, 1001}, big) {
		t.Error("ContainsAny gallop false hit")
	}
}

func TestIsSortedAndDedup(t *testing.T) {
	if !IsSorted(nil) || !IsSorted([]uint32{5}) || !IsSorted([]uint32{1, 2, 9}) {
		t.Error("IsSorted false negative")
	}
	if IsSorted([]uint32{1, 1}) || IsSorted([]uint32{2, 1}) {
		t.Error("IsSorted false positive")
	}
	got := Dedup([]uint32{1, 1, 2, 2, 2, 3})
	if !Equal(got, []uint32{1, 2, 3}) {
		t.Errorf("Dedup = %v", got)
	}
	if got := Dedup(nil); len(got) != 0 {
		t.Errorf("Dedup(nil) = %v", got)
	}
}

func TestGallopEdges(t *testing.T) {
	s := []uint32{10, 20, 30}
	cases := []struct {
		lo   int
		x    uint32
		want int
	}{
		{0, 5, 0}, {0, 10, 0}, {0, 15, 1}, {0, 30, 2}, {0, 31, 3},
		{1, 10, 1}, {2, 25, 2}, {3, 1, 3},
	}
	for _, c := range cases {
		if got := gallop(s, c.lo, c.x); got != c.want {
			t.Errorf("gallop(%v,%d,%d)=%d want %d", s, c.lo, c.x, got, c.want)
		}
	}
}

func TestIntersectAppendsToDst(t *testing.T) {
	dst := []uint32{42}
	got := Intersect(dst, []uint32{1, 2}, []uint32{2, 3})
	if !Equal(got, []uint32{42, 2}) {
		t.Errorf("Intersect append = %v", got)
	}
}

func BenchmarkIntersectMerge(b *testing.B) {
	a := make([]uint32, 1000)
	c := make([]uint32, 1000)
	for i := range a {
		a[i] = uint32(i * 2)
		c[i] = uint32(i * 3)
	}
	var dst []uint32
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dst = Intersect(dst[:0], a, c)
	}
}

func BenchmarkIntersectGallop(b *testing.B) {
	a := make([]uint32, 16)
	c := make([]uint32, 100000)
	for i := range a {
		a[i] = uint32(i * 5000)
	}
	for i := range c {
		c[i] = uint32(i)
	}
	var dst []uint32
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dst = Intersect(dst[:0], a, c)
	}
}
