// Package setops provides set operations over sorted []uint32 slices.
//
// HGMatch generates candidate hyperedges purely with set difference, union
// and intersection over sorted posting lists (paper §V-B). The paper notes
// these operations "can be implemented very efficiently on modern hardware"
// via SIMD; Go's standard library exposes no SIMD, so this package provides
// carefully written scalar kernels: linear merges for similarly sized inputs
// and galloping (exponential search) kernels for skewed inputs, with a
// size-ratio heuristic choosing between them.
//
// All inputs must be strictly increasing (duplicate-free sorted sets). All
// outputs are strictly increasing. Functions never mutate their inputs.
package setops

// galloping search pays off when one list is much longer than the other.
// The crossover constant follows the classic merge-vs-binary-search analysis
// (n log m < n + m when m/n is large); 32 is a conservative choice measured
// by BenchmarkAblationIntersect in the repository root.
const gallopRatio = 32

// Intersect returns the intersection of two sorted sets, appending to dst
// (which may be nil). It selects a merge or galloping kernel based on the
// size ratio of the inputs.
func Intersect(dst, a, b []uint32) []uint32 {
	if len(a) == 0 || len(b) == 0 {
		return dst
	}
	// Keep a as the smaller list.
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(b) >= gallopRatio*len(a) {
		return intersectGallop(dst, a, b)
	}
	return intersectMerge(dst, a, b)
}

// intersectMerge is the textbook two-pointer merge intersection, O(n+m).
func intersectMerge(dst, a, b []uint32) []uint32 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		switch {
		case x < y:
			i++
		case x > y:
			j++
		default:
			dst = append(dst, x)
			i++
			j++
		}
	}
	return dst
}

// intersectGallop walks the smaller list a and gallops through b,
// O(n log(m/n)).
func intersectGallop(dst, a, b []uint32) []uint32 {
	lo := 0
	for _, x := range a {
		lo = gallop(b, lo, x)
		if lo == len(b) {
			break
		}
		if b[lo] == x {
			dst = append(dst, x)
			lo++
		}
	}
	return dst
}

// gallop returns the smallest index i in [lo, len(s)) with s[i] >= x, using
// exponential probing followed by binary search within the located window.
func gallop(s []uint32, lo int, x uint32) int {
	if lo >= len(s) || s[lo] >= x {
		return lo
	}
	step := 1
	hi := lo + step
	for hi < len(s) && s[hi] < x {
		lo = hi
		step <<= 1
		hi = lo + step
	}
	if hi > len(s) {
		hi = len(s)
	}
	// Binary search in (lo, hi].
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < x {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// IntersectCount returns |a ∩ b| without materialising the result.
func IntersectCount(a, b []uint32) int {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return 0
	}
	n := 0
	if len(b) >= gallopRatio*len(a) {
		lo := 0
		for _, x := range a {
			lo = gallop(b, lo, x)
			if lo == len(b) {
				break
			}
			if b[lo] == x {
				n++
				lo++
			}
		}
		return n
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// Union returns the sorted union of two sorted sets, appending to dst.
func Union(dst, a, b []uint32) []uint32 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		switch {
		case x < y:
			dst = append(dst, x)
			i++
		case x > y:
			dst = append(dst, y)
			j++
		default:
			dst = append(dst, x)
			i++
			j++
		}
	}
	dst = append(dst, a[i:]...)
	dst = append(dst, b[j:]...)
	return dst
}

// unionMany returns the sorted union of several sorted sets, appending to
// dst.
//
// dst must not alias any of the input lists: union output can run ahead of
// an input's read cursor (the merged stream grows faster than either
// input), so writing through an aliased dst silently corrupts the inputs
// mid-merge — e.g. unionMany(lists[0][:0], lists...) overwrites lists[0]
// while it is still being read. The common misuse (dst sharing a backing
// array with an input) is detected and panics; pass a separate scratch
// buffer instead.
func unionMany(dst []uint32, lists ...[]uint32) []uint32 {
	for _, l := range lists {
		if sameBacking(dst, l) {
			panic("setops: unionMany dst aliases an input list")
		}
	}
	switch len(lists) {
	case 0:
		return dst
	case 1:
		return append(dst, lists[0]...)
	case 2:
		return Union(dst, lists[0], lists[1])
	}
	// Simple repeated pairwise union into scratch buffers. The number of
	// lists per candidate-generation call is the number of incident vertices
	// of one query hyperedge — small — so O(k) passes are fine.
	acc := append([]uint32(nil), lists[0]...)
	var scratch []uint32
	for _, l := range lists[1:] {
		scratch = Union(scratch[:0], acc, l)
		acc, scratch = scratch, acc
	}
	return append(dst, acc...)
}

// sameBacking reports whether two slices share a backing array, detected
// by comparing the address one past each backing's full capacity. Slices
// carved from the same array with different capacity ends evade it; the
// cases this guards (dst := list[:0] style reuse) always share the end.
func sameBacking(a, b []uint32) bool {
	if cap(a) == 0 || cap(b) == 0 {
		return false
	}
	return &a[:cap(a)][cap(a)-1] == &b[:cap(b)][cap(b)-1]
}

// Difference returns a \ b (elements of a not in b), appending to dst.
func Difference(dst, a, b []uint32) []uint32 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		switch {
		case x < y:
			dst = append(dst, x)
			i++
		case x > y:
			j++
		default:
			i++
			j++
		}
	}
	return append(dst, a[i:]...)
}

// Contains reports whether sorted set s contains x, via binary search.
func Contains(s []uint32, x uint32) bool {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(s) && s[lo] == x
}

// ContainsAny reports whether sorted sets a and b share at least one element.
func ContainsAny(a, b []uint32) bool {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return false
	}
	if len(b) >= gallopRatio*len(a) {
		lo := 0
		for _, x := range a {
			lo = gallop(b, lo, x)
			if lo == len(b) {
				return false
			}
			if b[lo] == x {
				return true
			}
		}
		return false
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			return true
		}
	}
	return false
}

// IsSorted reports whether s is strictly increasing (a valid set).
func IsSorted(s []uint32) bool {
	for i := 1; i < len(s); i++ {
		if s[i] <= s[i-1] {
			return false
		}
	}
	return true
}

// Dedup sorts-adjacent-dedups an already sorted (possibly non-strict) slice
// in place and returns the strictly increasing prefix.
func Dedup(s []uint32) []uint32 {
	if len(s) < 2 {
		return s
	}
	w := 1
	for i := 1; i < len(s); i++ {
		if s[i] != s[w-1] {
			s[w] = s[i]
			w++
		}
	}
	return s[:w]
}

// Equal reports whether two sets have identical contents.
func Equal(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
