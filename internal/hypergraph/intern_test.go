package hypergraph

import (
	"math/rand"
	"slices"
	"testing"
)

func TestU32InternerBasics(t *testing.T) {
	it := newU32Interner(4, 0)
	a := []uint32{1, 2, 3}
	id1, added := it.intern(7, a)
	if !added || id1 != 0 {
		t.Fatalf("first intern = (%d, %v), want (0, true)", id1, added)
	}
	if id, added := it.intern(7, []uint32{1, 2, 3}); added || id != id1 {
		t.Fatalf("re-intern = (%d, %v), want (%d, false)", id, added, id1)
	}
	// Same body under a different tag is a distinct entry.
	id2, added := it.intern(8, []uint32{1, 2, 3})
	if !added || id2 == id1 {
		t.Fatalf("tagged intern = (%d, %v), want new id", id2, added)
	}
	if id, ok := it.lookup(7, a); !ok || id != id1 {
		t.Fatalf("lookup(7) = (%d, %v)", id, ok)
	}
	if _, ok := it.lookup(9, a); ok {
		t.Fatal("lookup of unknown tag succeeded")
	}
	if _, ok := it.lookup(7, []uint32{1, 2}); ok {
		t.Fatal("lookup of unknown body succeeded")
	}
	a[0] = 99 // bodies are copied in: the caller's slice is its own again
	if got := it.body(id1); !slices.Equal(got, []uint32{1, 2, 3}) {
		t.Fatalf("interned body = %v, want a private copy of {1 2 3}", got)
	}
}

func TestU32InternerGrowAndDense(t *testing.T) {
	it := newU32Interner(0, 0)
	const n = 10_000
	rng := rand.New(rand.NewSource(3))
	bodies := make([][]uint32, n)
	for i := range bodies {
		// Unique bodies: the index is embedded, randomness pads.
		bodies[i] = []uint32{uint32(i), rng.Uint32() % 64, rng.Uint32() % 64}
		id, added := it.intern(uint32(i%5), bodies[i])
		if !added || id != uint32(i) {
			t.Fatalf("intern %d = (%d, %v), want dense id", i, id, added)
		}
	}
	if it.len() != n {
		t.Fatalf("len = %d, want %d", it.len(), n)
	}
	for i := range bodies {
		id, ok := it.lookup(uint32(i%5), bodies[i])
		if !ok || id != uint32(i) {
			t.Fatalf("lookup %d after grow = (%d, %v)", i, id, ok)
		}
	}
}

func TestLookupSigAllocFree(t *testing.T) {
	h := MustFromEdges(
		[]Label{0, 1, 0, 1, 2},
		[][]uint32{{0, 1}, {2, 3}, {0, 1, 4}, {2, 3, 4}},
	)
	sig := SignatureOf(h.Edge(0), h.Labels())
	allocs := testing.AllocsPerRun(200, func() {
		if _, ok := h.LookupSig(sig); !ok {
			t.Fatal("signature not found")
		}
	})
	if allocs != 0 {
		t.Fatalf("LookupSig allocates %.1f per call, want 0", allocs)
	}
}

func TestSigIDsAndPartitions(t *testing.T) {
	h := MustFromEdges(
		[]Label{0, 1, 0, 1, 2},
		[][]uint32{{0, 1}, {2, 3}, {0, 1, 4}, {2, 3, 4}},
	)
	if h.NumSignatures() != 2 {
		t.Fatalf("NumSignatures = %d, want 2 ({0,1} and {0,1,2})", h.NumSignatures())
	}
	for e := 0; e < h.NumEdges(); e++ {
		id := h.SigIDOf(EdgeID(e))
		if !h.Sig(id).Equal(SignatureOf(h.Edge(EdgeID(e)), h.Labels())) {
			t.Fatalf("edge %d: Sig(SigIDOf) mismatch", e)
		}
		p := h.PartitionBySig(id)
		if p.Len() == 0 || p.SigID != id {
			t.Fatalf("edge %d: PartitionBySig broken", e)
		}
		if h.CardinalityBySig(id) != p.Len() {
			t.Fatalf("edge %d: CardinalityBySig != Len", e)
		}
	}
	if _, ok := h.LookupSig(Signature{9, 9}); ok {
		t.Fatal("LookupSig found an absent signature")
	}
}

func TestAppendSignatureMatchesSignatureOf(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	labels := make([]Label, 50)
	for i := range labels {
		labels[i] = Label(rng.Intn(6))
	}
	var buf Signature
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(8)
		vs := make([]uint32, n)
		for i := range vs {
			vs[i] = uint32(rng.Intn(len(labels)))
		}
		want := SignatureOf(vs, labels)
		buf = AppendSignature(buf[:0], vs, labels)
		if !want.Equal(buf) {
			t.Fatalf("AppendSignature(%v) = %v, want %v", vs, buf, want)
		}
	}
}
