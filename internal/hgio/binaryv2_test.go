package hgio_test

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"hgmatch/internal/hgio"
	"hgmatch/internal/hgtest"
	"hgmatch/internal/hypergraph"
)

// indexEqual checks the two graphs carry identical storage-layer indexes:
// interned signature counts, partition shapes and every posting view.
func indexEqual(t *testing.T, a, b *hypergraph.Hypergraph) {
	t.Helper()
	if a.NumSignatures() != b.NumSignatures() {
		t.Fatalf("signature counts differ: %d vs %d", a.NumSignatures(), b.NumSignatures())
	}
	if a.NumPartitions() != b.NumPartitions() {
		t.Fatalf("partition counts differ: %d vs %d", a.NumPartitions(), b.NumPartitions())
	}
	for pi := 0; pi < a.NumPartitions(); pi++ {
		pa, pb := a.Partition(pi), b.Partition(pi)
		if !pa.Sig.Equal(pb.Sig) || pa.EdgeLabel != pb.EdgeLabel || pa.Len() != pb.Len() {
			t.Fatalf("partition %d headers differ", pi)
		}
		va, vb := pa.PostingVertices(), pb.PostingVertices()
		if len(va) != len(vb) {
			t.Fatalf("partition %d vertex dictionaries differ", pi)
		}
		for i, v := range va {
			if v != vb[i] {
				t.Fatalf("partition %d vertex dictionaries differ at %d", pi, i)
			}
			la, lb := pa.PostingsAt(i), pb.PostingsAt(i)
			if len(la) != len(lb) {
				t.Fatalf("partition %d postings of %d differ", pi, v)
			}
			for j := range la {
				if la[j] != lb[j] {
					t.Fatalf("partition %d postings of %d differ", pi, v)
				}
			}
		}
	}
}

// TestBinaryV2RoundTripIndex: writing v2 and reading it back must
// reproduce the exact storage layer, byte-deterministically.
func TestBinaryV2RoundTripIndex(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := hgtest.RandomHypergraph(rng, hgtest.RandomConfig{
			NumVertices: 40, NumEdges: 80, NumLabels: 6, MaxArity: 7,
		})
		var buf bytes.Buffer
		if err := hgio.WriteBinary(&buf, h); err != nil {
			t.Fatal(err)
		}
		h2, err := hgio.ReadBinary(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		graphsEqual(t, h, h2)
		indexEqual(t, h, h2)
		if err := h2.Validate(); err != nil {
			t.Fatalf("seed %d: v2-loaded graph invalid: %v", seed, err)
		}
		var buf2 bytes.Buffer
		if err := hgio.WriteBinary(&buf2, h2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatalf("seed %d: v2 write-read-write not byte-stable", seed)
		}
	}
}

// TestBinaryGoldens pins the on-disk encoding: the committed v2 file must
// load to the same graph as the in-code fixture, and the fixture must
// re-encode byte-identically — so format changes that would silently
// orphan existing files fail here first.
func TestBinaryGoldens(t *testing.T) {
	h := hgtest.Fig1Data()
	const path = "testdata/fig1.v2.hgb"
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s: %v", path, err)
	}
	var got bytes.Buffer
	if err := hgio.WriteBinary(&got, h); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("%s: encoding drifted from committed golden", path)
	}
	loaded, err := hgio.ReadBinary(bytes.NewReader(want))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	graphsEqual(t, h, loaded)
	indexEqual(t, h, loaded)
}

func TestBinaryV2FileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.hgb")
	h := hgtest.Fig1Data()
	if err := hgio.WriteBinaryFile(path, h); err != nil {
		t.Fatal(err)
	}
	h2, err := hgio.ReadAutoFile(path)
	if err != nil {
		t.Fatal(err)
	}
	graphsEqual(t, h, h2)
	indexEqual(t, h, h2)
}
