package hgio

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// checkEmbeddingLine holds AppendEmbeddingRecord to its contract: the bytes
// of json.Marshal plus a newline, appended after whatever dst already held,
// and the same bytes again when the line is built as prefix + last.
func checkEmbeddingLine(t *testing.T, m []uint32) {
	t.Helper()
	ref, err := json.Marshal(EmbeddingRecord{Embedding: m})
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte("kept|"), append(ref, '\n')...)
	if got := AppendEmbeddingRecord([]byte("kept|"), m); !bytes.Equal(got, want) {
		t.Fatalf("AppendEmbeddingRecord(%v) = %q, json.Marshal gives %q", m, got, want)
	}
	if n := len(m); n > 0 {
		got := AppendEmbeddingLast(AppendEmbeddingPrefix([]byte("kept|"), m[:n-1]), m[n-1])
		if !bytes.Equal(got, want) {
			t.Fatalf("prefix+last(%v) = %q, json.Marshal gives %q", m, got, want)
		}
	}
}

func TestAppendEmbeddingRecordMatchesJSON(t *testing.T) {
	checkEmbeddingLine(t, nil)
	checkEmbeddingLine(t, []uint32{})
	checkEmbeddingLine(t, []uint32{0})
	checkEmbeddingLine(t, []uint32{math.MaxUint32})
	rng := rand.New(rand.NewSource(22))
	for arity := 1; arity <= 255; arity++ {
		m := make([]uint32, arity)
		for i := range m {
			// Every decimal width: shift a full-range draw down by 0-31 bits.
			m[i] = rng.Uint32() >> uint(rng.Intn(32))
		}
		checkEmbeddingLine(t, m)
	}
}

func TestAppendEmbeddingRecordAllocs(t *testing.T) {
	m := []uint32{0, 7, 20353, math.MaxUint32}
	buf := AppendEmbeddingRecord(nil, m) // grown once; every later row reuses it
	if n := testing.AllocsPerRun(1000, func() { buf = AppendEmbeddingRecord(buf[:0], m) }); n != 0 {
		t.Fatalf("AppendEmbeddingRecord allocates %.1f times per row into a grown buffer", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		buf = AppendEmbeddingLast(AppendEmbeddingPrefix(buf[:0], m[:3]), m[3])
	}); n != 0 {
		t.Fatalf("prefix+last allocates %.1f times per row into a grown buffer", n)
	}
}

// FuzzAppendEmbeddingRecord reads the input as little-endian uint32s (a
// ragged tail is dropped) and requires the append encoder to agree with
// encoding/json on that tuple. Seeds: testdata/fuzz/FuzzAppendEmbeddingRecord.
func FuzzAppendEmbeddingRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m := make([]uint32, len(data)/4)
		for i := range m {
			m[i] = binary.LittleEndian.Uint32(data[4*i:])
		}
		checkEmbeddingLine(t, m)
	})
}
