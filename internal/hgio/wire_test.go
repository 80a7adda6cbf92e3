package hgio

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"slices"
	"strconv"
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
	// Every decimal width in every position of lines of 1–9 IDs, so each
	// digit-group path of putUint32 ends a prefix ID and a last ID.
	ids := widthIDs()
	for n := 1; n <= 9; n++ {
		for _, id := range ids {
			for pos := range n {
				m := make([]uint32, n)
				for i := range m {
					m[i] = ids[rng.Intn(len(ids))]
				}
				m[pos] = id
				checkEmbeddingLine(t, m)
			}
		}
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
// encoding/json on that tuple. Seeds: testdata/fuzz/FuzzAppendEmbeddingRecord
// and one tuple of every decimal width.
func FuzzAppendEmbeddingRecord(f *testing.F) {
	ids := widthIDs()
	seed := make([]byte, 4*len(ids))
	for i, id := range ids {
		binary.LittleEndian.PutUint32(seed[4*i:], id)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		m := make([]uint32, len(data)/4)
		for i := range m {
			m[i] = binary.LittleEndian.Uint32(data[4*i:])
		}
		checkEmbeddingLine(t, m)
	})
}

// widthIDs returns IDs of every decimal width from 1 to 10 digits, both
// ends of each width among them, and MaxUint32.
func widthIDs() []uint32 {
	ids := []uint32{0, math.MaxUint32}
	for p := uint64(10); p <= math.MaxUint32; p *= 10 {
		ids = append(ids, uint32(p-1), uint32(p), uint32(p+p/3))
	}
	return ids
}

// TestAppendEmbeddingAppendsOnly: the appenders keep the append contract,
// writing nothing into dst's spare capacity past the length they return,
// though putUint32's first store can reach 3 bytes past a short number.
func TestAppendEmbeddingAppendsOnly(t *testing.T) {
	for _, m := range [][]uint32{{0}, {7, 42}, {7, math.MaxUint32}, {12345, 20353, 100000000, 5}} {
		for name, write := range map[string]func([]byte) []byte{
			"AppendEmbeddingRecord": func(b []byte) []byte { return AppendEmbeddingRecord(b, m) },
			"AppendEmbeddingPrefix": func(b []byte) []byte { return AppendEmbeddingPrefix(b, m) },
			"AppendEmbeddingLast":   func(b []byte) []byte { return AppendEmbeddingLast(b, m[len(m)-1]) },
		} {
			buf := bytes.Repeat([]byte{'#'}, 64)
			out := write(buf[:1])
			if rest := buf[len(out):]; bytes.IndexFunc(rest, func(r rune) bool { return r != '#' }) >= 0 {
				t.Fatalf("%s(%v) wrote past its returned length: %q", name, m, rest)
			}
		}
	}
}

// BenchmarkAppendEmbeddingRow times one /match row's encode, in ns/row, on
// groups shaped like match_stream's: SB hyperedge IDs (< 20 354), prefixes
// of 2–3 IDs, candidate runs of 10–42 sorted IDs, drained at 64 KiB into a
// frame with 4 KiB of slack as a /match shard drains. Each group's prefix
// is encoded once and copied per row, as handleMatch does. Arms:
//   - strconv: the number through strconv.AppendUint, the encoder before
//     the digit table;
//   - table: AppendEmbeddingPrefix and AppendEmbeddingLast.
//
// Medians of 8 runs (-count 8) on a 2-core Intel Xeon, Linux 6.18, go1.24.0:
// strconv 27.1 ns/row, table 16.9.
func BenchmarkAppendEmbeddingRow(b *testing.B) {
	const frame, slack = 64 << 10, 4 << 10
	rng := rand.New(rand.NewSource(41))
	type group struct {
		prefix, run []uint32
	}
	groups := make([]group, 512)
	rows := 0
	for i := range groups {
		g := &groups[i]
		g.prefix = make([]uint32, 2+rng.Intn(2))
		for j := range g.prefix {
			g.prefix[j] = uint32(rng.Intn(20354))
		}
		g.run = make([]uint32, 10+rng.Intn(33))
		for j := range g.run {
			g.run[j] = uint32(rng.Intn(20354))
		}
		slices.Sort(g.run)
		rows += len(g.run)
	}
	arm := func(name string, group func(buf []byte, g *group) []byte) {
		b.Run(name, func(b *testing.B) {
			buf := make([]byte, 0, frame+slack)
			for range b.N {
				for i := range groups {
					buf = group(buf, &groups[i])
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
		})
	}
	var pre []byte
	arm("strconv", func(buf []byte, g *group) []byte {
		pre = append(pre[:0], `{"embedding":[`...)
		for _, e := range g.prefix {
			pre = append(strconv.AppendUint(pre, uint64(e), 10), ',')
		}
		for _, c := range g.run {
			buf = append(strconv.AppendUint(append(buf, pre...), uint64(c), 10), "]}\n"...)
			if len(buf) >= frame {
				buf = buf[:0]
			}
		}
		return buf
	})
	arm("table", func(buf []byte, g *group) []byte {
		pre = AppendEmbeddingPrefix(pre[:0], g.prefix)
		for _, c := range g.run {
			buf = AppendEmbeddingLast(append(buf, pre...), c)
			if len(buf) >= frame {
				buf = buf[:0]
			}
		}
		return buf
	})
}
