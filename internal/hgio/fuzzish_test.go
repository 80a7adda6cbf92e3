package hgio_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"testing"

	"hgmatch/internal/hgio"
	"hgmatch/internal/hgtest"
)

// TestBinaryBitFlips: single-byte corruptions of a real v2 file must never
// panic, and must either error out or decode to a structurally valid
// graph. This is the malformed-CSR gate: flips land in the offset tables
// and posting arrays as often as in the graph sections, and Assemble must
// reject every inconsistent index.
func TestBinaryBitFlips(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h := hgtest.RandomHypergraph(rng, hgtest.RandomConfig{
		NumVertices: 30, NumEdges: 50, NumLabels: 4, MaxArity: 5,
	})
	var v2 bytes.Buffer
	if err := hgio.WriteBinary(&v2, h); err != nil {
		t.Fatal(err)
	}
	t.Run("v2", func(t *testing.T) {
		for trial := 0; trial < 300; trial++ {
			corrupted := append([]byte(nil), v2.Bytes()...)
			i := rng.Intn(len(corrupted))
			corrupted[i] ^= byte(1 << rng.Intn(8))
			got, err := hgio.ReadBinary(bytes.NewReader(corrupted))
			if err != nil {
				continue
			}
			if verr := got.Validate(); verr != nil {
				t.Fatalf("trial %d (byte %d): decoded structurally invalid graph: %v", trial, i, verr)
			}
		}
	})
}

// TestBinaryHeaderCountsDoNotPreallocate: a tiny file whose header claims
// billions of vertices/edges must fail with a parse error, not attempt a
// multi-GiB up-front allocation (which would be a fatal runtime OOM, not
// a recoverable error).
func TestBinaryHeaderCountsDoNotPreallocate(t *testing.T) {
	if _, err := hgio.ReadBinary(bytes.NewReader(inflatedEdgeCountV2())); err == nil {
		t.Error("inflated edge count accepted")
	}
}

// inflatedEdgeCountV2 is an HGB2 header claiming 2^30 edges with no
// payload behind it.
func inflatedEdgeCountV2() []byte {
	huge := make([]byte, 0, 32)
	huge = append(huge, "HGB2"...)
	huge = binary.AppendUvarint(huge, 1)     // numVertices
	huge = binary.AppendUvarint(huge, 1<<30) // numEdges: claims 2^30, no payload
	huge = binary.AppendUvarint(huge, 0)     // dict
	huge = binary.AppendUvarint(huge, 0)     // flags
	huge = binary.AppendUvarint(huge, 0)     // the single vertex label
	return huge
}

// TestBinaryV2RejectsSharedPartitionEdges: a v2 index section in which two
// partitions claim the same edge must error during decode — before the
// duplicated claim can multiply posting-array preallocations.
func TestBinaryV2RejectsSharedPartitionEdges(t *testing.T) {
	if _, err := hgio.ReadBinary(bytes.NewReader(sharedPartitionEdgeV2())); err == nil {
		t.Fatal("v2 file with an edge claimed by two partitions accepted")
	}
}

// sharedPartitionEdgeV2 is an HGB2 file whose second partition claims
// the first one's edge.
func sharedPartitionEdgeV2() []byte {
	b := []byte("HGB2")
	for _, x := range []uint64{
		2, 2, 0, 0, // nv=2, ne=2, dict=0, flags=0
		0, 0, // vertex labels
		2, 0, 0, // edge 0: arity 2, verts {0,1}
		2, 0, 0, // edge 1: arity 2, verts {0,1}
		2,    // two partitions
		1, 0, // partition 0 claims edge 0
		1, 0, // ...CSR vertex dictionary: {0}
		1, 0, // ...vertex 0's posting list: {edge 0}
		1, 0, // partition 1 claims edge 0 AGAIN -> must error here
	} {
		b = binary.AppendUvarint(b, x)
	}
	return b
}

// TestBinaryV2TruncationsNeverPanic walks every prefix of a v2 file —
// cutting through the index section included — and requires an error.
func TestBinaryV2TruncationsNeverPanic(t *testing.T) {
	h := hgtest.Fig1Data()
	var buf bytes.Buffer
	if err := hgio.WriteBinary(&buf, h); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut++ {
		if _, err := hgio.ReadBinary(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// fixV3HeaderCRC recomputes the v3 header checksum after a test mutates
// the header or directory, so corruptions aimed at later validation stages
// are not masked by the fingerprint check.
func fixV3HeaderCRC(data []byte) {
	le := binary.LittleEndian
	dirEnd := 96 + 24*int(le.Uint32(data[68:72]))
	if dirEnd > len(data) {
		return // directory past EOF: rejected before the CRC is read
	}
	tab := crc32.MakeTable(crc32.Castagnoli)
	crc := crc32.Checksum(data[:76], tab)
	crc = crc32.Update(crc, tab, make([]byte, 4))
	crc = crc32.Update(crc, tab, data[80:dirEnd])
	le.PutUint32(data[76:80], crc)
}

// TestBinaryV3DirectoryCorruptions aims targeted corruptions at the v3
// section directory — misaligned offsets, overlapping windows, a directory
// extending past EOF, unknown and duplicate ids, zero-length and
// out-of-bounds windows, a lying file size — and requires a clean error
// from both the heap reader and the zero-copy attach path (verification
// off: the structural validation alone must reject these before any
// payload is interpreted).
func TestBinaryV3DirectoryCorruptions(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	h := hgtest.RandomHypergraph(rng, hgtest.RandomConfig{
		NumVertices: 30, NumEdges: 50, NumLabels: 4, MaxArity: 5,
	})
	var buf bytes.Buffer
	if err := hgio.WriteBinaryV3(&buf, h); err != nil {
		t.Fatal(err)
	}
	pristine := buf.Bytes()
	le := binary.LittleEndian
	ent := func(data []byte, i int) []byte { return data[96+24*i : 96+24*(i+1)] }

	cases := []struct {
		name    string
		corrupt func(data []byte)
	}{
		{"misaligned-offset", func(d []byte) {
			e := ent(d, 1)
			le.PutUint64(e[8:], le.Uint64(e[8:])+4)
		}},
		{"overlapping-sections", func(d []byte) {
			le.PutUint64(ent(d, 2)[8:], le.Uint64(ent(d, 1)[8:]))
		}},
		{"directory-past-eof", func(d []byte) {
			le.PutUint32(d[68:], 100000)
		}},
		{"unknown-section-id", func(d []byte) {
			le.PutUint32(ent(d, 0), 77)
		}},
		{"duplicate-section-id", func(d []byte) {
			copy(ent(d, 2), ent(d, 1))
		}},
		{"zero-length-section", func(d []byte) {
			le.PutUint64(ent(d, 1)[16:], 0)
		}},
		{"window-past-eof", func(d []byte) {
			le.PutUint64(ent(d, 1)[16:], uint64(len(d)))
		}},
		{"lying-file-size", func(d []byte) {
			le.PutUint64(d[8:], le.Uint64(d[8:])+4096)
		}},
		{"bogus-alignment", func(d []byte) {
			le.PutUint32(d[64:], 12345) // not a power of two
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := append([]byte(nil), pristine...)
			tc.corrupt(data)
			fixV3HeaderCRC(data)
			if m, err := hgio.MapBytes(data, hgio.MapOptions{}); err == nil {
				m.Release()
				t.Fatal("corrupt directory accepted by attach")
			}
			if _, err := hgio.ReadBinary(bytes.NewReader(data)); err == nil {
				t.Fatal("corrupt directory accepted by heap reader")
			}
		})
	}
}

// TestBinaryV3BitFlips: single-bit corruptions anywhere in a v3 file must
// never panic, and — with checksum verification on — must either error or
// still decode to a structurally valid graph, through both load paths.
func TestBinaryV3BitFlips(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	h := hgtest.RandomHypergraph(rng, hgtest.RandomConfig{
		NumVertices: 30, NumEdges: 50, NumLabels: 4, MaxArity: 5,
	})
	var buf bytes.Buffer
	if err := hgio.WriteBinaryV3(&buf, h); err != nil {
		t.Fatal(err)
	}
	pristine := buf.Bytes()
	for trial := 0; trial < 300; trial++ {
		corrupted := append([]byte(nil), pristine...)
		i := rng.Intn(len(corrupted))
		corrupted[i] ^= byte(1 << rng.Intn(8))
		if got, err := hgio.ReadBinary(bytes.NewReader(corrupted)); err == nil {
			if verr := got.Validate(); verr != nil {
				t.Fatalf("trial %d (byte %d): heap reader decoded invalid graph: %v", trial, i, verr)
			}
		}
		if m, err := hgio.MapBytes(corrupted, hgio.MapOptions{Verify: true}); err == nil {
			if verr := m.Graph().Validate(); verr != nil {
				t.Fatalf("trial %d (byte %d): attach decoded invalid graph: %v", trial, i, verr)
			}
			m.Release()
		}
	}
}

// TestBinaryV3TruncationsNeverPanic cuts a v3 file at the header, at every
// directory byte, at each section boundary and on a stride through the
// payload: every truncation must error cleanly in both load paths (a
// mapped attach of a truncated file must fail validation, not fault later).
func TestBinaryV3TruncationsNeverPanic(t *testing.T) {
	h := hgtest.Fig1Data()
	var buf bytes.Buffer
	if err := hgio.WriteBinaryV3(&buf, h); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	cuts := make(map[int]bool)
	for c := 0; c < 96+24*16 && c < len(full); c++ {
		cuts[c] = true // header and directory region: every byte
	}
	for c := 0; c < len(full); c += 997 {
		cuts[c] = true
	}
	for c := 4096; c < len(full); c += 4096 {
		cuts[c] = true // section boundaries
		cuts[c-1] = true
	}
	for cut := range cuts {
		if _, err := hgio.ReadBinary(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("heap reader accepted truncation at %d", cut)
		}
		if m, err := hgio.MapBytes(full[:cut], hgio.MapOptions{}); err == nil {
			m.Release()
			t.Fatalf("attach accepted truncation at %d", cut)
		}
	}
}
