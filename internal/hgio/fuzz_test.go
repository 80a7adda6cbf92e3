package hgio_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"slices"
	"testing"

	"hgmatch/internal/hgio"
	"hgmatch/internal/hgtest"
	"hgmatch/internal/hypergraph"
)

// FuzzReadBinary feeds arbitrary bytes to the binary reader. It must never
// panic; any input it accepts must decode to a graph that passes Validate
// and survives WriteBinary → ReadBinary with the same storage. Seeds: the
// committed Fig. 1 golden and its v3 twin, the hgtest serving graphs and
// the crafted headers of the allocation tests. The serving graphs go in
// as HGB2 only: an HGB3 image pads its sections to 4 KiB, and every large
// seed slows the fuzzer's minimisation.
func FuzzReadBinary(f *testing.F) {
	golden, err := os.ReadFile("testdata/fig1.v2.hgb")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	var v3 bytes.Buffer
	if err := hgio.WriteBinaryV3(&v3, hgtest.Fig1Data()); err != nil {
		f.Fatal(err)
	}
	f.Add(v3.Bytes())
	f.Add(inflatedEdgeCountV2())
	f.Add(sharedPartitionEdgeV2())
	for _, g := range hgtest.ServingGraphs() {
		var v2 bytes.Buffer
		if err := hgio.WriteBinary(&v2, g.Graph); err != nil {
			f.Fatal(err)
		}
		f.Add(v2.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := hgio.ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := h.Validate(); err != nil {
			t.Fatalf("accepted input decodes to an invalid graph: %v", err)
		}
		var buf bytes.Buffer
		if err := hgio.WriteBinary(&buf, h); err != nil {
			t.Fatalf("writing an accepted graph: %v", err)
		}
		h2, err := hgio.ReadBinary(&buf)
		if err != nil {
			t.Fatalf("re-reading a written graph: %v", err)
		}
		if err := storageDiff(h.Storage(), h2.Storage()); err != nil {
			t.Fatalf("WriteBinary → ReadBinary changed the storage: %v", err)
		}
	})
}

// FuzzMapBytes feeds arbitrary bytes to the zero-copy attach, the only
// gate between an HGB3 file and the server. It must never panic; any input
// it accepts must pass Validate and carry exactly the storage ReadBinary
// decodes from the same bytes. The header checksum is re-sealed before the
// attach, so mutations of the header and section directory reach the
// structural checks behind it; the payload stays under its checksum
// (verification on), which is what the attach trusts content to. Seeds:
// the v3 twin of the Fig. 1 golden, the hgtest serving graphs as HGB3, and
// the Fig. 1 image with a misaligned section offset.
func FuzzMapBytes(f *testing.F) {
	var fig1 bytes.Buffer
	if err := hgio.WriteBinaryV3(&fig1, hgtest.Fig1Data()); err != nil {
		f.Fatal(err)
	}
	f.Add(fig1.Bytes())
	for _, g := range hgtest.ServingGraphs() {
		var v3 bytes.Buffer
		if err := hgio.WriteBinaryV3(&v3, g.Graph); err != nil {
			f.Fatal(err)
		}
		f.Add(v3.Bytes())
	}
	misaligned := slices.Clone(fig1.Bytes())
	off := misaligned[96+24+8:] // second directory entry's offset
	binary.LittleEndian.PutUint64(off, binary.LittleEndian.Uint64(off)+4)
	fixV3HeaderCRC(misaligned)
	f.Add(misaligned)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= 96 {
			fixV3HeaderCRC(data)
		}
		m, err := hgio.MapBytes(data, hgio.MapOptions{Verify: true})
		if err != nil {
			return
		}
		defer m.Release()
		if err := m.Graph().Validate(); err != nil {
			t.Fatalf("accepted input attaches an invalid graph: %v", err)
		}
		h, err := hgio.ReadBinary(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("attach accepted what the heap reader rejects: %v", err)
		}
		if err := storageDiff(m.Graph().Storage(), h.Storage()); err != nil {
			t.Fatalf("attach and heap decode differ: %v", err)
		}
	})
}

// storageDiff compares two graphs' storage array by array (nil and empty
// alike) and dictionary by dictionary name. HGB2 carries no edge-label
// dictionary, so EdgeDict is not compared.
func storageDiff(a, b hypergraph.Storage) error {
	for _, c := range []struct {
		name string
		x, y []uint32
	}{
		{"labels", a.Labels, b.Labels},
		{"edge offsets", a.EdgeOff, b.EdgeOff},
		{"edge vertices", a.EdgeVerts, b.EdgeVerts},
		{"edge labels", a.EdgeLabels, b.EdgeLabels},
		{"table members", a.PartEdges, b.PartEdges},
		{"table vertices", a.PartVerts, b.PartVerts},
		{"table offsets", a.PartOffs, b.PartOffs},
		{"table postings", a.PartPosts, b.PartPosts},
		{"incidence offsets", a.IncOff, b.IncOff},
		{"incidence edges", a.IncEdges, b.IncEdges},
		{"edge tables", a.EdgePart, b.EdgePart},
	} {
		if !slices.Equal(c.x, c.y) {
			return fmt.Errorf("%s differ", c.name)
		}
	}
	if (a.EdgeLabels == nil) != (b.EdgeLabels == nil) {
		return fmt.Errorf("edge-labelled %v vs %v", a.EdgeLabels != nil, b.EdgeLabels != nil)
	}
	if !slices.Equal(a.Tables, b.Tables) {
		return fmt.Errorf("table directories differ")
	}
	if a.NumLabels != b.NumLabels || a.MaxArity != b.MaxArity {
		return fmt.Errorf("label count or max arity differ")
	}
	if len(a.Sidecars) != len(b.Sidecars) {
		return fmt.Errorf("%d vs %d bitmap sidecars", len(a.Sidecars), len(b.Sidecars))
	}
	if !slices.Equal(dictNames(a.Dict), dictNames(b.Dict)) {
		return fmt.Errorf("vertex label dictionaries differ")
	}
	return nil
}

func dictNames(d *hypergraph.Dict) []string {
	if d == nil {
		return nil
	}
	names := make([]string, d.Len())
	for l := range names {
		names[l] = d.Name(hypergraph.Label(l))
	}
	return names
}
