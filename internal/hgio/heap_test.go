package hgio

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"hgmatch/internal/datagen"
	"hgmatch/internal/hypergraph"
)

// heapDelta runs load and reports what the value it returns costs the Go
// heap: live objects and live bytes after a collection, against the same
// reading taken before. keep pins the result across the second reading.
func heapDelta(load func() any) (objects, bytes int64, keep any) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	keep = load()
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	return int64(after.HeapObjects) - int64(before.HeapObjects), int64(after.HeapAlloc) - int64(before.HeapAlloc), keep
}

func scaledProfile(t testing.TB, name string, f float64) datagen.Profile {
	p, ok := datagen.ProfileByName(name)
	if !ok {
		t.Fatalf("no datagen profile %q", name)
	}
	return p.Scaled(f)
}

// graphLoaders returns, for one source graph, every way a graph comes to
// be resident: built, assembled from HGB2 bytes, assembled from an HGB3
// image on the heap, and attached to a mapped HGB3 file.
func graphLoaders(t *testing.T, src *hypergraph.Hypergraph) map[string]func() any {
	var v2, v3 bytes.Buffer
	if err := WriteBinary(&v2, src); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinaryV3(&v3, src); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.hgb3")
	if err := os.WriteFile(path, v3.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	must := func(h *hypergraph.Hypergraph, err error) any {
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	return map[string]func() any{
		"build": func() any {
			b := hypergraph.NewBuilder().WithDicts(src.Dict(), src.EdgeDict())
			for _, l := range src.Labels() {
				b.AddVertex(l)
			}
			for e := 0; e < src.NumEdges(); e++ {
				b.AddEdge(src.Edge(hypergraph.EdgeID(e))...)
			}
			return must(b.Build())
		},
		"assemble-v2": func() any { return must(ReadBinary(bytes.NewReader(v2.Bytes()))) },
		"heap-v3":     func() any { return must(ReadBinary(bytes.NewReader(v3.Bytes()))) },
		"map-v3": func() any {
			m, err := MapFile(path, MapOptions{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { m.Release() })
			return m
		},
	}
}

func graphOf(v any) *hypergraph.Hypergraph {
	if m, ok := v.(*MappedGraph); ok {
		return m.Graph()
	}
	return v.(*hypergraph.Hypergraph)
}

// TestHeapShapeIndependentOfTableCount pins the flat layout: however a
// graph becomes resident, what it costs the collector is a fixed number of
// arrays plus a few objects per table that carries a sidecar — never
// something per table, per edge or per vertex. TC is the graph that has
// almost as many tables as edges.
func TestHeapShapeIndependentOfTableCount(t *testing.T) {
	src := datagen.Generate(scaledProfile(t, "TC", 0.1), 3)
	if src.NumPartitions() < 5000 {
		t.Fatalf("TC×0.1 has only %d tables; the test needs a table-heavy graph", src.NumPartitions())
	}
	for name, load := range graphLoaders(t, src) {
		objects, _, keep := heapDelta(load)
		h := graphOf(keep)
		st := hypergraph.ComputeStats(h)
		limit := int64(256 + 8*len(h.Storage().Sidecars))
		t.Logf("%s: %d tables, %d edges: %d live objects (limit %d)", name, st.Partitions, st.NumEdges, objects, limit)
		if objects > limit {
			t.Errorf("%s: %d live heap objects for %d tables, want ≤ %d", name, objects, st.Partitions, limit)
		}
		runtime.KeepAlive(keep)
	}
}

// TestMapFileAttachAllocsBounded: attaching a mapped graph allocates a
// fixed number of times, not once per table.
func TestMapFileAttachAllocsBounded(t *testing.T) {
	src := datagen.Generate(scaledProfile(t, "TC", 0.1), 3)
	load := graphLoaders(t, src)["map-v3"]
	allocs := testing.AllocsPerRun(3, func() { load() })
	const limit = 512 // what it does allocate goes to decoding the label dictionary
	t.Logf("MapFile attach of %d tables: %.0f allocations", src.NumPartitions(), allocs)
	if allocs > limit {
		t.Errorf("MapFile attach allocates %.0f times for %d tables, want ≤ %d", allocs, src.NumPartitions(), limit)
	}
}

// TestStatsAgreeWithHeap: the byte counts ComputeStats reports (and GET
// /graphs/{g}/stats serves) are what the graph actually costs the Go heap,
// to within a tenth, on a table-heavy and on a table-light graph — and on
// a snapshot whose deletes masked tables over the base's shared index.
func TestStatsAgreeWithHeap(t *testing.T) {
	for _, tc := range []struct {
		profile string
		scale   float64
	}{{"TC", 0.1}, {"SB", 1}} {
		src := datagen.Generate(scaledProfile(t, tc.profile, tc.scale), 3)
		loaders := graphLoaders(t, src)
		delete(loaders, "map-v3") // its arrays are the file's pages, not heap
		loaders["tombstoned"] = func() any {
			h := loaders["build"]().(*hypergraph.Hypergraph)
			buf, err := hypergraph.NewDeltaBuffer(h)
			if err != nil {
				t.Fatal(err)
			}
			for e := 0; e < h.NumEdges(); e += 50 {
				if ok, err := buf.Delete(h.Edge(hypergraph.EdgeID(e))...); err != nil || !ok {
					t.Fatalf("delete edge %d: %v %v", e, ok, err)
				}
			}
			return buf.Publish()
		}
		for name, load := range loaders {
			_, heap, keep := heapDelta(load)
			st := hypergraph.ComputeStats(graphOf(keep))
			if name == "tombstoned" && st.DeadEdges == 0 {
				t.Fatalf("%s %s: no tombstone published", tc.profile, name)
			}
			reported := int64(st.GraphBytes + st.IndexBytes + st.SigTableBytes + st.BitmapBytes)
			t.Logf("%s %s: reported %d B, heap %d B (%.3f)", tc.profile, name, reported, heap, float64(reported)/float64(heap))
			if d := reported - heap; d > heap/10 || -d > heap/10 {
				t.Errorf("%s %s: stats report %d B, the heap holds %d B", tc.profile, name, reported, heap)
			}
			runtime.KeepAlive(keep)
		}
	}
}
