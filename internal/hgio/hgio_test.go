package hgio_test

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"hgmatch/internal/hgio"
	"hgmatch/internal/hgtest"
	"hgmatch/internal/hypergraph"
	"hgmatch/internal/setops"
)

func TestReadBasic(t *testing.T) {
	src := `
# Fig.1 data hypergraph
v A
v C
v A
v A
v B
v C
v A
e 2 4
e 4 6
e 0 1 2
e 3 5 6
e 0 1 4 6
e 2 3 4 5
`
	h, err := hgio.Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	want := hgtest.Fig1Data()
	if h.NumVertices() != want.NumVertices() || h.NumEdges() != want.NumEdges() {
		t.Fatalf("got %v want %v", h, want)
	}
	if h.NumPartitions() != 3 {
		t.Errorf("partitions = %d", h.NumPartitions())
	}
	if h.Dict().Name(h.Label(0)) != "A" || h.Dict().Name(h.Label(4)) != "B" {
		t.Error("label names not preserved")
	}
}

func TestRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := hgtest.RandomHypergraph(rng, hgtest.RandomConfig{
			NumVertices: 25, NumEdges: 40, NumLabels: 5, MaxArity: 6,
		})
		var buf bytes.Buffer
		if err := hgio.Write(&buf, h); err != nil {
			t.Fatal(err)
		}
		h2, err := hgio.Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if h2.NumVertices() != h.NumVertices() || h2.NumEdges() != h.NumEdges() {
			t.Fatalf("seed %d: round trip changed shape: %v vs %v", seed, h2, h)
		}
		for e := 0; e < h.NumEdges(); e++ {
			if !setops.Equal(h.Edge(uint32(e)), h2.Edge(uint32(e))) {
				t.Fatalf("seed %d: edge %d differs", seed, e)
			}
		}
		for v := 0; v < h.NumVertices(); v++ {
			// Labels are renamed by the dictionary but the partition
			// structure must be identical.
			if h.Degree(uint32(v)) != h2.Degree(uint32(v)) {
				t.Fatalf("seed %d: degree of %d differs", seed, v)
			}
		}
		if h2.NumPartitions() != h.NumPartitions() {
			t.Fatalf("seed %d: partition count differs", seed)
		}
	}
}

func TestRoundTripEdgeLabels(t *testing.T) {
	b := hypergraph.NewBuilder()
	d := hypergraph.NewDict()
	ed := hypergraph.NewDict()
	b.WithDicts(d, ed)
	for i := 0; i < 4; i++ {
		b.AddVertex(d.Intern("T"))
	}
	b.AddLabelledEdge(ed.Intern("plays"), 0, 1, 2)
	b.AddLabelledEdge(ed.Intern("acts"), 1, 2, 3)
	h := b.MustBuild()

	var buf bytes.Buffer
	if err := hgio.Write(&buf, h); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !strings.Contains(text, "el plays") || !strings.Contains(text, "el acts") {
		t.Fatalf("edge labels not serialised:\n%s", text)
	}
	h2, err := hgio.Read(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if !h2.EdgeLabelled() || h2.NumEdges() != 2 {
		t.Fatalf("edge labels lost: %v", h2)
	}
}

func TestReadErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"unknown record", "x 1 2\n"},
		{"v arity", "v\n"},
		{"v extra", "v A B\n"},
		{"e empty", "v A\ne\n"},
		{"el missing", "v A\nel lab\n"},
		{"bad vertex id", "v A\ne zork\n"},
		{"undeclared vertex", "v A\ne 0 3\n"},
		{"negative id", "v A\ne -1\n"},
	}
	for _, c := range cases {
		if _, err := hgio.Read(strings.NewReader(c.src)); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.hg")
	h := hgtest.Fig1Data()
	if err := hgio.WriteFile(path, h); err != nil {
		t.Fatal(err)
	}
	h2, err := hgio.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if h2.NumEdges() != h.NumEdges() {
		t.Fatal("file round trip lost edges")
	}
	if _, err := hgio.ReadFile(filepath.Join(dir, "missing.hg")); err == nil {
		t.Fatal("reading missing file should fail")
	}
}

func TestCommentsAndBlanks(t *testing.T) {
	src := "v A # trailing comment\n\n   \n# full comment\nv B\ne 0 1 # another\n"
	h, err := hgio.Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if h.NumVertices() != 2 || h.NumEdges() != 1 {
		t.Fatalf("got %v", h)
	}
}

// TestReadSmallQueryAllocatesLittle: every /match and /count parses its
// query through Read, so a 3-edge query must not cost a fixed 64 KiB
// scanner buffer (which was two thirds of the serving path's garbage).
func TestReadSmallQueryAllocatesLittle(t *testing.T) {
	const query = "v A\nv C\nv A\nv A\nv B\ne 2 4\ne 0 1 2\ne 0 1 3 4\n"
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := hgio.Read(strings.NewReader(query)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if perRead := (after.TotalAlloc - before.TotalAlloc) / runs; perRead >= 8<<10 {
		t.Fatalf("parsing a 3-edge query allocates %d bytes, want < 8 KiB", perRead)
	} else {
		t.Logf("parsing a 3-edge query allocates %d bytes", perRead)
	}
}
