package server

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hgmatch"
	"hgmatch/internal/hgio"
	"hgmatch/internal/hgtest"
)

// writeV3Graph persists h as a binary-v3 file and returns its path and
// size.
func writeV3Graph(t testing.TB, dir, name string, h *hgmatch.Hypergraph) (string, int64) {
	t.Helper()
	path := filepath.Join(dir, name+".hgb3")
	if err := hgio.WriteBinaryV3File(path, h); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, st.Size()
}

// TestResidencyActivationLifecycle pins a failed attach: a truncated HGB3
// file is an error at LoadFile, not a fallback. It registers nothing, a
// graph already under that name keeps serving its mapping, the residency
// counters do not move, and once the file is restored the next LoadFile
// maps it. TestRegistryLifecycle covers the rest of the lifecycle.
func TestResidencyActivationLifecycle(t *testing.T) {
	dir := t.TempDir()
	goodPath, size := writeV3Graph(t, dir, "good", hgtest.Fig1Data())
	badPath, _ := writeV3Graph(t, dir, "bad", hgtest.Fig1Data())
	image, err := os.ReadFile(badPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(badPath, int64(len(image)/2)); err != nil {
		t.Fatal(err)
	}

	reg := NewRegistry()
	if err := reg.LoadFile("g", goodPath); err != nil {
		t.Fatal(err)
	}
	before := reg.TierStats()
	if before.Resident != 1 || before.ResidentBytes != size {
		t.Fatalf("one mapped graph: %+v, want 1 resident of %d bytes", before, size)
	}
	if err := reg.LoadFile("g", badPath); err == nil {
		t.Fatal("LoadFile mapped a truncated file over a serving graph")
	}
	if err := reg.LoadFile("bad", badPath); err == nil {
		t.Fatal("LoadFile mapped a truncated file")
	}
	if info, ok := reg.Info("g"); !ok || info.Tier != "mapped" || info.FileBytes != size {
		t.Fatalf("a failed attach replaced the serving graph: %+v (found %v)", info, ok)
	}
	if _, ok := reg.Info("bad"); ok {
		t.Fatal("a failed attach registered the graph")
	}
	if ts := reg.TierStats(); ts != before {
		t.Fatalf("a failed attach moved the counters: %+v, before %+v", ts, before)
	}
	s := New(reg, Config{})
	defer s.Close()
	rr := post(s.Handler(), "/count", `{"graph":"bad","query":"v 0\nv 1\ne 0 1"}`)
	var body hgio.ErrorResponse
	if rr.Code != http.StatusNotFound || json.Unmarshal(rr.Body.Bytes(), &body) != nil || body.Error == "" {
		t.Fatalf("/count on a graph that failed to load: %d %s, want a 404 with a JSON error", rr.Code, rr.Body)
	}

	if err := os.WriteFile(badPath, image, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := reg.LoadFile("bad", badPath); err != nil {
		t.Fatalf("LoadFile after the file was restored: %v", err)
	}
	if info, _ := reg.Info("bad"); info.Tier != "mapped" {
		t.Fatalf("restored file attached as %q, want mapped", info.Tier)
	}
	if ts := reg.TierStats(); ts.Resident != 2 || ts.ResidentBytes != 2*size {
		t.Fatalf("after the restored attach: %+v, want 2 resident of %d bytes", ts, 2*size)
	}
	if rr := post(s.Handler(), "/count", `{"graph":"bad","query":"v 0\nv 1\ne 0 1"}`); rr.Code != http.StatusOK {
		t.Fatalf("/count on the restored graph: %d %s", rr.Code, rr.Body)
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestResidencyFileRouting pins LoadFile's routing: the file picks the
// tier. Text and HGB2 files load onto the heap and an HGB3 file is
// mapped. (With durability on, an HGB3 file is recovered onto the heap with
// the writes its WAL journaled before a restart: TestAnswerMatrix's
// durable-v3 cell.)
func TestResidencyFileRouting(t *testing.T) {
	dir := t.TempDir()
	h := hgtest.Fig1Data()
	txt, v2 := filepath.Join(dir, "g.hg"), filepath.Join(dir, "g.hgb2")
	if err := hgio.WriteFile(txt, h); err != nil {
		t.Fatal(err)
	}
	if err := hgio.WriteBinaryFile(v2, h); err != nil {
		t.Fatal(err)
	}
	v3, _ := writeV3Graph(t, dir, "g", h)

	reg := NewRegistry()
	for name, path := range map[string]string{"text": txt, "v2": v2, "v3": v3} {
		if err := reg.LoadFile(name, path); err != nil {
			t.Fatal(err)
		}
	}
	for name, tier := range map[string]string{"text": "heap", "v2": "heap", "v3": "mapped"} {
		if info, _ := reg.Info(name); info.Tier != tier || info.NumEdges != h.NumEdges() {
			t.Fatalf("%s registered as %q with %d edges, want %q with %d", name, info.Tier, info.NumEdges, tier, h.NumEdges())
		}
	}
	reg.Close()
}

// TestRegistryAcquireAllocatesNothing pins the path every request
// crosses: an Acquire and release of a graph registered on the heap take
// no tier mutex and allocate nothing.
func TestRegistryAcquireAllocatesNothing(t *testing.T) {
	h, _ := hgmatch.Load(strings.NewReader(fig1DataText))
	reg := NewRegistry()
	reg.Add("fig1", h)
	if n := testing.AllocsPerRun(100, func() {
		_, _, release, err := reg.Acquire("fig1")
		if err != nil {
			t.Fatal(err)
		}
		release()
	}); n != 0 {
		t.Fatalf("Acquire + release of a heap graph: %v allocs, want 0", n)
	}
}
