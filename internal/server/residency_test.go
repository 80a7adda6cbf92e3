package server

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

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
	pk, err := hgio.PeekFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, pk.FileBytes
}

func randomGraph(t testing.TB, seed int64) *hgmatch.Hypergraph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	return hgtest.RandomHypergraph(rng, hgtest.RandomConfig{
		NumVertices: 50, NumEdges: 200, NumLabels: 4, MaxArity: 5,
	})
}

func TestResidencyActivationLifecycle(t *testing.T) {
	dir := t.TempDir()
	h := randomGraph(t, 1)
	path, fileBytes := writeV3Graph(t, dir, "g1", h)

	reg := NewRegistry()
	if err := reg.RegisterMapped("g1", path); err != nil {
		t.Fatal(err)
	}

	// Registration must not activate: the graph is cold, described from
	// its header alone.
	info, ok := reg.Info("g1")
	if !ok {
		t.Fatal("registered graph missing from Info")
	}
	if info.Tier != "cold" || info.ResidentBytes != 0 || info.FileBytes != fileBytes {
		t.Fatalf("cold info wrong: %+v", info)
	}
	if info.NumVertices != h.NumVertices() || info.NumEdges != h.NumEdges() {
		t.Fatalf("cold info counts wrong: %+v", info)
	}
	if ts := reg.TierStats(); ts.Cold != 1 || ts.Resident != 0 || ts.Activations != 0 {
		t.Fatalf("cold tier stats wrong: %+v", ts)
	}

	// First acquire activates.
	g, v1, release, err := reg.Acquire("g1")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != h.NumEdges() {
		t.Fatalf("mapped graph has %d edges, want %d", g.NumEdges(), h.NumEdges())
	}
	if ts := reg.TierStats(); ts.Resident != 1 || ts.Cold != 0 || ts.Activations != 1 || ts.ResidentBytes != fileBytes {
		t.Fatalf("post-activation tier stats wrong: %+v", ts)
	}
	info, _ = reg.Info("g1")
	if info.Tier != "mapped" || info.FileBytes != fileBytes || info.ResidentBytes <= 0 {
		t.Fatalf("mapped info wrong: %+v", info)
	}
	if info.ResidentBytes >= fileBytes {
		t.Fatalf("mapped heap overhead (%d) should be well under the file size (%d)", info.ResidentBytes, fileBytes)
	}
	release()

	// A second acquire reuses the attachment.
	_, v2, release2, err := reg.Acquire("g1")
	if err != nil {
		t.Fatal(err)
	}
	release2()
	if v1 != v2 {
		t.Fatalf("re-acquire of a resident graph changed the version: %d vs %d", v1, v2)
	}
	if ts := reg.TierStats(); ts.Activations != 1 {
		t.Fatalf("re-acquire re-activated: %+v", ts)
	}

	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestResidencyEvictionUnderBudget(t *testing.T) {
	dir := t.TempDir()
	p1, b1 := writeV3Graph(t, dir, "g1", randomGraph(t, 1))
	p2, b2 := writeV3Graph(t, dir, "g2", randomGraph(t, 2))

	reg := NewRegistry()
	defer reg.Close()
	for name, p := range map[string]string{"g1": p1, "g2": p2} {
		if err := reg.RegisterMapped(name, p); err != nil {
			t.Fatal(err)
		}
	}
	// Budget fits exactly one of the two graphs.
	max := b1
	if b2 > max {
		max = b2
	}
	reg.SetResidentBudget(max)

	_, v1, rel, err := reg.Acquire("g1")
	if err != nil {
		t.Fatal(err)
	}
	rel()
	// Acquiring g2 pushes resident bytes past the budget; g1 (LRU) must go.
	_, _, rel, err = reg.Acquire("g2")
	if err != nil {
		t.Fatal(err)
	}
	rel()
	ts := reg.TierStats()
	if ts.Evictions != 1 || ts.Resident != 1 || ts.ResidentBytes != b2 {
		t.Fatalf("eviction did not land: %+v", ts)
	}
	if info, _ := reg.Info("g1"); info.Tier != "cold" {
		t.Fatalf("evicted graph should report cold, got %q", info.Tier)
	}

	// Re-acquiring the evicted graph re-activates it under a NEW version:
	// plans compiled against the old mapping must never be served against
	// the new one.
	_, v1b, rel, err := reg.Acquire("g1")
	if err != nil {
		t.Fatal(err)
	}
	rel()
	if v1b == v1 {
		t.Fatalf("re-activation kept version %d; plan-cache keys would alias the dead mapping", v1)
	}
	if ts := reg.TierStats(); ts.Activations != 3 || ts.Evictions != 2 {
		t.Fatalf("re-activation stats wrong: %+v", ts)
	}
}

func TestResidencyEvictionSparesInFlightRequests(t *testing.T) {
	dir := t.TempDir()
	h1 := randomGraph(t, 1)
	p1, b1 := writeV3Graph(t, dir, "g1", h1)
	p2, _ := writeV3Graph(t, dir, "g2", randomGraph(t, 2))

	reg := NewRegistry()
	defer reg.Close()
	reg.RegisterMapped("g1", p1)
	reg.RegisterMapped("g2", p2)
	reg.SetResidentBudget(b1) // one graph at a time

	g1, _, rel1, err := reg.Acquire("g1")
	if err != nil {
		t.Fatal(err)
	}
	// Evict g1 while the first request still holds it.
	_, _, rel2, err := reg.Acquire("g2")
	if err != nil {
		t.Fatal(err)
	}
	if ts := reg.TierStats(); ts.Evictions != 1 {
		t.Fatalf("expected g1 evicted, got %+v", ts)
	}
	// The mapping must stay valid until the in-flight release: walk the
	// whole edge set through the mapped arrays.
	total := 0
	for e := 0; e < g1.NumEdges(); e++ {
		total += len(g1.Edge(hgmatch.EdgeID(e)))
	}
	if total != h1.TotalArity() {
		t.Fatalf("evicted-but-held mapping corrupted: walked %d vertex refs, want %d", total, h1.TotalArity())
	}
	rel1()
	rel2()
}

func TestResidencyPromotionOnIngest(t *testing.T) {
	dir := t.TempDir()
	h := randomGraph(t, 3)
	path, _ := writeV3Graph(t, dir, "g", h)

	reg := NewRegistry()
	defer reg.Close()
	if err := reg.RegisterMapped("g", path); err != nil {
		t.Fatal(err)
	}
	s := New(reg, Config{})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// Serve once from the mapping.
	resp, err := http.Post(srv.URL+"/count", "application/json",
		strings.NewReader(`{"graph":"g","query":"v 0\nv 1\ne 0 1"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if info, _ := reg.Info("g"); info.Tier != "mapped" {
		t.Fatalf("expected mapped tier before ingest, got %q", info.Tier)
	}

	// Ingest promotes to the heap tier.
	resp, err = http.Post(srv.URL+"/graphs/g/edges", "application/x-ndjson",
		strings.NewReader(`{"op":"insert","vertices":[0,1]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest into mapped graph: status %d", resp.StatusCode)
	}
	info, _ := reg.Info("g")
	if info.Tier != "heap" {
		t.Fatalf("expected heap tier after ingest, got %q", info.Tier)
	}
	ts := reg.TierStats()
	if ts.Promotions != 1 || ts.Resident != 0 || ts.ResidentBytes != 0 {
		t.Fatalf("promotion stats wrong: %+v", ts)
	}

	// The promoted graph serves the ingested edge and is pinned: a budget
	// of one byte must not evict it.
	reg.SetResidentBudget(1)
	g, _, rel, err := reg.Acquire("g")
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	if _, ok := g.FindEdge([]uint32{0, 1}); !ok {
		t.Fatal("ingested edge missing after promotion")
	}
	if g.NumEdges() != h.NumEdges()+1 {
		t.Fatalf("promoted graph has %d edges, want %d", g.NumEdges(), h.NumEdges()+1)
	}
	if ts := reg.TierStats(); ts.Evictions != 0 {
		t.Fatalf("promoted graph was evicted: %+v", ts)
	}
}

func TestResidencyPlanPurgeOnEviction(t *testing.T) {
	dir := t.TempDir()
	p1, b1 := writeV3Graph(t, dir, "g1", randomGraph(t, 1))
	p2, _ := writeV3Graph(t, dir, "g2", randomGraph(t, 2))

	reg := NewRegistry()
	reg.RegisterMapped("g1", p1)
	reg.RegisterMapped("g2", p2)
	reg.SetResidentBudget(b1)
	s := New(reg, Config{})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	count := func(graph string) *http.Response {
		t.Helper()
		resp, err := http.Post(srv.URL+"/count", "application/json",
			strings.NewReader(fmt.Sprintf(`{"graph":%q,"query":"v 0\nv 1\ne 0 1"}`, graph)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/count %s: status %d", graph, resp.StatusCode)
		}
		return resp
	}

	count("g1")
	if size, _, _ := s.plans.Stats(); size != 1 {
		t.Fatalf("expected 1 cached plan, have %d", size)
	}
	count("g2") // evicts g1, which must purge g1's plans
	if size, _, _ := s.plans.Stats(); size != 1 {
		t.Fatalf("eviction did not purge the evicted graph's plans: cache holds %d", size)
	}
	// Back to g1: fresh activation, fresh compile — and a correct answer.
	if resp := count("g1"); resp.Header.Get("X-Plan-Cache") != "miss" {
		t.Fatal("plan for a re-activated graph must be recompiled")
	}
}

// TestResidencyConcurrentChurn hammers Acquire/Info/TierStats across three
// mapped graphs under a budget that fits only one, so activation and
// eviction race constantly. Run under -race in CI.
func TestResidencyConcurrentChurn(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry()
	defer reg.Close()
	var maxBytes int64
	names := []string{"g1", "g2", "g3"}
	for i, name := range names {
		p, b := writeV3Graph(t, dir, name, randomGraph(t, int64(i+1)))
		if err := reg.RegisterMapped(name, p); err != nil {
			t.Fatal(err)
		}
		if b > maxBytes {
			maxBytes = b
		}
	}
	reg.SetResidentBudget(maxBytes)

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 60; i++ {
				name := names[rng.Intn(len(names))]
				g, _, rel, err := reg.Acquire(name)
				if err != nil {
					t.Errorf("acquire %s: %v", name, err)
					return
				}
				// Touch the mapping: the pages must stay valid for the
				// whole hold, whatever the evictor does meanwhile.
				for e := 0; e < g.NumEdges(); e += 7 {
					_ = g.Edge(hgmatch.EdgeID(e))
				}
				rel()
				if i%10 == 0 {
					reg.Info(name)
					reg.TierStats()
				}
			}
		}(w)
	}
	wg.Wait()

	// Steady state: resident accounting must balance what is attached.
	ts := reg.TierStats()
	var attached int64
	for _, name := range names {
		if info, _ := reg.Info(name); info.Tier == "mapped" {
			attached += info.FileBytes
		}
	}
	if ts.ResidentBytes != attached {
		t.Fatalf("resident accounting drifted: counter %d, attached %d", ts.ResidentBytes, attached)
	}
	if ts.ResidentBytes > maxBytes {
		t.Fatalf("resident %d exceeds budget %d after quiescence", ts.ResidentBytes, maxBytes)
	}
}

func TestResidencyRegisterMappedRejections(t *testing.T) {
	dir := t.TempDir()
	h := hgtest.Fig1Data()
	v2 := filepath.Join(dir, "g.hgb2")
	if err := hgio.WriteBinaryFile(v2, h); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	if err := reg.RegisterMapped("g", v2); err == nil {
		t.Fatal("RegisterMapped accepted a v2 file")
	}

	durable := NewRegistry()
	if err := durable.EnableDurability(DurabilityConfig{Dir: t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	p3, _ := writeV3Graph(t, dir, "g3", h)
	if err := durable.RegisterMapped("g", p3); err == nil {
		t.Fatal("RegisterMapped accepted a durable registry")
	}
	durable.Close()
}

// sortedEmbeddings canonicalises a /match NDJSON body: the embedding
// lines sorted bytewise (worker interleaving is nondeterministic), with
// the summary line dropped (it carries timings).
func sortedEmbeddings(t *testing.T, body []byte) []string {
	t.Helper()
	var lines []string
	for _, line := range bytes.Split(bytes.TrimSpace(body), []byte("\n")) {
		if bytes.Contains(line, []byte(`"done":true`)) {
			continue
		}
		lines = append(lines, string(line))
	}
	sort.Strings(lines)
	return lines
}

// TestResidencyGoldenEquivalence pins the zero-copy path to the heap
// path: the same /match must produce byte-identical embedding sets
// whether the graph was loaded from binary v2 onto the heap, from binary
// v3 onto the heap, or served straight off the v3 mapping — and again
// after an identical ingest (which promotes the mapped graph).
func TestResidencyGoldenEquivalence(t *testing.T) {
	h, err := hgmatch.Load(strings.NewReader(fig1DataText))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	v2 := filepath.Join(dir, "g.hgb2")
	if err := hgio.WriteBinaryFile(v2, h); err != nil {
		t.Fatal(err)
	}
	v3, _ := writeV3Graph(t, dir, "g", h)

	type variant struct {
		name string
		srv  *httptest.Server
	}
	mk := func(register func(reg *Registry) error) *httptest.Server {
		reg := NewRegistry()
		if err := register(reg); err != nil {
			t.Fatal(err)
		}
		s := New(reg, Config{})
		t.Cleanup(s.Close)
		srv := httptest.NewServer(s.Handler())
		t.Cleanup(srv.Close)
		return srv
	}
	variants := []variant{
		{"heap-v2", mk(func(r *Registry) error { return r.LoadFile("g", v2) })},
		{"heap-v3", mk(func(r *Registry) error { return r.LoadFile("g", v3) })},
		{"mmap-v3", mk(func(r *Registry) error { return r.RegisterMapped("g", v3) })},
	}

	match := func(srv *httptest.Server) []string {
		t.Helper()
		req := hgio.MatchRequest{Graph: "g", Query: fig1QueryText}
		resp, err := http.Post(srv.URL+"/match", "application/json", matchBody(t, req))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/match: status %d", resp.StatusCode)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return sortedEmbeddings(t, buf.Bytes())
	}

	golden := match(variants[0].srv)
	if len(golden) == 0 {
		t.Fatal("golden run produced no embeddings; the equivalence check would be vacuous")
	}
	for _, v := range variants[1:] {
		got := match(v.srv)
		if strings.Join(got, "\n") != strings.Join(golden, "\n") {
			t.Fatalf("%s diverges from heap-v2:\n%v\nwant:\n%v", v.name, got, golden)
		}
	}

	// Identical ingest into every variant (promoting the mapped one);
	// results must stay byte-identical.
	for _, v := range variants {
		resp, err := http.Post(v.srv.URL+"/graphs/g/edges", "application/x-ndjson",
			strings.NewReader(`{"op":"insert","vertices":[0,3]}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s ingest: status %d", v.name, resp.StatusCode)
		}
	}
	golden = match(variants[0].srv)
	for _, v := range variants[1:] {
		got := match(v.srv)
		if strings.Join(got, "\n") != strings.Join(golden, "\n") {
			t.Fatalf("%s diverges from heap-v2 after ingest:\n%v\nwant:\n%v", v.name, got, golden)
		}
	}
}

// TestShardRegistryCloseDrainsInflight pins Close ordering: a handler holds
// its Acquire reference for the whole engine run, so Close must block until
// every reference is released before tearing down the registry's residency
// state.
func TestShardRegistryCloseDrainsInflight(t *testing.T) {
	h, _ := hgmatch.Load(strings.NewReader(fig1DataText))
	reg := NewRegistry()
	reg.Add("fig1", h)
	_, _, release, err := reg.Acquire("fig1")
	if err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	go func() {
		reg.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while an Acquire reference was outstanding")
	case <-time.After(30 * time.Millisecond):
	}
	release()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Close still blocked after the last reference was released")
	}
	// Releases are idempotent: a handler's defer after an explicit release
	// must not panic or double-count.
	release()
}

// TestShardRegistryCloseRejectsNewAcquires: once Close begins, new
// Acquires must fail (the no-requests-after-Close contract is enforced, not
// just documented) — otherwise an Acquire racing the drain could Add to the
// inflight WaitGroup after Wait observed zero (WaitGroup reuse panic) or
// take a mapped reference Close is about to release. The hammer loop runs
// under -race in CI.
func TestShardRegistryCloseRejectsNewAcquires(t *testing.T) {
	h, _ := hgmatch.Load(strings.NewReader(fig1DataText))
	reg := NewRegistry()
	reg.Add("fig1", h)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for j := 0; j < 200; j++ {
				_, _, release, err := reg.Acquire("fig1")
				if err != nil {
					return // registry closed under us: the expected refusal
				}
				release()
			}
		}()
	}
	close(start)
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if _, _, _, err := reg.Acquire("fig1"); err == nil {
		t.Fatal("Acquire after Close succeeded")
	}
}
