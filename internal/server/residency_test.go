package server

import (
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
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
	if err := reg.LoadFile("g1", path); err != nil {
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
		if err := reg.LoadFile(name, p); err != nil {
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
	reg.LoadFile("g1", p1)
	reg.LoadFile("g2", p2)
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
	path, _ := writeV3Graph(t, dir, "g", randomGraph(t, 3))

	reg := NewRegistry()
	defer reg.Close()
	if err := reg.LoadFile("g", path); err != nil {
		t.Fatal(err)
	}
	s := New(reg, Config{})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// Serve once from the mapping.
	postCount(t, srv.URL, hgio.MatchRequest{Graph: "g", Query: "v 0\nv 1\ne 0 1"})
	if info, _ := reg.Info("g"); info.Tier != "mapped" {
		t.Fatalf("expected mapped tier before ingest, got %q", info.Tier)
	}

	// Ingest promotes to the heap tier.
	if resp, _ := postJSON(t, srv, "/graphs/g/edges", `{"op":"insert","vertices":[0,1]}`); resp.StatusCode != http.StatusOK {
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

	// The promoted graph is pinned: a budget of one byte must not evict
	// it. (What it answers is TestAnswerMatrix's promoted-v3 cell.)
	reg.SetResidentBudget(1)
	_, _, rel, err := reg.Acquire("g")
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	if ts := reg.TierStats(); ts.Evictions != 0 {
		t.Fatalf("promoted graph was evicted: %+v", ts)
	}
}

func TestResidencyPlanPurgeOnEviction(t *testing.T) {
	dir := t.TempDir()
	p1, b1 := writeV3Graph(t, dir, "g1", randomGraph(t, 1))
	p2, _ := writeV3Graph(t, dir, "g2", randomGraph(t, 2))

	reg := NewRegistry()
	reg.LoadFile("g1", p1)
	reg.LoadFile("g2", p2)
	reg.SetResidentBudget(b1)
	s := New(reg, Config{})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	count := func(graph string) string {
		t.Helper()
		_, cache := postCount(t, srv.URL, hgio.MatchRequest{Graph: graph, Query: "v 0\nv 1\ne 0 1"})
		return cache
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
	if count("g1") != "miss" {
		t.Fatal("plan for a re-activated graph must be recompiled")
	}
}

// TestResidencyConcurrentChurn hammers Acquire/Info/TierStats across three
// mapped graphs under a budget that fits only one, so activation and
// eviction race constantly, and promotes one graph to the heap mid-churn,
// so a promotion's detach races the evictor's. Run under -race in CI.
func TestResidencyConcurrentChurn(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry()
	var maxBytes int64
	names := []string{"g1", "g2", "g3"}
	for i, name := range names {
		p, b := writeV3Graph(t, dir, name, randomGraph(t, int64(i+1)))
		if err := reg.LoadFile(name, p); err != nil {
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
				if w == 0 && i == 30 {
					e, _ := reg.entry("g3")
					if _, err := reg.ensureLive("g3", e); err != nil {
						t.Errorf("promote g3: %v", err)
					}
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
	if info, _ := reg.Info("g3"); info.Tier != "heap" || ts.Promotions != 1 {
		t.Fatalf("g3 not promoted: tier %q, %+v", info.Tier, ts)
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	if ts := reg.TierStats(); ts.ResidentBytes != 0 || ts.Resident != 0 {
		t.Fatalf("Close left mappings attached: %+v", ts)
	}
}

// TestResidencyRetiredEntryNeverMaps parks an Acquire between loading a
// cold entry and pinning it, first across a replacement of the graph and
// then across Close. Nothing detaches a mapping attached to an entry that
// install or Close already tore down, so the parked Acquire must retry on
// the replacement (and serve it) or fail as shut down — never map the
// retired entry. ResidentBytes must equal the live entry's file bytes and
// reach 0 after Close.
func TestResidencyRetiredEntryNeverMaps(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry()
	p1, _ := writeV3Graph(t, dir, "old", randomGraph(t, 1))
	want := randomGraph(t, 2)
	p2, b2 := writeV3Graph(t, dir, "new", want)
	if err := reg.LoadFile("g", p1); err != nil {
		t.Fatal(err)
	}
	// parkAcquire starts an Acquire of g, runs between while it is parked
	// before pin, and returns what the Acquire returned.
	parkAcquire := func(between func()) (*hgmatch.Hypergraph, func(), error) {
		parked, resume := make(chan struct{}), make(chan struct{})
		var once sync.Once
		reg.beforePin = func() { once.Do(func() { close(parked); <-resume }) }
		defer func() { reg.beforePin = nil }()
		type result struct {
			g   *hgmatch.Hypergraph
			rel func()
			err error
		}
		done := make(chan result, 1)
		go func() {
			g, _, rel, err := reg.Acquire("g")
			done <- result{g, rel, err}
		}()
		<-parked
		between()
		close(resume)
		res := <-done
		return res.g, res.rel, res.err
	}

	g, rel, err := parkAcquire(func() {
		if err := reg.LoadFile("g", p2); err != nil {
			t.Fatal(err)
		}
	})
	if err != nil {
		t.Fatalf("Acquire across a replacement: %v", err)
	}
	if g.NumEdges() != want.NumEdges() {
		t.Fatalf("Acquire across a replacement served %d edges, the replacement has %d", g.NumEdges(), want.NumEdges())
	}
	for e := 0; e < g.NumEdges(); e++ {
		if !slices.Equal(g.Edge(hgmatch.EdgeID(e)), want.Edge(hgmatch.EdgeID(e))) {
			t.Fatalf("edge %d: Acquire across a replacement served the replaced graph", e)
		}
	}
	rel()
	if ts := reg.TierStats(); ts.ResidentBytes != b2 || ts.Resident != 1 {
		t.Fatalf("after the replacement: resident %d bytes in %d graphs, want %d in 1", ts.ResidentBytes, ts.Resident, b2)
	}

	if _, _, err := parkAcquire(func() {
		if err := reg.Close(); err != nil {
			t.Fatal(err)
		}
	}); !errors.Is(err, errRegistryClosed) {
		t.Fatalf("Acquire across Close: %v, want %v", err, errRegistryClosed)
	}
	if ts := reg.TierStats(); ts.ResidentBytes != 0 || ts.Resident != 0 {
		t.Fatalf("Close left mappings attached: %+v", ts)
	}
}

// TestResidencyFileRouting pins LoadFile's routing: the file picks the
// tier. Text and HGB2 files load onto the heap and an HGB3 file registers
// cold. (With durability on, an HGB3 file is recovered onto the heap with
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
	for name, tier := range map[string]string{"text": "heap", "v2": "heap", "v3": "cold"} {
		if info, _ := reg.Info(name); info.Tier != tier || info.NumEdges != h.NumEdges() {
			t.Fatalf("%s registered as %q with %d edges, want %q with %d", name, info.Tier, info.NumEdges, tier, h.NumEdges())
		}
	}
	if ts := reg.TierStats(); ts.Cold != 1 || ts.Activations != 0 {
		t.Fatalf("routing tier stats wrong: %+v", ts)
	}
	if err := reg.LoadFile("missing", filepath.Join(dir, "nope")); err == nil {
		t.Fatal("LoadFile accepted a missing file")
	}
	reg.Close()
}

// TestRegistryCloseDrainsInflight pins Close ordering: a handler holds
// its Acquire reference for the whole engine run, so Close must block until
// every reference is released before tearing down the registry's residency
// state.
func TestRegistryCloseDrainsInflight(t *testing.T) {
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

// TestRegistryCloseRejectsNewAcquires: once Close begins, new
// Acquires must fail (the no-requests-after-Close contract is enforced, not
// just documented) — otherwise an Acquire racing the drain could Add to the
// inflight WaitGroup after Wait observed zero (WaitGroup reuse panic) or
// take a mapped reference Close is about to release. The hammer loop runs
// under -race in CI.
func TestRegistryCloseRejectsNewAcquires(t *testing.T) {
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
