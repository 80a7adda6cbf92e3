package server

import (
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
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

	// A failed attach is an error, not a fallback: the graph stays cold,
	// nothing is counted, and the next Acquire retries the file.
	badPath, _ := writeV3Graph(t, dir, "bad", h)
	image, err := os.ReadFile(badPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.LoadFile("bad", badPath); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(badPath, int64(len(image)/2)); err != nil {
		t.Fatal(err)
	}
	before := reg.TierStats()
	if _, _, _, err := reg.Acquire("bad"); err == nil {
		t.Fatal("Acquire attached a truncated file")
	}
	s := New(reg, Config{})
	defer s.Close()
	rr := post(s.Handler(), "/count", `{"graph":"bad","query":"v 0\nv 1\ne 0 1"}`)
	var body hgio.ErrorResponse
	if rr.Code < 500 || json.Unmarshal(rr.Body.Bytes(), &body) != nil || body.Error == "" {
		t.Fatalf("/count on a truncated file: %d %s, want a 5xx with a JSON error", rr.Code, rr.Body)
	}
	if info, _ := reg.Info("bad"); info.Tier != "cold" {
		t.Fatalf("a failed attach left the graph %q, want cold", info.Tier)
	}
	if ts := reg.TierStats(); ts.Activations != before.Activations || ts.ResidentBytes != before.ResidentBytes {
		t.Fatalf("a failed attach moved the counters: %+v, before %+v", ts, before)
	}
	if err := os.WriteFile(badPath, image, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, rel, err := reg.Acquire("bad")
	if err != nil {
		t.Fatalf("Acquire after the file was restored: %v", err)
	}
	rel()
	if info, _ := reg.Info("bad"); info.Tier != "mapped" {
		t.Fatalf("restored file attached as %q, want mapped", info.Tier)
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
	h := randomGraph(t, 3)
	path, fileBytes := writeV3Graph(t, dir, "g", h)

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

	// Ingest writes a delta over the mapping: the graph stays mapped.
	if resp, _ := postJSON(t, srv, "/graphs/g/edges", `{"op":"insert","vertices":[0,1]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest into mapped graph: status %d", resp.StatusCode)
	}
	info, _ := reg.Info("g")
	if info.Tier != "mapped" {
		t.Fatalf("expected mapped tier after ingest, got %q", info.Tier)
	}
	ts := reg.TierStats()
	if ts.Promotions != 1 || ts.Resident != 1 || ts.ResidentBytes != fileBytes {
		t.Fatalf("promotion stats wrong: %+v", ts)
	}

	// The written graph is pinned: a budget of one byte must not evict
	// it, not even to make room for another graph, which goes instead at
	// g's next Acquire. (What g answers is TestAnswerMatrix's promoted-v3
	// cell.)
	reg.SetResidentBudget(1)
	g, _, rel, err := reg.Acquire("g")
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	if err := reg.LoadFile("other", path); err != nil {
		t.Fatal(err)
	}
	snapshotOf(t, reg, "other")
	if ts := reg.TierStats(); ts.Evictions != 0 {
		t.Fatalf("written graph was evicted: %+v", ts)
	}
	snapshotOf(t, reg, "g")
	if ts := reg.TierStats(); ts.Evictions != 1 || ts.Resident != 1 || ts.ResidentBytes != fileBytes {
		t.Fatalf("the unwritten graph was not evicted for the written one: %+v", ts)
	}

	// A compaction carrying a delta folds it into a heap base and drops
	// the mapping, while the snapshot acquired before it still walks
	// every edge through the mapped arrays.
	if resp, body := postJSON(t, srv, "/graphs/g/compact", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("compact: status %d %s", resp.StatusCode, body)
	}
	if info, _ := reg.Info("g"); info.Tier != "heap" {
		t.Fatalf("expected heap tier after a folding compaction, got %q", info.Tier)
	}
	if ts := reg.TierStats(); ts.Resident != 0 || ts.ResidentBytes != 0 {
		t.Fatalf("a folding compaction left the mapping attached: %+v", ts)
	}
	total := 0
	for e := 0; e < g.NumEdges(); e++ {
		total += len(g.Edge(hgmatch.EdgeID(e)))
	}
	// The insert added one pair, unless the random graph already held it.
	if want := h.TotalArity() + 2*(g.NumEdges()-h.NumEdges()); total != want {
		t.Fatalf("held snapshot walked %d vertex refs, want %d", total, want)
	}

	// An idle compaction keeps the mapped base, and with it the mapping.
	snapshotOf(t, reg, "other")
	if resp, body := postJSON(t, srv, "/graphs/other/compact", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("idle compact: status %d %s", resp.StatusCode, body)
	}
	if info, _ := reg.Info("other"); info.Tier != "mapped" {
		t.Fatalf("expected mapped tier after an idle compaction, got %q", info.Tier)
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
// eviction race constantly, and opens one graph for writing mid-churn, so
// marking it written races the evictor. Run under -race in CI.
func TestResidencyConcurrentChurn(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry()
	var maxBytes, g3Bytes int64
	names := []string{"g1", "g2", "g3"}
	for i, name := range names {
		p, b := writeV3Graph(t, dir, name, randomGraph(t, int64(i+1)))
		if err := reg.LoadFile(name, p); err != nil {
			t.Fatal(err)
		}
		if b > maxBytes {
			maxBytes = b
		}
		g3Bytes = b
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
					if _, rel, err := reg.ensureLive("g3", e); err != nil {
						t.Errorf("promote g3: %v", err)
					} else {
						rel()
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
	// The written g3 is never evicted, so only the others answer to the
	// budget.
	if ts.ResidentBytes-g3Bytes > maxBytes {
		t.Fatalf("resident %d (g3 %d) exceeds budget %d after quiescence", ts.ResidentBytes, g3Bytes, maxBytes)
	}
	if info, _ := reg.Info("g3"); info.Tier != "mapped" || ts.Promotions != 1 {
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
// retired entry. A writer holding the replaced entry's buffer keeps the
// old mapping until its own release. ResidentBytes must equal the live
// entry's file bytes and reach 0 after Close.
func TestResidencyRetiredEntryNeverMaps(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry()
	old := randomGraph(t, 1)
	p1, _ := writeV3Graph(t, dir, "old", old)
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

	// A writer holds the old entry's buffer, whose base is the old mapping.
	e, _ := reg.entry("g")
	writer, release, err := reg.ensureLive("g", e)
	if err != nil {
		t.Fatal(err)
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

	// The replacement retired the writer's entry, but the writer's
	// reference keeps the old mapping: its buffer still takes a write and
	// publishes a snapshot that walks through the mapped arrays.
	if _, _, err := writer.Insert(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	snap := writer.Publish()
	total := 0
	for e := 0; e < snap.NumEdges(); e++ {
		total += len(snap.Edge(hgmatch.EdgeID(e)))
	}
	if want := old.TotalArity() + 3*(snap.NumEdges()-old.NumEdges()); total != want {
		t.Fatalf("writer's snapshot walked %d vertex refs, want %d", total, want)
	}
	release()
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

// TestRegistryCloseUnmapsOnLastRelease pins Close ordering: Close does not
// wait for in-flight requests. A handler holds its Acquire reference for
// the whole engine run, so a mapping it holds must stay valid after Close
// returns and go only with the handler's release.
func TestRegistryCloseUnmapsOnLastRelease(t *testing.T) {
	h := randomGraph(t, 1)
	path, _ := writeV3Graph(t, t.TempDir(), "g", h)
	reg := NewRegistry()
	if err := reg.LoadFile("g", path); err != nil {
		t.Fatal(err)
	}
	g, _, release, err := reg.Acquire("g")
	if err != nil {
		t.Fatal(err)
	}
	closed := make(chan error, 1)
	go func() { closed <- reg.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close blocked on an outstanding Acquire reference")
	}
	total := 0
	for e := 0; e < g.NumEdges(); e++ {
		total += len(g.Edge(hgmatch.EdgeID(e)))
	}
	if total != h.TotalArity() {
		t.Fatalf("held mapping corrupted after Close: walked %d vertex refs, want %d", total, h.TotalArity())
	}
	release()
	if ts := reg.TierStats(); ts.ResidentBytes != 0 || ts.Resident != 0 {
		t.Fatalf("Close left mappings attached: %+v", ts)
	}
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

// TestRegistryCloseRejectsNewAcquires: once Close begins, new
// Acquires must fail (the no-requests-after-Close contract is enforced, not
// just documented). The hammer loop runs under -race in CI.
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
