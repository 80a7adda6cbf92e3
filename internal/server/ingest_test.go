package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"

	"hgmatch"
	"hgmatch/internal/hgio"
	"hgmatch/internal/hgtest"
	"hgmatch/internal/hypergraph"
)

func postJSON(t testing.TB, ts *httptest.Server, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestIngestEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// fig1 has 6 edges and 7 vertices; {0,3} is new, {2,4} is a duplicate
	// of edge 0, and one delete removes edge 1 ({4,6}).
	body := `{"op":"insert","vertices":[0,3]}
{"vertices":[2,4]}
{"op":"delete","vertices":[4,6]}
{"op":"add_vertex","label_name":"B"}
`
	resp, raw := postJSON(t, ts, "/graphs/fig1/edges", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d: %s", resp.StatusCode, raw)
	}
	var sum hgio.IngestSummary
	if err := json.Unmarshal(raw, &sum); err != nil {
		t.Fatal(err)
	}
	if !sum.Done || sum.Lines != 4 || sum.Inserted != 1 || sum.Duplicates != 1 ||
		sum.Deleted != 1 || sum.VerticesAdded != 1 {
		t.Fatalf("ingest summary off: %+v", sum)
	}
	if sum.PendingEdges != 1 || sum.DeadEdges != 1 || sum.Version == 0 {
		t.Fatalf("delta accounting off: %+v", sum)
	}

	// Stats reflect the published snapshot.
	resp, raw = postJSON(t, ts, "/graphs/fig1/compact", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compact status %d: %s", resp.StatusCode, raw)
	}
	var cs hgio.CompactSummary
	if err := json.Unmarshal(raw, &cs); err != nil {
		t.Fatal(err)
	}
	if !cs.Done || cs.Edges != 6 || cs.FoldedEdges != 1 || cs.Dropped != 1 || cs.Version <= sum.Version {
		t.Fatalf("compact summary off: %+v (ingest version %d)", cs, sum.Version)
	}

	// Unknown graph and malformed records are client errors.
	resp, _ = postJSON(t, ts, "/graphs/nope/edges", `{"vertices":[0,1]}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown graph: status %d", resp.StatusCode)
	}
	// A mid-batch failure returns 400 carrying the partial summary: the
	// valid line before the bad op was applied and published.
	resp, raw = postJSON(t, ts, "/graphs/fig1/edges", `{"vertices":[3,6]}
{"op":"frobnicate"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad op: status %d: %s", resp.StatusCode, raw)
	}
	var partial hgio.IngestSummary
	if err := json.Unmarshal(raw, &partial); err != nil {
		t.Fatal(err)
	}
	if partial.Done || partial.Error == "" || partial.Inserted != 1 {
		t.Fatalf("partial-failure summary off: %+v", partial)
	}
	resp, raw = postJSON(t, ts, "/graphs/fig1/edges", `{"op":"insert","vertices":[99]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown vertex: status %d: %s", resp.StatusCode, raw)
	}
}

// TestIngestPublishesOnce: a bulk request publishes exactly one snapshot,
// including when records resolve dictionary label names.
func TestIngestPublishesOnce(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"op":"add_vertex","label_name":"A"}
{"op":"add_vertex","label_name":"B"}
{"op":"add_vertex","label_name":"C"}
{"op":"insert","vertices":[0,7]}
`
	resp, raw := postJSON(t, ts, "/graphs/fig1/edges", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d: %s", resp.StatusCode, raw)
	}
	var sum hgio.IngestSummary
	if err := json.Unmarshal(raw, &sum); err != nil {
		t.Fatal(err)
	}
	if sum.VerticesAdded != 3 || sum.Inserted != 1 {
		t.Fatalf("summary off: %+v", sum)
	}
	if delta := sum.Version & 0xffffffff; delta != 1 {
		t.Fatalf("bulk request published %d snapshots, want 1", delta)
	}
}

// sortedMatchLines runs POST /match and returns the embedding lines sorted
// (stream order is nondeterministic across workers) plus the summary.
func sortedMatchLines(t testing.TB, ts *httptest.Server, req hgio.MatchRequest) ([]string, hgio.MatchSummary) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/match", "application/json", matchBody(t, req))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/match status %d", resp.StatusCode)
	}
	var lines []string
	var summary hgio.MatchSummary
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		var probe struct {
			Done bool `json:"done"`
		}
		if err := json.Unmarshal([]byte(line), &probe); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		if probe.Done {
			if err := json.Unmarshal([]byte(line), &summary); err != nil {
				t.Fatal(err)
			}
			continue
		}
		lines = append(lines, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	sort.Strings(lines)
	return lines, summary
}

// graphText renders a hypergraph in hgio text format for registration.
func graphText(t testing.TB, h *hgmatch.Hypergraph) string {
	t.Helper()
	var buf bytes.Buffer
	if err := hgio.Write(&buf, h); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestIngestMatchGolden is the acceptance golden test: /match responses on
// a graph grown by N online inserts are byte-identical (modulo stream
// order) to a cold offline build of the same edge set — before and after
// compaction.
func TestIngestMatchGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cold := hgtest.RandomHypergraph(rng, hgtest.RandomConfig{
		NumVertices: 50, NumEdges: 160, NumLabels: 3, MaxArity: 4,
	})
	nb := cold.NumEdges() / 2

	b := hgmatch.NewBuilder()
	for v := 0; v < cold.NumVertices(); v++ {
		b.AddVertex(cold.Label(uint32(v)))
	}
	for e := 0; e < nb; e++ {
		b.AddEdge(cold.Edge(hgmatch.EdgeID(e))...)
	}
	base, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	reg := NewRegistry()
	if err := reg.Add("live", base); err != nil {
		t.Fatal(err)
	}
	if err := reg.Add("cold", cold); err != nil {
		t.Fatal(err)
	}
	s := New(reg, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Stream the second half in as one NDJSON bulk ingest.
	var ingest strings.Builder
	for e := nb; e < cold.NumEdges(); e++ {
		rec := hgio.IngestRecord{Op: "insert", Vertices: cold.Edge(hgmatch.EdgeID(e))}
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		ingest.Write(line)
		ingest.WriteByte('\n')
	}
	resp, raw := postJSON(t, ts, "/graphs/live/edges", ingest.String())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bulk ingest status %d: %s", resp.StatusCode, raw)
	}
	var sum hgio.IngestSummary
	if err := json.Unmarshal(raw, &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Inserted != cold.NumEdges()-nb {
		t.Fatalf("ingested %d of %d edges: %+v", sum.Inserted, cold.NumEdges()-nb, sum)
	}

	compareQueries := func(stage string) {
		t.Helper()
		compared := 0
		for i := 0; i < 24 && compared < 6; i++ {
			q := hgtest.ConnectedQueryFromWalk(rng, cold, 2+rng.Intn(2))
			if q == nil {
				continue
			}
			qText := graphText(t, q)
			wantLines, wantSum := sortedMatchLines(t, ts, hgio.MatchRequest{Graph: "cold", Query: qText})
			if len(wantLines) == 0 {
				continue
			}
			compared++
			gotLines, gotSum := sortedMatchLines(t, ts, hgio.MatchRequest{Graph: "live", Query: qText})
			if strings.Join(gotLines, "\n") != strings.Join(wantLines, "\n") {
				t.Fatalf("%s: query %d: live stream diverges from cold (%d vs %d lines)",
					stage, i, len(gotLines), len(wantLines))
			}
			if gotSum.Embeddings != wantSum.Embeddings ||
				fmt.Sprint(gotSum.Order) != fmt.Sprint(wantSum.Order) {
				t.Fatalf("%s: query %d: summaries diverge: %+v vs %+v", stage, i, gotSum, wantSum)
			}
		}
		if compared == 0 {
			t.Fatalf("%s: no non-empty queries sampled; fixture needs retuning", stage)
		}
	}

	compareQueries("delta")

	resp, raw = postJSON(t, ts, "/graphs/live/compact", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compact status %d: %s", resp.StatusCode, raw)
	}
	compareQueries("compacted")
}

// TestIngestInvalidatesPlanCache: after an ingest, a repeated query misses
// the plan cache (version moved) and sees the new edge.
func TestIngestInvalidatesPlanCache(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// "v A / v A / e 0 1" matches pairs of A-labelled vertices sharing an
	// edge; fig1 has none of signature (A,A) initially.
	q := "v A\nv A\ne 0 1"
	lines, sum := sortedMatchLines(t, ts, hgio.MatchRequest{Graph: "fig1", Query: q})
	if len(lines) != 0 || sum.Embeddings != 0 {
		t.Fatalf("expected no (A,A) edges before ingest: %v", lines)
	}
	// Warm the cache, then ingest an (A,A) edge: vertices 0 and 2 are A.
	if _, sum2 := sortedMatchLines(t, ts, hgio.MatchRequest{Graph: "fig1", Query: q}); !sum2.PlanCached {
		t.Fatal("second identical query should hit the plan cache")
	}
	resp, raw := postJSON(t, ts, "/graphs/fig1/edges", `{"vertices":[0,2]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d: %s", resp.StatusCode, raw)
	}
	lines, sum = sortedMatchLines(t, ts, hgio.MatchRequest{Graph: "fig1", Query: q})
	if sum.PlanCached {
		t.Fatal("post-ingest query served a stale cached plan")
	}
	if len(lines) != 1 || sum.Embeddings != 1 {
		t.Fatalf("ingested edge invisible to /match: %v (%+v)", lines, sum)
	}
}

// TestAutoCompaction: with a threshold configured, ingest triggers a
// background compaction that empties the delta.
func TestAutoCompaction(t *testing.T) {
	s := newTestServer(t, Config{CompactThreshold: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"vertices":[0,3]}
{"vertices":[0,6]}
{"vertices":[1,3]}
`
	resp, raw := postJSON(t, ts, "/graphs/fig1/edges", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d: %s", resp.StatusCode, raw)
	}
	var sum hgio.IngestSummary
	if err := json.Unmarshal(raw, &sum); err != nil {
		t.Fatal(err)
	}
	if !sum.Compacting {
		t.Fatalf("threshold crossed but no compaction scheduled: %+v", sum)
	}
	s.WaitCompactions()
	live, _ := s.Graphs().Live("fig1")
	if live.PendingEdges() != 0 {
		t.Fatalf("background compaction left %d pending edges", live.PendingEdges())
	}
	if h, _ := s.Graphs().Get("fig1"); h.HasDelta() || h.NumEdges() != 9 {
		t.Fatalf("compacted graph shape off: delta=%v edges=%d", h.HasDelta(), h.NumEdges())
	}
}

// TestConcurrentIngestAndMatchHTTP exercises the full HTTP stack under
// concurrent ingest and match traffic (run with -race in CI).
func TestConcurrentIngestAndMatchHTTP(t *testing.T) {
	s := newTestServer(t, Config{CompactThreshold: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 30; i++ {
				line := fmt.Sprintf(`{"vertices":[%d,%d]}`, r.Intn(7), r.Intn(7))
				resp, err := http.Post(ts.URL+"/graphs/fig1/edges", "application/x-ndjson", strings.NewReader(line))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
			}
		}(int64(w + 1))
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				_, sum := sortedMatchLines(t, ts, hgio.MatchRequest{Graph: "fig1", Query: fig1QueryText})
				if !sum.Done {
					t.Error("match stream missing summary")
					return
				}
			}
		}()
	}
	wg.Wait()
	s.WaitCompactions()
	if h, _ := s.Graphs().Get("fig1"); h.Validate() != nil {
		t.Fatalf("settled graph invalid: %v", h.Validate())
	}
}

// TestIngestMatchGoldenDense is TestIngestMatchGolden on a graph dense
// enough to activate the bitmap posting-container sidecar (one label,
// small arities, hundreds of edges per signature table): /match responses
// must stay byte-identical (modulo stream order) across three servings of
// the same edge set — a cold offline build (sidecars on), the same build
// with sidecars stripped (the pre-hybrid array-only path), and a live
// graph grown by online ingest — before and after compaction.
func TestIngestMatchGoldenDense(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cold := hgtest.RandomHypergraph(rng, hgtest.RandomConfig{
		NumVertices: 30, NumEdges: 420, NumLabels: 1, MaxArity: 3,
	})
	if s := hypergraph.ComputeStats(cold); s.BitmapVertices == 0 {
		t.Fatalf("fixture built no bitmap containers: %+v", s)
	}
	nb := cold.NumEdges() / 2

	b := hgmatch.NewBuilder()
	for v := 0; v < cold.NumVertices(); v++ {
		b.AddVertex(cold.Label(uint32(v)))
	}
	for e := 0; e < nb; e++ {
		b.AddEdge(cold.Edge(hgmatch.EdgeID(e))...)
	}
	base, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	reg := NewRegistry()
	if err := reg.Add("live", base); err != nil {
		t.Fatal(err)
	}
	if err := reg.Add("cold", cold); err != nil {
		t.Fatal(err)
	}
	if err := reg.Add("cold_arrays", cold.WithoutBitmapSidecars()); err != nil {
		t.Fatal(err)
	}
	// The plan cache is disabled: its canonical keys treat isomorphic
	// query texts as one entry, and with a single label the sampler
	// redraws isomorphic queries often — a cached plan's matching order
	// (numbered in the earlier text's edge IDs) would make the capped
	// single-worker streams diverge spuriously. Every request compiles
	// the exact text under test, so orders are deterministic per text. The
	// pool is one worker wide: a request's workers field only caps how many
	// pool workers attach at once, they still take turns from their own
	// deques, so "single-worker enumeration order is fixed" (below) holds
	// only on a pool of one.
	s := New(reg, Config{PlanCacheSize: -1, Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var ingest strings.Builder
	for e := nb; e < cold.NumEdges(); e++ {
		rec := hgio.IngestRecord{Op: "insert", Vertices: cold.Edge(hgmatch.EdgeID(e))}
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		ingest.Write(line)
		ingest.WriteByte('\n')
	}
	resp, raw := postJSON(t, ts, "/graphs/live/edges", ingest.String())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bulk ingest status %d: %s", resp.StatusCode, raw)
	}

	compareQueries := func(stage string) {
		t.Helper()
		compared := 0
		for i := 0; i < 24 && compared < 6; i++ {
			q := hgtest.ConnectedQueryFromWalk(rng, cold, 2+rng.Intn(2))
			if q == nil {
				continue
			}
			qText := graphText(t, q)
			// One worker + a result cap keep the comparison deterministic
			// AND fast: single-worker enumeration order is fixed, so the
			// capped prefix is the same for every serving of the edge set.
			req := hgio.MatchRequest{Graph: "cold", Query: qText, Workers: 1, Limit: 5000}
			wantLines, wantSum := sortedMatchLines(t, ts, req)
			if len(wantLines) == 0 {
				continue
			}
			compared++
			for _, g := range []string{"cold_arrays", "live"} {
				req.Graph = g
				gotLines, gotSum := sortedMatchLines(t, ts, req)
				if strings.Join(gotLines, "\n") != strings.Join(wantLines, "\n") {
					t.Fatalf("%s: query %d: %s stream diverges from cold (%d vs %d lines)",
						stage, i, g, len(gotLines), len(wantLines))
				}
				if gotSum.Embeddings != wantSum.Embeddings ||
					fmt.Sprint(gotSum.Order) != fmt.Sprint(wantSum.Order) {
					t.Fatalf("%s: query %d: %s summaries diverge: %+v vs %+v", stage, i, g, gotSum, wantSum)
				}
			}
		}
		if compared == 0 {
			t.Fatalf("%s: no non-empty queries sampled; fixture needs retuning", stage)
		}
	}

	compareQueries("delta")

	resp, raw = postJSON(t, ts, "/graphs/live/compact", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compact status %d: %s", resp.StatusCode, raw)
	}
	compareQueries("compacted")

	// The stats endpoint must surface the sidecar for the dense graph and
	// zero for the stripped serving.
	resp, raw = postJSON2(t, ts, "/graphs/cold/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	var info hgio.GraphInfo
	if err := json.Unmarshal(raw, &info); err != nil {
		t.Fatal(err)
	}
	if info.BitmapVertices == 0 || info.BitmapBytes == 0 {
		t.Fatalf("stats hide the sidecar: %+v", info)
	}
	resp, raw = postJSON2(t, ts, "/graphs/cold_arrays/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	if err := json.Unmarshal(raw, &info); err != nil {
		t.Fatal(err)
	}
	if info.BitmapVertices != 0 || info.BitmapBytes != 0 {
		t.Fatalf("stripped serving reports a sidecar: %+v", info)
	}
}

// postJSON2 is a GET helper mirroring postJSON's return shape.
func postJSON2(t testing.TB, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}
