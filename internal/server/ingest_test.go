package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"

	"hgmatch"
	"hgmatch/internal/hgio"
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

// sortedMatchLines runs POST /match and returns its normalised stream.
func sortedMatchLines(t testing.TB, ts *httptest.Server, req hgio.MatchRequest) ([]string, hgio.MatchSummary) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, raw := postJSON(t, ts, "/match", string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/match status %d", resp.StatusCode)
	}
	return normalisedStream(t, raw)
}

// normalisedStream decodes a /match NDJSON body into a deterministic
// form: embedding records sorted (worker interleaving makes stream order
// nondeterministic; the SET of results is the contract) and the summary
// with its wall-clock field cleared.
func normalisedStream(t testing.TB, body []byte) ([]string, hgio.MatchSummary) {
	t.Helper()
	records, summary := decodeStream(t, body)
	lines := make([]string, len(records))
	for i, r := range records {
		lines[i] = fmt.Sprint(r.Embedding)
	}
	sort.Strings(lines)
	summary.ElapsedUs = 0
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

// TestIngestInvalidatesPlanCache: after an ingest, a repeated query misses
// the plan cache (version moved) and sees the new edges. A plain run of
// the lifecycle model that only ingests: matchFixed wants a miss at each
// new version, a hit otherwise, and the oracle's rows.
func TestIngestInvalidatesPlanCache(t *testing.T) {
	lifecycle(t, lcPlan{from: 1, to: 2, writers: "ingest", ops: "ingest"})
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
	s.compactWG.Wait()
	live := liveOf(t, s.Graphs(), "fig1")
	if live.PendingEdges() != 0 {
		t.Fatalf("background compaction left %d pending edges", live.PendingEdges())
	}
	if h := snapshotOf(t, s.Graphs(), "fig1"); h.HasDelta() || h.NumEdges() != 9 {
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
	s.compactWG.Wait()
	if h := snapshotOf(t, s.Graphs(), "fig1"); h.Validate() != nil {
		t.Fatalf("settled graph invalid: %v", h.Validate())
	}
}
