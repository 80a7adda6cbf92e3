package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"hgmatch"
	"hgmatch/internal/engine"
	"hgmatch/internal/hgio"
)

// fig1DataText is the paper's Fig. 1b data hypergraph H in hgio text
// format (see internal/hgtest.Fig1Data for the programmatic twin).
const fig1DataText = `v A
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

// fig1QueryText is Fig. 1a's query q; it has exactly two embeddings in H.
const fig1QueryText = `v A
v C
v A
v A
v B
e 2 4
e 0 1 2
e 0 1 3 4
`

func newTestServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	h, err := hgmatch.Load(strings.NewReader(fig1DataText))
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	reg.Add("fig1", h)
	return New(reg, cfg)
}

func matchBody(t testing.TB, req hgio.MatchRequest) *bytes.Reader {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(b)
}

// decodeStream splits an NDJSON /match body into embedding records and the
// closing summary.
func decodeStream(t testing.TB, body []byte) ([]hgio.EmbeddingRecord, hgio.MatchSummary) {
	t.Helper()
	var (
		records []hgio.EmbeddingRecord
		summary hgio.MatchSummary
		gotDone bool
	)
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		if gotDone {
			t.Fatalf("data after summary line: %q", sc.Text())
		}
		var probe struct {
			Done bool `json:"done"`
		}
		if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if probe.Done {
			if err := json.Unmarshal(sc.Bytes(), &summary); err != nil {
				t.Fatal(err)
			}
			gotDone = true
			continue
		}
		var rec hgio.EmbeddingRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		records = append(records, rec)
	}
	if !gotDone {
		t.Fatalf("stream ended without a summary line: %s", body)
	}
	return records, summary
}

func TestMatchRoundTrip(t *testing.T) {
	srv := httptest.NewServer(newTestServer(t, Config{}).Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/match", "application/json",
		matchBody(t, hgio.MatchRequest{Graph: "fig1", Query: fig1QueryText}))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	records, summary := decodeStream(t, buf.Bytes())

	if summary.Embeddings != 2 || len(records) != 2 {
		t.Fatalf("want 2 embeddings, got summary=%d streamed=%d", summary.Embeddings, len(records))
	}
	if len(summary.Order) != 3 {
		t.Fatalf("summary order = %v, want 3 query edges", summary.Order)
	}
	// Each streamed tuple must be a genuine embedding per Definition III.3.
	data, _ := hgmatch.Load(strings.NewReader(fig1DataText))
	query, _ := hgmatch.Load(strings.NewReader(fig1QueryText))
	for _, rec := range records {
		if !hgmatch.VerifyEmbedding(query, data, summary.Order, rec.Embedding) {
			t.Errorf("streamed tuple %v is not an embedding", rec.Embedding)
		}
	}
}

func TestMatchPlanCacheHit(t *testing.T) {
	s := newTestServer(t, Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	post := func() (hgio.MatchSummary, string) {
		resp, err := http.Post(srv.URL+"/match", "application/json",
			matchBody(t, hgio.MatchRequest{Graph: "fig1", Query: fig1QueryText}))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		_, summary := decodeStream(t, buf.Bytes())
		return summary, resp.Header.Get("X-Plan-Cache")
	}

	first, hdr1 := post()
	if first.PlanCached || hdr1 != "miss" {
		t.Fatalf("first request: plan_cached=%v header=%q, want cold miss", first.PlanCached, hdr1)
	}
	second, hdr2 := post()
	if !second.PlanCached || hdr2 != "hit" {
		t.Fatalf("second request: plan_cached=%v header=%q, want cache hit", second.PlanCached, hdr2)
	}
	if second.Embeddings != first.Embeddings {
		t.Fatalf("cached plan changed results: %d vs %d", second.Embeddings, first.Embeddings)
	}
	if size, hits, misses := s.Plans().Stats(); size != 1 || hits != 1 || misses != 1 {
		t.Fatalf("cache stats = (size %d, hits %d, misses %d), want (1, 1, 1)", size, hits, misses)
	}

	// Same query with edges declared in a different order must also hit:
	// the cache keys on the canonical query form, not the request text.
	reordered := `v A
v C
v A
v A
v B
e 0 1 3 4
e 0 1 2
e 2 4
`
	resp, err := http.Post(srv.URL+"/match", "application/json",
		matchBody(t, hgio.MatchRequest{Graph: "fig1", Query: reordered}))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("X-Plan-Cache"); got != "hit" {
		t.Fatalf("reordered query: X-Plan-Cache = %q, want hit", got)
	}
}

func TestCountEndpoint(t *testing.T) {
	srv := httptest.NewServer(newTestServer(t, Config{}).Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/count", "application/json",
		matchBody(t, hgio.MatchRequest{Graph: "fig1", Query: fig1QueryText, Workers: 2}))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var summary hgio.MatchSummary
	if err := json.NewDecoder(resp.Body).Decode(&summary); err != nil {
		t.Fatal(err)
	}
	if summary.Embeddings != 2 || !summary.Done {
		t.Fatalf("count summary = %+v, want 2 embeddings", summary)
	}
}

func TestMatchLimit(t *testing.T) {
	srv := httptest.NewServer(newTestServer(t, Config{}).Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/match", "application/json",
		matchBody(t, hgio.MatchRequest{Graph: "fig1", Query: fig1QueryText, Limit: 1}))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	records, summary := decodeStream(t, buf.Bytes())
	if summary.Embeddings != 1 || len(records) != 1 {
		t.Fatalf("limit=1: summary=%d streamed=%d", summary.Embeddings, len(records))
	}
}

func TestBadInputs(t *testing.T) {
	srv := httptest.NewServer(newTestServer(t, Config{}).Handler())
	defer srv.Close()

	cases := []struct {
		name string
		body string
		want int
	}{
		{"malformed JSON", `{"graph": "fig1"`, http.StatusBadRequest},
		{"unknown field", `{"graph":"fig1","query":"v A","bogus":1}`, http.StatusBadRequest},
		{"missing graph", `{"query":"v A\ne 0"}`, http.StatusBadRequest},
		{"missing query", `{"graph":"fig1"}`, http.StatusBadRequest},
		{"unknown graph", `{"graph":"nope","query":"v A\ne 0"}`, http.StatusNotFound},
		{"bad query text", `{"graph":"fig1","query":"z 1 2"}`, http.StatusBadRequest},
		{"edge on undeclared vertex", `{"graph":"fig1","query":"v A\ne 0 5"}`, http.StatusBadRequest},
		{"disconnected query", `{"graph":"fig1","query":"v A\nv B\nv A\nv B\ne 0 1\ne 2 3"}`, http.StatusBadRequest},
		{"negative workers", `{"graph":"fig1","query":"v A\ne 0","workers":-1}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(srv.URL+"/match", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.want)
			}
			var er hgio.ErrorResponse
			if err := json.NewDecoder(resp.Body).Decode(&er); err != nil || er.Error == "" {
				t.Fatalf("error body not decodable: %v", err)
			}
		})
	}

	// Oversized body → 413, not a generic 400.
	small := httptest.NewServer(newTestServer(t, Config{MaxBodyBytes: 64}).Handler())
	defer small.Close()
	resp2, err := http.Post(small.URL+"/match", "application/json",
		matchBody(t, hgio.MatchRequest{Graph: "fig1", Query: fig1QueryText}))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body status = %d, want 413", resp2.StatusCode)
	}

	// Wrong method on a POST route.
	resp, err := http.Get(srv.URL + "/match")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /match status = %d, want 405", resp.StatusCode)
	}
}

// countingWriter counts the Write calls that reach the ResponseWriter: the
// guarded writer passes each of its writes straight through, so this is the
// number of guarded writes a response cost.
type countingWriter struct {
	*httptest.ResponseRecorder
	writes int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes++
	return c.ResponseRecorder.Write(p)
}

// TestMatchGuardedWriteCount pins the flush policy from the socket's side. A
// response under shardFlushBytes — here /match limit 100 — is one write
// carrying rows and summary together. An unlimited stream drains a shard only
// once it holds shardFlushBytes, so it costs at most bytes/shardFlushBytes
// writes plus the tail (plus what the 200 ms flusher drained, if the run was
// slow enough for it to tick).
func TestMatchGuardedWriteCount(t *testing.T) {
	s := cliqueServer(t, 14, Config{})
	defer s.Close()
	serve := func(req hgio.MatchRequest) (*countingWriter, hgio.MatchSummary, time.Duration) {
		t.Helper()
		w := &countingWriter{ResponseRecorder: httptest.NewRecorder()}
		start := time.Now()
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/match", matchBody(t, req)))
		elapsed := time.Since(start)
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body)
		}
		recs, sum := decodeStream(t, w.Body.Bytes())
		if uint64(len(recs)) != sum.Embeddings || sum.Error != "" {
			t.Fatalf("streamed %d rows, summary %+v", len(recs), sum)
		}
		// The rows on the wire are encoding/json's bytes, whatever mix of
		// whole groups, groups of one and mid-group drains produced them.
		var rows []byte
		for _, rec := range recs {
			line, _ := json.Marshal(rec)
			rows = append(append(rows, line...), '\n')
		}
		if !bytes.HasPrefix(w.Body.Bytes(), rows) {
			t.Fatal("embedding lines are not json.Marshal(EmbeddingRecord) byte for byte")
		}
		return w, sum, elapsed
	}

	w, sum, _ := serve(hgio.MatchRequest{Graph: "clique", Query: pathQueryText, Limit: 100})
	if sum.Embeddings != 100 || w.Body.Len() >= shardFlushBytes || w.writes != 1 {
		t.Fatalf("limit 100: %d embeddings, %d bytes, %d writes; want one write", sum.Embeddings, w.Body.Len(), w.writes)
	}

	w, sum, elapsed := serve(hgio.MatchRequest{Graph: "clique", Query: pathQueryText})
	ticks := int(elapsed / shardFlushInterval) // 0 unless the box is very slow
	most := w.Body.Len()/shardFlushBytes + 1 + ticks*s.Pool().Workers()
	if w.Body.Len() < 8*shardFlushBytes || w.writes > most {
		t.Fatalf("unlimited: %d embeddings, %d bytes in %d writes over %v; want at most %d", sum.Embeddings, w.Body.Len(), w.writes, elapsed, most)
	}
}

// heavyServer registers a single-label complete graph K_n: a 3-edge path
// query then has Θ(n⁴) embeddings, enough work that millisecond timeouts
// reliably trip mid-run.
func heavyServer(t testing.TB, n int) *Server {
	t.Helper()
	labels := make([]uint32, n)
	var edges [][]uint32
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, []uint32{uint32(i), uint32(j)})
		}
	}
	h, err := hgmatch.FromEdges(labels, edges)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	reg.Add("clique", h)
	return New(reg, Config{})
}

// pathQueryText is a 3-edge path query over one label; label "A" interns to
// 0, matching the unlabelled clique's single numeric label.
const pathQueryText = `v A
v A
v A
v A
e 0 1
e 1 2
e 2 3
`

func TestMatchTimeout(t *testing.T) {
	srv := httptest.NewServer(heavyServer(t, 80).Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/match", "application/json",
		matchBody(t, hgio.MatchRequest{Graph: "clique", Query: pathQueryText, TimeoutMs: 1}))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	_, summary := decodeStream(t, buf.Bytes())
	if !summary.TimedOut {
		t.Fatalf("1ms run over K_80 completed: %+v", summary)
	}
}

// TestClientDisconnectCancelsRun verifies per-request cancellation: a
// client that walks away mid-stream stops enumeration server-side well
// before the engine's own timeout.
func TestClientDisconnectCancelsRun(t *testing.T) {
	s := heavyServer(t, 60)
	done := make(chan hgio.MatchSummary, 1)
	mux := s.Handler()
	// Wrap the handler to observe the run finishing after the client left.
	wrapped := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mux.ServeHTTP(w, r)
		done <- hgio.MatchSummary{Done: true}
	})
	srv := httptest.NewServer(wrapped)
	defer srv.Close()

	client := &http.Client{Timeout: 200 * time.Millisecond}
	resp, err := client.Post(srv.URL+"/match", "application/json",
		matchBody(t, hgio.MatchRequest{Graph: "clique", Query: pathQueryText, TimeoutMs: 60_000}))
	if err == nil {
		// Read a little, then hang up mid-stream.
		io := make([]byte, 512)
		resp.Body.Read(io)
		resp.Body.Close()
	}

	select {
	case <-done:
		// Handler returned: the cancelled context stopped the engine long
		// before the 60s engine timeout.
	case <-time.After(10 * time.Second):
		t.Fatal("handler still running 10s after client disconnect")
	}
}

// TestTimeoutOverflowClamped guards against a timeout_ms so large that
// converting to time.Duration overflows negative — which the engine would
// treat as "no deadline", bypassing MaxTimeout entirely.
func TestTimeoutOverflowClamped(t *testing.T) {
	s := heavyServer(t, 80)
	s.cfg.MaxTimeout = 50 * time.Millisecond
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	start := time.Now()
	resp, err := http.Post(srv.URL+"/match", "application/json",
		matchBody(t, hgio.MatchRequest{Graph: "clique", Query: pathQueryText, TimeoutMs: 9_300_000_000_000_000}))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	elapsed := time.Since(start)
	_, summary := decodeStream(t, buf.Bytes())
	if !summary.TimedOut {
		t.Fatalf("overflowing timeout_ms must clamp to MaxTimeout and trip: %+v", summary)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("request ran %s, MaxTimeout clamp did not take effect", elapsed)
	}
}

// TestWorkersClamped guards the MaxWorkers clamp: a request demanding
// millions of workers must be served with the server's cap, not spawn
// millions of goroutines.
func TestWorkersClamped(t *testing.T) {
	s := newTestServer(t, Config{MaxWorkers: 2})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	before := runtime.NumGoroutine()
	resp, err := http.Post(srv.URL+"/count", "application/json",
		matchBody(t, hgio.MatchRequest{Graph: "fig1", Query: fig1QueryText, Workers: 10_000_000}))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var summary hgio.MatchSummary
	if err := json.NewDecoder(resp.Body).Decode(&summary); err != nil {
		t.Fatal(err)
	}
	if summary.Embeddings != 2 {
		t.Fatalf("clamped run returned %d embeddings, want 2", summary.Embeddings)
	}
	if after := runtime.NumGoroutine(); after > before+50 {
		t.Fatalf("goroutines grew %d -> %d; workers clamp not applied", before, after)
	}
}

// TestDefaultWorkersClamped guards the clamp on the omitted-workers path:
// "0 = GOMAXPROCS" must be resolved before MaxWorkers binds, or the cap
// only applies to requests that ask explicitly.
func TestDefaultWorkersClamped(t *testing.T) {
	s := New(NewRegistry(), Config{MaxWorkers: 1})
	r := httptest.NewRequest(http.MethodPost, "/match", nil)
	var eo engine.Options
	opts, workers := s.options(r.Context(), &hgio.MatchRequest{})
	for _, o := range opts {
		o(&eo)
	}
	// Omitted workers resolves to GOMAXPROCS (>= 1) and must then clamp
	// to MaxWorkers; 0 reaching the engine would sidestep the cap.
	if eo.Workers != 1 || workers != 1 {
		t.Fatalf("omitted workers resolved to %d (returned %d), want clamp to MaxWorkers=1", eo.Workers, workers)
	}
}

// TestGraphReplacementInvalidatesPlans guards against serving plans
// compiled against a replaced graph's predecessor: plan-cache keys carry
// the registry version.
func TestGraphReplacementInvalidatesPlans(t *testing.T) {
	s := newTestServer(t, Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	count := func() (hgio.MatchSummary, string) {
		resp, err := http.Post(srv.URL+"/count", "application/json",
			matchBody(t, hgio.MatchRequest{Graph: "fig1", Query: fig1QueryText}))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var summary hgio.MatchSummary
		if err := json.NewDecoder(resp.Body).Decode(&summary); err != nil {
			t.Fatal(err)
		}
		return summary, resp.Header.Get("X-Plan-Cache")
	}

	first, _ := count()
	if first.Embeddings != 2 {
		t.Fatalf("fig1 embeddings = %d, want 2", first.Embeddings)
	}
	// Replace "fig1" with a graph that has no matches for the query (the
	// first data edge dropped kills both embeddings).
	smaller, err := hgmatch.Load(strings.NewReader(`v A
v C
v A
v A
v B
v C
v A
e 4 6
e 0 1 2
e 3 5 6
e 0 1 4 6
e 2 3 4 5
`))
	if err != nil {
		t.Fatal(err)
	}
	s.Graphs().Add("fig1", smaller)

	after, hdr := count()
	if hdr != "miss" {
		t.Fatalf("replaced graph served a cached plan (X-Plan-Cache=%q)", hdr)
	}
	if after.Embeddings == first.Embeddings {
		t.Fatalf("results did not change after graph replacement: %d", after.Embeddings)
	}
}

func TestGraphEndpoints(t *testing.T) {
	srv := httptest.NewServer(newTestServer(t, Config{}).Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/graphs")
	if err != nil {
		t.Fatal(err)
	}
	var infos []hgio.GraphInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(infos) != 1 || infos[0].Name != "fig1" {
		t.Fatalf("graphs = %+v", infos)
	}

	resp, err = http.Get(srv.URL + "/graphs/fig1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var info hgio.GraphInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if info.NumVertices != 7 || info.NumEdges != 6 || info.NumLabels != 3 || info.MaxArity != 4 {
		t.Fatalf("fig1 stats = %+v, want Table II values |V|=7 |E|=6 |Σ|=3 amax=4", info)
	}

	resp, err = http.Get(srv.URL + "/graphs/missing/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing graph stats status = %d", resp.StatusCode)
	}
}

func TestHealthz(t *testing.T) {
	srv := httptest.NewServer(newTestServer(t, Config{}).Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hr hgio.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	if hr.Status != "ok" || hr.Graphs != 1 || hr.Version != hgmatch.Version {
		t.Fatalf("healthz = %+v", hr)
	}
}

// longPathQueryText renders an m-edge path query (all one label) in hgio
// text format; long queries make Compile's per-step table construction the
// dominant request cost, which is exactly what the plan cache removes.
func longPathQueryText(m int) string {
	var sb strings.Builder
	for i := 0; i <= m; i++ {
		sb.WriteString("v A\n")
	}
	for i := 0; i < m; i++ {
		fmt.Fprintf(&sb, "e %d %d\n", i, i+1)
	}
	return sb.String()
}

// BenchmarkMatchCachedPlan and BenchmarkMatchColdCompile measure the full
// HTTP /match round-trip with the plan cache warm vs forcibly cold; their
// gap is the compile cost the cache removes from every repeated query. The
// workload (32-edge path on K₄₀, limit 4) is match-dense so enumeration
// stays bounded while compilation is substantial.
func BenchmarkMatchCachedPlan(b *testing.B) {
	benchmarkMatch(b, false)
}

func BenchmarkMatchColdCompile(b *testing.B) {
	benchmarkMatch(b, true)
}

func benchmarkMatch(b *testing.B, resetCache bool) {
	s := heavyServer(b, 40)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	body, err := json.Marshal(hgio.MatchRequest{
		Graph: "clique", Query: longPathQueryText(32), Workers: 1, Limit: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	// Warm everything once (connection pool, first compile).
	doMatch(b, srv.Client(), srv.URL, body)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if resetCache {
			s.Plans().Reset()
		}
		doMatch(b, srv.Client(), srv.URL, body)
	}
}

func doMatch(b *testing.B, client *http.Client, url string, body []byte) {
	resp, err := client.Post(url+"/match", "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("status %d: %s", resp.StatusCode, buf.String())
	}
}

// BenchmarkPlanCompileVsCacheGet isolates the two code paths the HTTP
// benchmarks compare, without network noise.
func BenchmarkPlanCompileVsCacheGet(b *testing.B) {
	data, _ := hgmatch.Load(strings.NewReader(fig1DataText))
	query, _ := hgmatch.Load(strings.NewReader(fig1QueryText))
	aligned, err := hgmatch.AlignLabels(query, data)
	if err == nil {
		query = aligned
	}

	b.Run("compile", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := hgmatch.Compile(query, data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cache-get", func(b *testing.B) {
		c := NewPlanCache(8)
		p, _ := hgmatch.Compile(query, data)
		key := Key("fig1", 1, hgmatch.QueryKey(query))
		c.Put(key, p)
		for i := 0; i < b.N; i++ {
			if _, ok := c.Get(key); !ok {
				b.Fatal("miss")
			}
		}
	})
}
