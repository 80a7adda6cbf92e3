package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"hgmatch"
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

// snapshotOf returns the named graph's current snapshot. The Acquire
// reference is released at once: a heap snapshot lives as long as the
// collector keeps it, so it stays valid after the release; a mapped one
// stays valid while the registry keeps the graph attached.
func snapshotOf(t testing.TB, reg *Registry, name string) *hgmatch.Hypergraph {
	t.Helper()
	h, _, release, err := reg.Acquire(name)
	if err != nil {
		t.Fatal(err)
	}
	release()
	return h
}

// post drives the handler directly (no TCP: the lifecycle model and its
// focused runs boot hundreds of servers).
func post(h http.Handler, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr
}

// liveOf returns the named graph's write buffer exactly as the ingest
// handler obtains it, holding its reference until the test ends.
func liveOf(t testing.TB, reg *Registry, name string) *hgmatch.DeltaBuffer {
	t.Helper()
	_, live, release, err := reg.lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(release)
	return live
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

	post := func(query string) (hgio.MatchSummary, string) {
		resp, err := http.Post(srv.URL+"/match", "application/json",
			matchBody(t, hgio.MatchRequest{Graph: "fig1", Query: query}))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		_, summary := decodeStream(t, buf.Bytes())
		return summary, resp.Header.Get("X-Plan-Cache")
	}

	first, hdr1 := post(fig1QueryText)
	if first.PlanCached || hdr1 != "miss" {
		t.Fatalf("first request: plan_cached=%v header=%q, want cold miss", first.PlanCached, hdr1)
	}
	second, hdr2 := post(fig1QueryText)
	if !second.PlanCached || hdr2 != "hit" {
		t.Fatalf("second request: plan_cached=%v header=%q, want cache hit", second.PlanCached, hdr2)
	}
	if second.Embeddings != first.Embeddings {
		t.Fatalf("cached plan changed results: %d vs %d", second.Embeddings, first.Embeddings)
	}
	if size, hits, misses := s.Plans().Stats(); size != 1 || hits != 1 || misses != 1 {
		t.Fatalf("cache stats = (size %d, hits %d, misses %d), want (1, 1, 1)", size, hits, misses)
	}

	// The same query with its edges declared in another order must miss:
	// a plan's order and rows are numbered in its own query's edge IDs.
	reordered := `v A
v C
v A
v A
v B
e 0 1 3 4
e 0 1 2
e 2 4
`
	if _, got := post(reordered); got != "miss" {
		t.Fatalf("reordered query: X-Plan-Cache = %q, want miss", got)
	}
}

func TestCountEndpoint(t *testing.T) {
	srv := httptest.NewServer(newTestServer(t, Config{}).Handler())
	defer srv.Close()

	summary, _ := postCount(t, srv.URL, hgio.MatchRequest{Graph: "fig1", Query: fig1QueryText, Workers: 2})
	if summary.Embeddings != 2 || !summary.Done {
		t.Fatalf("count summary = %+v, want 2 embeddings", summary)
	}
}

func TestMatchLimit(t *testing.T) {
	srv := httptest.NewServer(newTestServer(t, Config{}).Handler())
	defer srv.Close()

	_, records, summary := postMatch(t, srv.URL, hgio.MatchRequest{Graph: "fig1", Query: fig1QueryText, Limit: 1})
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

// countingWriter counts the Write calls that reach the ResponseWriter and
// keeps the first one's size: the guarded writer passes each of its writes
// straight through, so this is the number of guarded writes a response cost.
type countingWriter struct {
	*httptest.ResponseRecorder
	writes, first int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	if c.writes++; c.writes == 1 {
		c.first = len(p)
	}
	return c.ResponseRecorder.Write(p)
}

// TestMatchGuardedWriteCount pins the flush policy from the socket's side. A
// response under shardFlushBytes — here /match limit 100 — is one write
// carrying rows and summary together. On an unlimited stream the first write
// is a shard's first drain, at most shardFlushBytes plus the line that
// crossed it, so the first row leaves as early as before frames grew. After
// that each shard's threshold ramps 16 → 32 → 64 KiB, so the stream costs at
// most bytes/shardFrameBytes writes, plus two ramp drains and one leftover
// frame per shard, plus the tail, plus what the 200 ms flusher drained if the
// run was slow enough for it to tick.
func TestMatchGuardedWriteCount(t *testing.T) {
	s := cliqueServer(t, 20, Config{Workers: 2})
	defer s.Close()
	// serve returns the response, its row count, its longest row line
	// (newline included) and how long it took.
	serve := func(req hgio.MatchRequest) (*countingWriter, int, int, time.Duration) {
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
		longest := 0
		for _, rec := range recs {
			line, _ := json.Marshal(rec)
			rows = append(append(rows, line...), '\n')
			longest = max(longest, len(line)+1)
		}
		if !bytes.HasPrefix(w.Body.Bytes(), rows) {
			t.Fatal("embedding lines are not json.Marshal(EmbeddingRecord) byte for byte")
		}
		return w, len(recs), longest, elapsed
	}

	w, n, _, _ := serve(hgio.MatchRequest{Graph: "clique", Query: pathQueryText, Limit: 100})
	if n != 100 || w.Body.Len() >= shardFlushBytes || w.writes != 1 {
		t.Fatalf("limit 100: %d embeddings, %d bytes, %d writes; want one write", n, w.Body.Len(), w.writes)
	}

	w, _, line, elapsed := serve(hgio.MatchRequest{Graph: "clique", Query: pathQueryText})
	if w.Body.Len() < 1<<20 || w.first > shardFlushBytes+line {
		t.Fatalf("unlimited: %d bytes, first write %d bytes; want ≥ 1 MiB and a first write of at most %d+%d", w.Body.Len(), w.first, shardFlushBytes, line)
	}
	workers := s.Pool().Workers()
	ticks := int(elapsed / shardFlushInterval) // 0 unless the box is very slow
	most := w.Body.Len()/shardFrameBytes + 3*workers + 1 + ticks*workers
	if w.writes > most {
		t.Fatalf("unlimited: %d bytes in %d writes over %v; want at most %d", w.Body.Len(), w.writes, elapsed, most)
	}
}

// frameRecorder records where each guarded write of a response ends, each
// write taking delay.
type frameRecorder struct {
	*httptest.ResponseRecorder
	ends  []int
	delay time.Duration
}

func (f *frameRecorder) Write(p []byte) (int, error) {
	time.Sleep(f.delay)
	n, err := f.ResponseRecorder.Write(p)
	f.ends = append(f.ends, f.Body.Len())
	return n, err
}

// TestMatchWideIDsOnTheWire streams rows whose hyperedge IDs are all five
// digits (no other server fixture has an edge ID of 10 000 or more): K_150
// on label 1 takes IDs 0–11 174, and the query, a 3-edge path on label 0,
// matches only a K_12 on label 0 added after it. At pool widths 1 and 2 the
// body must be json.Marshal's lines byte for byte, hold every one of the
// 12·11·10·9 embeddings once, and split some group across two writes: a
// mid-group drain, after which the group's later lines copy its kept prefix.
// A capped request written through a reader slower than the workers, whose
// frames queue up and whose request parks, must then stream the first rows
// of the sequential order, in that order.
func TestMatchWideIDsOnTheWire(t *testing.T) {
	const big, small = 150, 12
	labels := make([]uint32, big+small)
	var edges [][]uint32
	for _, k := range []struct{ lo, n, label int }{{0, big, 1}, {big, small, 0}} {
		for i := k.lo; i < k.lo+k.n; i++ {
			labels[i] = uint32(k.label)
			for j := i + 1; j < k.lo+k.n; j++ {
				edges = append(edges, []uint32{uint32(i), uint32(j)})
			}
		}
	}
	h, err := hgmatch.FromEdges(labels, edges)
	if err != nil {
		t.Fatal(err)
	}
	const firstWide = big * (big - 1) / 2 // the K_12's first edge ID
	if firstWide < 10000 {
		t.Fatalf("padding ends at edge %d, want ≥ 10000", firstWide)
	}
	for _, workers := range []int{1, 2} {
		reg := NewRegistry()
		if err := reg.Add("wide", h); err != nil {
			t.Fatal(err)
		}
		s := New(reg, Config{Workers: workers})
		w := &frameRecorder{ResponseRecorder: httptest.NewRecorder()}
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/match", matchBody(t, hgio.MatchRequest{Graph: "wide", Query: pathQueryText})))
		const limit = 10000
		slow := &frameRecorder{ResponseRecorder: httptest.NewRecorder(), delay: 2 * time.Millisecond}
		s.Handler().ServeHTTP(slow, httptest.NewRequest(http.MethodPost, "/match", matchBody(t, hgio.MatchRequest{Graph: "wide", Query: pathQueryText, Limit: limit})))
		s.Close()
		if w.Code != http.StatusOK {
			t.Fatalf("workers %d: status %d: %s", workers, w.Code, w.Body)
		}
		body := w.Body.Bytes()
		recs, sum := decodeStream(t, body)
		if want := small * (small - 1) * (small - 2) * (small - 3); len(recs) != want || sum.Embeddings != uint64(want) {
			t.Fatalf("workers %d: %d rows, summary %d embeddings; want %d", workers, len(recs), sum.Embeddings, want)
		}
		var rows []byte
		seen := map[[3]uint32]bool{}
		writesOf := map[[2]uint32]map[int]bool{} // prefix → writes holding its lines
		write := 0
		for _, rec := range recs {
			m := rec.Embedding
			if len(m) != 3 || m[0] < firstWide || m[1] < firstWide || m[2] < firstWide {
				t.Fatalf("workers %d: row %v, want three IDs ≥ %d", workers, m, firstWide)
			}
			if seen[[3]uint32(m)] {
				t.Fatalf("workers %d: row %v streamed twice", workers, m)
			}
			seen[[3]uint32(m)] = true
			line, _ := json.Marshal(rec)
			rows = append(append(rows, line...), '\n')
			for len(rows) > w.ends[write] {
				write++
			}
			p := [2]uint32(m[:2])
			if writesOf[p] == nil {
				writesOf[p] = map[int]bool{}
			}
			writesOf[p][write] = true
		}
		if !bytes.HasPrefix(body, rows) {
			t.Fatalf("workers %d: embedding lines are not json.Marshal(EmbeddingRecord) byte for byte", workers)
		}
		split := 0
		for _, ws := range writesOf {
			if len(ws) > 1 {
				split++
			}
		}
		if split == 0 {
			t.Fatalf("workers %d: no group spans two of the %d writes; want a mid-group drain", workers, len(w.ends))
		}
		capped, _ := decodeStream(t, slow.Body.Bytes())
		cmp := func(a, b hgio.EmbeddingRecord) int { return slices.Compare(a.Embedding, b.Embedding) }
		if sorted := slices.SortedFunc(slices.Values(recs), cmp); len(capped) != limit || !slices.EqualFunc(capped, sorted[:limit], func(a, b hgio.EmbeddingRecord) bool { return cmp(a, b) == 0 }) {
			t.Fatalf("workers %d: a capped stream to a slow reader, %d rows in %d writes, is not the first %d rows in order", workers, len(capped), len(slow.ends), limit)
		}
	}
}

// discardWriter is a ResponseWriter that keeps only a byte count, so the
// allocations measured around a request are the handler's own.
type discardWriter struct {
	header http.Header
	n      int
}

func (d *discardWriter) Header() http.Header         { return d.header }
func (d *discardWriter) WriteHeader(int)             {}
func (d *discardWriter) Write(p []byte) (int, error) { d.n += len(p); return len(p), nil }

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestMatchFramesRecycled pins that /match shard and tail buffers come from
// the frame pool: after one warm-up, a run of unlimited multi-megabyte
// streams allocates, per request, less than one shardFrameBytes frame in
// all. A handler that grew fresh shard buffers per request would allocate
// several frames' worth each time. Under the race detector the streams still
// run, so a frame touched after its request returned it shows as a race, but
// the bound is not checked: there sync.Pool drops a random quarter of Puts.
func TestMatchFramesRecycled(t *testing.T) {
	s := cliqueServer(t, 20, Config{Workers: 2})
	defer s.Close()
	h := s.Handler()
	body, err := json.Marshal(hgio.MatchRequest{Graph: "clique", Query: pathQueryText})
	if err != nil {
		t.Fatal(err)
	}
	serve := func() int {
		w := &discardWriter{header: http.Header{}}
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/match", bytes.NewReader(body)))
		return w.n
	}
	serve() // compiles and caches the plan, fills the frame pool

	const requests = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < requests; i++ {
		if n := serve(); n < 1<<20 {
			t.Fatalf("request %d streamed %d bytes, want ≥ 1 MiB", i, n)
		}
	}
	runtime.ReadMemStats(&after)
	if raceEnabled {
		return
	}
	if per := (after.TotalAlloc - before.TotalAlloc) / requests; per >= shardFrameBytes {
		t.Fatalf("each /match allocated %d bytes, want < %d (frames are not recycled)", per, shardFrameBytes)
	}
}

// TestMatchShardLayout guards the pad in matchShard: one request's shards
// sit side by side, each written by its own worker on every row, so a shard
// must fill exactly two 64-byte cache lines.
func TestMatchShardLayout(t *testing.T) {
	if size := unsafe.Sizeof(matchShard{}); size != 128 {
		t.Fatalf("unsafe.Sizeof(matchShard{}) = %d, want 128", size)
	}
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
	srv := httptest.NewServer(cliqueServer(t, 80, Config{}).Handler())
	defer srv.Close()

	if _, _, summary := postMatch(t, srv.URL, hgio.MatchRequest{Graph: "clique", Query: pathQueryText, TimeoutMs: 1}); !summary.TimedOut {
		t.Fatalf("1ms run over K_80 completed: %+v", summary)
	}
}

// TestClientDisconnectCancelsRun verifies per-request cancellation: a
// client that walks away mid-stream stops enumeration server-side well
// before the engine's own timeout.
func TestClientDisconnectCancelsRun(t *testing.T) {
	s := cliqueServer(t, 60, Config{})
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
	s := cliqueServer(t, 80, Config{})
	s.cfg.MaxTimeout = 50 * time.Millisecond
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	start := time.Now()
	_, _, summary := postMatch(t, srv.URL, hgio.MatchRequest{Graph: "clique", Query: pathQueryText, TimeoutMs: 9_300_000_000_000_000})
	elapsed := time.Since(start)
	if !summary.TimedOut {
		t.Fatalf("overflowing timeout_ms must clamp to MaxTimeout and trip: %+v", summary)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("request ran %s, MaxTimeout clamp did not take effect", elapsed)
	}
}

// TestWorkersClamped guards the pool-width clamp: a request demanding
// millions of workers must be served by the shared pool's workers, not
// spawn millions of goroutines.
func TestWorkersClamped(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	before := runtime.NumGoroutine()
	if summary, _ := postCount(t, srv.URL, hgio.MatchRequest{Graph: "fig1", Query: fig1QueryText, Workers: 10_000_000}); summary.Embeddings != 2 {
		t.Fatalf("clamped run returned %d embeddings, want 2", summary.Embeddings)
	}
	if after := runtime.NumGoroutine(); after > before+50 {
		t.Fatalf("goroutines grew %d -> %d; workers clamp not applied", before, after)
	}
}

// TestGraphReplacementInvalidatesPlans guards against serving plans
// compiled against a replaced graph's predecessor: plan-cache keys carry
// the registry version. A plain run of the lifecycle model that only
// loads: matchFixed wants a miss after each replacement and the oracle's
// rows of the new graph.
func TestGraphReplacementInvalidatesPlans(t *testing.T) {
	lifecycle(t, lcPlan{from: 1, to: 2, writers: "load", ops: "load-v2 load-v3"})
}

func TestGraphEndpoints(t *testing.T) {
	srv := httptest.NewServer(newTestServer(t, Config{}).Handler())
	defer srv.Close()

	var infos []hgio.GraphInfo
	if getJSON(t, srv.URL+"/graphs", &infos); len(infos) != 1 || infos[0].Name != "fig1" {
		t.Fatalf("graphs = %+v", infos)
	}

	var info hgio.GraphInfo
	if getJSON(t, srv.URL+"/graphs/fig1/stats", &info); info.NumVertices != 7 || info.NumEdges != 6 || info.NumLabels != 3 || info.MaxArity != 4 {
		t.Fatalf("fig1 stats = %+v, want Table II values |V|=7 |E|=6 |Σ|=3 amax=4", info)
	}

	if code := getJSON(t, srv.URL+"/graphs/missing/stats", nil); code != http.StatusNotFound {
		t.Fatalf("missing graph stats status = %d", code)
	}
}

func TestHealthz(t *testing.T) {
	srv := httptest.NewServer(newTestServer(t, Config{}).Handler())
	defer srv.Close()

	var hr hgio.HealthResponse
	if getJSON(t, srv.URL+"/healthz", &hr); hr.Status != "ok" || hr.Graphs != 1 || hr.Version != hgmatch.Version {
		t.Fatalf("healthz = %+v", hr)
	}
}
