package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"hgmatch"
	"hgmatch/internal/hgio"
	"hgmatch/internal/hgtest"
)

// chaosRounds mirrors the engine battery's gate: the dedicated CI chaos
// job sets HGMATCH_CHAOS=1 for the full randomized sweep; the default
// pass runs a fast smoke slice of the same assertions.
func chaosRounds(full, smoke int) int {
	if os.Getenv("HGMATCH_CHAOS") != "" {
		return full
	}
	return smoke
}

// getStats fetches GET /stats.
func getStats(t testing.TB, base string) hgio.SchedulerStats {
	t.Helper()
	resp, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st hgio.SchedulerStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// postMatch posts one /match request and returns status, records, summary.
func postMatch(t testing.TB, base string, req hgio.MatchRequest) (int, []hgio.EmbeddingRecord, hgio.MatchSummary) {
	t.Helper()
	resp, err := http.Post(base+"/match", "application/json", matchBody(t, req))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil, hgio.MatchSummary{}
	}
	recs, sum := decodeStream(t, buf.Bytes())
	return resp.StatusCode, recs, sum
}

// TestChaosServerPanicBattery drives randomized panic injection through
// the full HTTP path. A poisoned /match is already streaming 200, so the
// fault must arrive as the NDJSON error trailer (error_code
// request_poisoned) with the process alive; a poisoned /count still owns
// its status line and must answer 500. Every fired fault increments
// panics_recovered in /stats, leaked_blocks stays 0, and the very next
// clean request returns the exact Fig. 1 result set.
func TestChaosServerPanicBattery(t *testing.T) {
	var mu sync.Mutex
	var hook func(string)
	s := newTestServer(t, Config{FaultHook: func(p string) {
		mu.Lock()
		f := hook
		mu.Unlock()
		if f != nil {
			f(p)
		}
	}})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	setHook := func(f func(string)) { mu.Lock(); hook = f; mu.Unlock() }
	req := hgio.MatchRequest{Graph: "fig1", Query: fig1QueryText}

	// Count the fault points one clean run crosses, to size the targets.
	counter := &hgtest.FaultCounter{}
	setHook(counter.Hook)
	if code, recs, _ := postMatch(t, srv.URL, req); code != 200 || len(recs) != 2 {
		t.Fatalf("counting run: status=%d records=%d", code, len(recs))
	}
	if counter.Total() == 0 {
		t.Fatal("no fault points crossed")
	}

	rng := rand.New(rand.NewSource(41))
	rounds := chaosRounds(40, 8)
	fired := uint64(0)
	for i := 0; i < rounds; i++ {
		inj := &hgtest.PanicInjector{Target: 1 + rng.Int63n(counter.Total())}
		setHook(inj.Hook)
		if i%4 == 3 {
			// Every fourth round drives /count instead: no body written
			// yet, so a poisoned run keeps a real status code.
			resp, err := http.Post(srv.URL+"/count", "application/json", matchBody(t, req))
			if err != nil {
				t.Fatal(err)
			}
			var body bytes.Buffer
			body.ReadFrom(resp.Body)
			resp.Body.Close()
			if inj.Fired() {
				fired++
				var er hgio.ErrorResponse
				if resp.StatusCode != http.StatusInternalServerError ||
					json.Unmarshal(body.Bytes(), &er) != nil || er.Code != hgio.CodeRequestPoisoned {
					t.Fatalf("round %d: poisoned /count: status=%d body=%s", i, resp.StatusCode, body.Bytes())
				}
			} else if resp.StatusCode != http.StatusOK {
				t.Fatalf("round %d: clean /count status=%d", i, resp.StatusCode)
			}
		} else {
			code, recs, sum := postMatch(t, srv.URL, req)
			if code != http.StatusOK {
				t.Fatalf("round %d: /match status=%d", i, code)
			}
			if inj.Fired() {
				fired++
				if sum.Error == "" || sum.ErrorCode != hgio.CodeRequestPoisoned {
					t.Fatalf("round %d: poisoned /match trailer: %+v", i, sum)
				}
			} else if sum.Error != "" || len(recs) != 2 {
				t.Fatalf("round %d: clean /match: err=%q records=%d", i, sum.Error, len(recs))
			}
		}
		// The process must shrug the fault off: next clean request exact.
		setHook(nil)
		if _, recs, sum := postMatch(t, srv.URL, req); len(recs) != 2 || sum.Error != "" {
			t.Fatalf("round %d: server degraded after fault: records=%d err=%q", i, len(recs), sum.Error)
		}
	}
	st := getStats(t, srv.URL)
	if st.PanicsRecovered != fired {
		t.Errorf("stats panics_recovered=%d, %d faults fired", st.PanicsRecovered, fired)
	}
	if st.LeakedBlocks != 0 {
		t.Errorf("stats leaked_blocks=%d after the battery", st.LeakedBlocks)
	}
	if fired == 0 {
		t.Error("battery fired no faults")
	}
	t.Logf("server battery: %d/%d faults fired", fired, rounds)
}

// TestBudgetEndToEnd pins both halves of the per-request memory budget
// over HTTP: a budget below the plan's single-block floor is refused
// upfront with 413/budget_exceeded before any work starts, and with the
// budget off the same request succeeds. budget_aborts counts each refusal.
func TestBudgetEndToEnd(t *testing.T) {
	s := newTestServer(t, Config{RequestMaxBytes: 16})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	req := hgio.MatchRequest{Graph: "fig1", Query: fig1QueryText}

	for _, ep := range []string{"/match", "/count"} {
		resp, err := http.Post(srv.URL+ep, "application/json", matchBody(t, req))
		if err != nil {
			t.Fatal(err)
		}
		var er hgio.ErrorResponse
		err = json.NewDecoder(resp.Body).Decode(&er)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || err != nil || er.Code != hgio.CodeBudgetExceeded {
			t.Fatalf("%s with 16-byte budget: status=%d code=%q", ep, resp.StatusCode, er.Code)
		}
	}
	if st := getStats(t, srv.URL); st.BudgetAborts != 2 || st.RequestMaxBytes != 16 {
		t.Fatalf("stats after refusals: budget_aborts=%d request_max_bytes=%d", st.BudgetAborts, st.RequestMaxBytes)
	}

	// Control: same request, budget off.
	open := newTestServer(t, Config{})
	defer open.Close()
	osrv := httptest.NewServer(open.Handler())
	defer osrv.Close()
	if code, recs, _ := postMatch(t, osrv.URL, req); code != 200 || len(recs) != 2 {
		t.Fatalf("unbudgeted control: status=%d records=%d", code, len(recs))
	}
}

// cliqueServer registers a single-label complete graph K_n (as
// heavyServer) under a caller-chosen Config.
func cliqueServer(t testing.TB, n int, cfg Config) *Server {
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
	if err := reg.Add("clique", h); err != nil {
		t.Fatal(err)
	}
	return New(reg, cfg)
}

// waitStats polls /stats until pred holds or the deadline passes.
func waitStats(t testing.TB, base string, what string, pred func(hgio.SchedulerStats) bool) hgio.SchedulerStats {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		st := getStats(t, base)
		if pred(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s: %+v", what, st)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestSlowClientAborted opens a real connection, sends a heavy /match,
// and never reads the response. Once the kernel buffers fill, the write
// deadline must trip: the run is cancelled (pool drains back to zero
// active requests, admission tokens release), slow_client_aborts counts
// it, and the server keeps serving other clients at full speed. Needs a
// real listener — httptest recorders don't implement write deadlines.
func TestSlowClientAborted(t *testing.T) {
	s := cliqueServer(t, 60, Config{
		WriteTimeout: 200 * time.Millisecond,
		Admission:    AdmissionConfig{Enabled: true, TenantQuota: 1 << 40, CheapThreshold: 1},
	})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	addr := strings.TrimPrefix(srv.URL, "http://")

	body, err := json.Marshal(hgio.MatchRequest{Graph: "clique", Query: pathQueryText, TimeoutMs: 120_000})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := hgtest.DialRequest(addr, http.MethodPost, "/match", string(body))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	st := waitStats(t, srv.URL, "slow-client abort", func(st hgio.SchedulerStats) bool {
		return st.SlowClientAborts >= 1 && st.ActiveRequests == 0 && st.ActiveTenants == 0
	})
	if st.LeakedBlocks != 0 {
		t.Fatalf("slow-client abort leaked %d blocks", st.LeakedBlocks)
	}
	// The stalled connection must not have degraded service: a normal
	// limited request completes promptly.
	if code, recs, sum := postMatch(t, srv.URL, hgio.MatchRequest{Graph: "clique", Query: pathQueryText, Limit: 5}); code != 200 || len(recs) != 5 || sum.Error != "" {
		t.Fatalf("service degraded beside stalled client: status=%d records=%d err=%q", code, len(recs), sum.Error)
	}
}

// TestClientDisconnectMidStream hangs up partway through a heavy NDJSON
// stream and asserts the containment ledger: the run cancels promptly
// (active requests and tenants drain to zero, so admission cost is
// released), no blocks leak, and the next request is exact. Several
// clients disconnect concurrently to stress the teardown interleavings.
func TestClientDisconnectMidStream(t *testing.T) {
	// The sharded scatter case is gone with sharded serving; the
	// single-graph path keeps its case name.
	t.Run("solo", func(t *testing.T) {
		s := cliqueServer(t, 40, Config{
			Admission: AdmissionConfig{Enabled: true, TenantQuota: 1 << 40, CheapThreshold: 1},
		})
		defer s.Close()
		srv := httptest.NewServer(s.Handler())
		defer srv.Close()
		addr := strings.TrimPrefix(srv.URL, "http://")
		body, err := json.Marshal(hgio.MatchRequest{Graph: "clique", Query: pathQueryText, TimeoutMs: 120_000})
		if err != nil {
			t.Fatal(err)
		}

		clients := chaosRounds(12, 4)
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				conn, err := hgtest.DialRequest(addr, http.MethodPost, "/match", string(body))
				if err != nil {
					t.Error(err)
					return
				}
				// Read a slice of the stream, then vanish mid-line.
				io := make([]byte, 256*(1+c%8))
				conn.Read(io)
				conn.Close()
			}(c)
		}
		wg.Wait()

		st := waitStats(t, srv.URL, "disconnect drain", func(st hgio.SchedulerStats) bool {
			return st.ActiveRequests == 0 && st.ActiveTenants == 0
		})
		if st.LeakedBlocks != 0 {
			t.Fatalf("disconnects leaked %d blocks", st.LeakedBlocks)
		}
		if code, recs, sum := postMatch(t, srv.URL, hgio.MatchRequest{Graph: "clique", Query: pathQueryText, Limit: 7}); code != 200 || len(recs) != 7 || sum.Error != "" {
			t.Fatalf("service degraded after disconnects: status=%d records=%d err=%q", code, len(recs), sum.Error)
		}
	})
}

// TestReadyzLifecycle walks the readiness state machine: ready on build,
// not ready with a reason during simulated boot loading, ready again,
// and permanently not ready once Close begins. Liveness (/healthz) stays
// 200 throughout — restart decisions and routing decisions are separate
// signals. After Close, /match and /count refuse with 503/shutting_down:
// the closed pool and closed registry map to the same sentinel.
func TestReadyzLifecycle(t *testing.T) {
	s := newTestServer(t, Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	ready := func(wantStatus int, wantReason string) {
		t.Helper()
		resp, err := http.Get(srv.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		var rr hgio.ReadyResponse
		err = json.NewDecoder(resp.Body).Decode(&rr)
		resp.Body.Close()
		if err != nil || resp.StatusCode != wantStatus || rr.Reason != wantReason {
			t.Fatalf("/readyz: status=%d reason=%q err=%v; want %d %q", resp.StatusCode, rr.Reason, err, wantStatus, wantReason)
		}
	}
	ready(http.StatusOK, "")
	s.SetNotReady("loading graphs")
	ready(http.StatusServiceUnavailable, "loading graphs")
	s.SetReady()
	ready(http.StatusOK, "")

	s.Close()
	ready(http.StatusServiceUnavailable, "shutting down")
	// Liveness is unaffected by readiness.
	if resp, err := http.Get(srv.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz after close: %v %v", resp, err)
	} else {
		resp.Body.Close()
	}
	for _, ep := range []string{"/match", "/count"} {
		resp, err := http.Post(srv.URL+ep, "application/json",
			matchBody(t, hgio.MatchRequest{Graph: "fig1", Query: fig1QueryText}))
		if err != nil {
			t.Fatal(err)
		}
		var er hgio.ErrorResponse
		err = json.NewDecoder(resp.Body).Decode(&er)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable || err != nil || er.Code != hgio.CodeShuttingDown {
			t.Fatalf("%s after close: status=%d code=%q err=%v", ep, resp.StatusCode, er.Code, err)
		}
	}
}

// TestPoisonedStreamKeepsNeighborsExact runs poisoned and clean requests
// concurrently against one server and requires every clean /match body to
// carry the exact Fig. 1 rows — tenant isolation as the client observes
// it. The injector poisons only runs whose hook sees the "sink" of the
// victim's first embedding, so clean requests and victims share the pool
// the whole time.
func TestPoisonedStreamKeepsNeighborsExact(t *testing.T) {
	var mu sync.Mutex
	var hook func(string)
	s := newTestServer(t, Config{FaultHook: func(p string) {
		mu.Lock()
		f := hook
		mu.Unlock()
		if f != nil {
			f(p)
		}
	}})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	req := hgio.MatchRequest{Graph: "fig1", Query: fig1QueryText}

	_, base, _ := postMatch(t, srv.URL, req)
	wantRows := make([]string, 0, len(base))
	for _, r := range base {
		b, _ := json.Marshal(r.Embedding)
		wantRows = append(wantRows, string(b))
	}
	sort.Strings(wantRows)

	rounds := chaosRounds(30, 6)
	for i := 0; i < rounds; i++ {
		inj := &hgtest.PanicInjector{Point: "sink", Target: 1}
		mu.Lock()
		hook = inj.Hook
		mu.Unlock()
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			postMatch(t, srv.URL, req) // victim; trailer asserted in the battery test
		}()
		// Clean neighbour races the victim. Its hook calls arrive after the
		// injector fired (fire-once), so it must stream the exact rows.
		wg.Wait()
		_, recs, sum := postMatch(t, srv.URL, req)
		if sum.Error != "" {
			t.Fatalf("round %d: neighbour poisoned: %+v", i, sum)
		}
		got := make([]string, 0, len(recs))
		for _, r := range recs {
			b, _ := json.Marshal(r.Embedding)
			got = append(got, string(b))
		}
		sort.Strings(got)
		if strings.Join(got, "\n") != strings.Join(wantRows, "\n") {
			t.Fatalf("round %d: neighbour rows diverged: %v vs %v", i, got, wantRows)
		}
	}
	if st := getStats(t, srv.URL); st.LeakedBlocks != 0 {
		t.Fatalf("leaked_blocks=%d", st.LeakedBlocks)
	}
}
