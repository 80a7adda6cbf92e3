package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"hgmatch"
	"hgmatch/internal/hgio"
)

// TestAdmissionAcquire is the controller's table test: threshold bypass,
// quota exhaustion, monster-query clamping, per-tenant isolation and
// token release, all against the acquire/release pair directly.
func TestAdmissionAcquire(t *testing.T) {
	newAdm := func() *admission {
		return newAdmission(AdmissionConfig{Enabled: true, CheapThreshold: 100, TenantQuota: 1000})
	}
	t.Run("cheap bypasses even under exhaustion", func(t *testing.T) {
		a := newAdm()
		if _, ok := a.acquire("t", 1000); !ok {
			t.Fatal("quota-sized request rejected on idle tenant")
		}
		// Tenant t is now fully booked; cheap requests still pass.
		if _, ok := a.acquire("t", 99); !ok {
			t.Fatal("under-threshold request blocked by exhausted quota")
		}
		if a.bypassed.Load() != 1 || a.admitted.Load() != 1 {
			t.Fatalf("counters: bypassed=%d admitted=%d", a.bypassed.Load(), a.admitted.Load())
		}
	})
	t.Run("exhaustion rejects and release restores", func(t *testing.T) {
		a := newAdm()
		rel1, ok := a.acquire("t", 600)
		if !ok {
			t.Fatal("first request rejected")
		}
		if _, ok := a.acquire("t", 600); ok {
			t.Fatal("overdraw admitted")
		}
		if a.rejected.Load() != 1 {
			t.Fatalf("rejected=%d, want 1", a.rejected.Load())
		}
		rel1()
		rel1() // idempotent: double release must not double-credit
		if _, ok := a.acquire("t", 600); !ok {
			t.Fatal("request rejected after release freed the quota")
		}
	})
	t.Run("monster query charges the whole quota, no more", func(t *testing.T) {
		a := newAdm()
		rel, ok := a.acquire("t", 1<<40)
		if !ok {
			t.Fatal("over-quota request rejected on idle tenant")
		}
		if _, ok := a.acquire("t", 100); ok {
			t.Fatal("tenant fully booked by monster query but admitted more")
		}
		rel()
		if a.activeTenants() != 0 {
			t.Fatalf("tokens leaked after release: %d tenants active", a.activeTenants())
		}
	})
	t.Run("tenants are isolated", func(t *testing.T) {
		a := newAdm()
		if _, ok := a.acquire("alice", 1000); !ok {
			t.Fatal("alice rejected")
		}
		if _, ok := a.acquire("bob", 1000); !ok {
			t.Fatal("alice's load rejected bob")
		}
		if a.activeTenants() != 2 {
			t.Fatalf("activeTenants=%d, want 2", a.activeTenants())
		}
	})
	t.Run("disabled admits everything", func(t *testing.T) {
		a := newAdmission(AdmissionConfig{})
		if _, ok := a.acquire("t", 1<<50); !ok {
			t.Fatal("disabled controller rejected a request")
		}
	})
}

// TestTenantKey pins tenant resolution: X-API-Key wins, Authorization's
// scheme is stripped, anonymous traffic shares the global tenant.
func TestTenantKey(t *testing.T) {
	mk := func(h map[string]string) *http.Request {
		r := httptest.NewRequest(http.MethodPost, "/match", nil)
		for k, v := range h {
			r.Header.Set(k, v)
		}
		return r
	}
	if got := tenantKey(mk(nil)); got != "" {
		t.Errorf("anonymous tenant = %q, want global", got)
	}
	if got := tenantKey(mk(map[string]string{"X-API-Key": "k1"})); got != "k1" {
		t.Errorf("api-key tenant = %q", got)
	}
	if got := tenantKey(mk(map[string]string{"Authorization": "Bearer tok"})); got != "tok" {
		t.Errorf("bearer tenant = %q", got)
	}
	if got := tenantKey(mk(map[string]string{"X-API-Key": "k1", "Authorization": "Bearer tok"})); got != "k1" {
		t.Errorf("precedence tenant = %q, want api key", got)
	}
}

// TestRetryAfterJitter pins the jitter contract: per-tenant deterministic,
// bounded to [base/2, 3*base/2), and actually spread — distinct tenants
// must not all land on the same instant, or a quota release stampedes.
func TestRetryAfterJitter(t *testing.T) {
	a := newAdmission(AdmissionConfig{Enabled: true, RetryAfter: 4 * time.Second})
	base := a.cfg.RetryAfter
	seen := make(map[time.Duration]bool)
	for i := 0; i < 64; i++ {
		tenant := fmt.Sprintf("tenant-%d", i)
		d := a.retryAfterFor(tenant)
		if d < base/2 || d >= base+base/2 {
			t.Fatalf("retryAfterFor(%q) = %v, outside [%v, %v)", tenant, d, base/2, base+base/2)
		}
		if d2 := a.retryAfterFor(tenant); d2 != d {
			t.Fatalf("retryAfterFor(%q) unstable: %v then %v", tenant, d, d2)
		}
		seen[d] = true
	}
	if len(seen) < 16 {
		t.Fatalf("64 tenants landed on only %d distinct retry instants; jitter too coarse", len(seen))
	}
}

// TestAdmission429 exercises the HTTP rejection path: with the tenant's
// quota held by an in-flight request, an expensive query gets 429 with
// the Retry-After header and the structured JSON retry fields, while a
// different tenant's identical query is admitted.
func TestAdmission429(t *testing.T) {
	s := cliqueServer(t, 30, Config{})
	s.cfg.Admission = AdmissionConfig{Enabled: true, CheapThreshold: 2, RetryAfter: 3 * time.Second}
	s.adm = newAdmission(s.cfg.Admission)
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// Book tenant "alice" solid, as an in-flight expensive request would.
	release, ok := s.adm.acquire("alice", defaultTenantQuota)
	if !ok {
		t.Fatal("setup acquire failed")
	}
	defer release()

	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/count", matchBody(t,
		hgio.MatchRequest{Graph: "clique", Query: pathQueryText, Limit: 1}))
	req.Header.Set("X-API-Key", "alice")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	// The hint is jittered per tenant (thundering-herd protection):
	// deterministic for "alice", somewhere in [base/2, 3*base/2).
	wantRetry := s.adm.retryAfterFor("alice")
	wantHeader := strconv.FormatInt(int64((wantRetry+time.Second-1)/time.Second), 10)
	if got := resp.Header.Get("Retry-After"); got != wantHeader {
		t.Errorf("Retry-After = %q, want %q seconds", got, wantHeader)
	}
	var er hgio.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if er.Error == "" || er.RetryAfterMs != wantRetry.Milliseconds() || er.EstimatedCost == 0 {
		t.Fatalf("429 body = %+v, want error text, retry_after_ms=%d and a cost", er, wantRetry.Milliseconds())
	}

	// Same query, different tenant: admitted and served.
	req2, _ := http.NewRequest(http.MethodPost, srv.URL+"/count", matchBody(t,
		hgio.MatchRequest{Graph: "clique", Query: pathQueryText, Limit: 1}))
	req2.Header.Set("X-API-Key", "bob")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("other tenant status = %d, want 200", resp2.StatusCode)
	}
	if n := s.adm.admitted.Load(); n != 2 {
		t.Errorf("admitted=%d, want 2 (the booking and bob's request; alice's was refused)", n)
	}
}

// TestAdmissionReleasesOnCancelAndTimeout: tokens must return to the
// quota when the run ends for ANY reason — engine timeout, client
// disconnect — not just clean completion.
func TestAdmissionReleasesOnCancelAndTimeout(t *testing.T) {
	s := cliqueServer(t, 60, Config{})
	s.cfg.Admission = AdmissionConfig{Enabled: true, CheapThreshold: 2}
	s.adm = newAdmission(s.cfg.Admission)
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// Timeout path: the run trips its 1ms deadline, the handler returns,
	// the deferred release must have drained the tenant's tokens.
	postCount(t, srv.URL, hgio.MatchRequest{Graph: "clique", Query: pathQueryText, TimeoutMs: 1})
	if n := s.adm.activeTenants(); n != 0 {
		t.Fatalf("tokens held after engine timeout: %d tenants", n)
	}

	// Disconnect path: the client hangs up mid-stream; once the handler
	// notices (context cancellation) and returns, tokens must be back.
	client := &http.Client{Timeout: 200 * time.Millisecond}
	if resp, err := client.Post(srv.URL+"/match", "application/json", matchBody(t,
		hgio.MatchRequest{Graph: "clique", Query: pathQueryText, TimeoutMs: 60_000})); err == nil {
		buf := make([]byte, 512)
		resp.Body.Read(buf)
		resp.Body.Close()
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.adm.activeTenants() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("tokens still held 10s after client disconnect")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestConcurrentMatchMixed is the server half of the concurrency battery:
// cheap and expensive queries hammer one server (one shared pool)
// concurrently, every response must equal its solo baseline, and a
// deliberately timed-out heavy request in the mix must not corrupt or
// stall anyone else.
func TestConcurrentMatchMixed(t *testing.T) {
	h, err := hgmatch.Load(strings.NewReader(fig1DataText))
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	reg.Add("fig1", h)
	reg.Add("clique", clique(t, 8))
	s := New(reg, Config{Workers: 4})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	requests := []hgio.MatchRequest{
		{Graph: "fig1", Query: fig1QueryText},               // cheap
		{Graph: "clique", Query: pathQueryText},             // expensive
		{Graph: "fig1", Query: fig1QueryText, Workers: 2},   // cheap, capped
		{Graph: "clique", Query: pathQueryText, Workers: 1}, // expensive, capped
	}
	type golden struct {
		lines   []string
		summary hgio.MatchSummary
	}
	post := func(req hgio.MatchRequest) (golden, int, error) {
		resp, err := http.Post(srv.URL+"/match", "application/json", matchBody(t, req))
		if err != nil {
			return golden{}, 0, err
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		if resp.StatusCode != http.StatusOK {
			return golden{}, resp.StatusCode, fmt.Errorf("status %d: %s", resp.StatusCode, buf.String())
		}
		lines, summary := normalisedStream(t, buf.Bytes())
		summary.PlanCached = false // first run compiles, the rest hit the cache
		return golden{lines, summary}, resp.StatusCode, nil
	}

	// Solo baselines, one request at a time.
	baselines := make([]golden, len(requests))
	for i, req := range requests {
		g, _, err := post(req)
		if err != nil {
			t.Fatal(err)
		}
		baselines[i] = g
	}

	const rounds = 6
	var wg sync.WaitGroup
	errs := make(chan error, rounds*(len(requests)+1))
	for r := 0; r < rounds; r++ {
		for i, req := range requests {
			wg.Add(1)
			go func(r, i int, req hgio.MatchRequest) {
				defer wg.Done()
				g, _, err := post(req)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(g, baselines[i]) {
					errs <- fmt.Errorf("round %d req %d: concurrent response differs from solo baseline", r, i)
				}
			}(r, i, req)
		}
		// One doomed heavy request per round: times out mid-run and must
		// leave everyone else untouched.
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/match", "application/json", matchBody(t,
				hgio.MatchRequest{Graph: "clique", Query: pathQueryText, TimeoutMs: 1}))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestStatsEndpoint: GET /stats reports the pool's shape and counters
// that move with traffic, plus the admission configuration.
func TestStatsEndpoint(t *testing.T) {
	s := newTestServer(t, Config{
		Workers:   2,
		Admission: AdmissionConfig{Enabled: true, CheapThreshold: 7, TenantQuota: 42},
	})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	st := getStats(t, srv.URL)
	if st.PoolWorkers != 2 || !st.AdmissionEnabled || st.CheapThreshold != 7 || st.TenantQuota != 42 {
		t.Fatalf("stats = %+v, want pool_workers=2 and the admission config echoed", st)
	}
	if st.Submitted != 0 {
		t.Fatalf("fresh server submitted = %d", st.Submitted)
	}

	postCount(t, srv.URL, hgio.MatchRequest{Graph: "fig1", Query: fig1QueryText})

	st = getStats(t, srv.URL)
	if st.Submitted != 1 || st.Completed != 1 {
		t.Fatalf("after one match: %+v, want submitted=completed=1", st)
	}
	if st.Bypassed+st.Admitted != 1 {
		t.Fatalf("admission saw %d requests, want 1", st.Bypassed+st.Admitted)
	}
	if st.StreamWrites != 0 || st.StreamBytes != 0 {
		t.Fatalf("/count moved the stream counters: writes=%d bytes=%d", st.StreamWrites, st.StreamBytes)
	}

	// Fig. 1's two rows and summary are one frame: the counters move by
	// one write carrying the whole body.
	resp, err := http.Post(srv.URL+"/match", "application/json", matchBody(t, hgio.MatchRequest{Graph: "fig1", Query: fig1QueryText}))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st = getStats(t, srv.URL); st.StreamWrites != 1 || st.StreamBytes != uint64(len(body)) {
		t.Fatalf("after one /match of %d bytes: stream_writes=%d stream_bytes=%d, want 1 and %d", len(body), st.StreamWrites, st.StreamBytes, len(body))
	}
}
