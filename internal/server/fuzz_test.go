package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"hgmatch/internal/hgio"
)

// FuzzMatchRequest feeds arbitrary bodies to the request front that /match
// shares with /count: decodeRequest, then plan, which parses the query
// text, aligns its labels with the Fig. 1 graph's dictionary and compiles
// it. It must never panic, and every body must end in either a 4xx with an
// error body or a plan; a 5xx means a malformed request reached past the
// checks that should have refused it.
func FuzzMatchRequest(f *testing.F) {
	for _, seed := range []string{
		`{"graph":"fig1","query":"v A\nv C\nv A\nv A\nv B\ne 2 4\ne 0 1 2\ne 0 1 3 4"}`,
		`{"graph":"fig1","query":"v A\nv C\nv A\nv A\nv B\ne 0 1 3 4\ne 0 1 2\ne 2 4","limit":1,"workers":2,"timeout_ms":5}`,
		`{"graph":"fig1","query":"v A\nv B\ne 0 1"}`,
		`{"graph":"fig1","query":"v Z\nv A\ne 0 1"}`,
		`{"graph":"fig1","query":"v A\nv B\nv A\nv B\ne 0 1\ne 2 3"}`,
		`{"graph":"fig1","query":"v A\ne 0 5"}`,
		`{"graph":"fig1","query":"z 1 2"}`,
		`{"graph":"fig1","query":""}`,
		`{"graph":"fig1","query":"v A\ne 0","workers":-1}`,
		`{"graph":"fig1","query":"v A\ne 0","timeout_ms":9300000000000000000}`,
		`{"graph":"fig1","query":"v A","bogus":1}`,
		`{"graph":"nope","query":"v A\ne 0"}`,
		`{"graph": "fig1"`,
		``,
	} {
		f.Add([]byte(seed))
	}
	s := newTestServer(f, Config{})
	f.Cleanup(s.Close)
	f.Fuzz(func(t *testing.T, body []byte) {
		w := httptest.NewRecorder()
		req, ok := s.decodeRequest(w, httptest.NewRequest(http.MethodPost, "/match", bytes.NewReader(body)))
		if ok {
			plan, _, release, err := s.plan(req)
			if err == nil {
				release()
				if plan == nil {
					t.Fatal("plan returned neither a plan nor an error")
				}
				return
			}
			writePlanError(w, req.Graph, err)
		}
		if w.Code < 400 || w.Code >= 500 || !bytes.Contains(w.Body.Bytes(), []byte(`"error"`)) {
			t.Fatalf("body %q: status %d, %s; want a 4xx error or a plan", body, w.Code, w.Body)
		}
	})
}

// FuzzIngestBody feeds arbitrary NDJSON bodies to POST /graphs/{g}/edges
// on a fresh copy of the Fig. 1 graph. It must never panic and never
// answer 5xx: a body ends in a 200, a 400 or a 413. Whatever it answers,
// the published snapshot must pass Validate, and the summary's counts must
// add up to the lines applied: every line on a 200, all but the failing
// one on a 400 from a bad record, none on a 400 from a decode error or on
// a 413 (the batch is rejected before anything applies). Seeds: the
// ingest tests' bodies.
func FuzzIngestBody(f *testing.F) {
	for _, seed := range []string{
		"{\"op\":\"insert\",\"vertices\":[0,3]}\n{\"vertices\":[2,4]}\n{\"op\":\"delete\",\"vertices\":[4,6]}\n{\"op\":\"add_vertex\",\"label_name\":\"B\"}\n",
		"{\"op\":\"add_vertex\",\"label_name\":\"A\"}\n{\"op\":\"add_vertex\",\"label_name\":\"B\"}\n{\"op\":\"add_vertex\",\"label_name\":\"C\"}\n{\"op\":\"insert\",\"vertices\":[0,7]}\n",
		"{\"vertices\":[3,6]}\n{\"op\":\"frobnicate\"}",
		`{"op":"insert","vertices":[99]}`,
		"{\"vertices\":[0,3]}\n{\"vertices\":[0,6]}\n{\"vertices\":[1,3]}\n",
		`{"vertices":[0,2]}`,
		`{"vertices":[0,1]`,
		"",
		strings.Repeat("{\"vertices\":[0,3]}\n", 300), // past MaxBodyBytes: 413
	} {
		f.Add([]byte(seed))
	}
	s := newTestServer(f, Config{MaxBodyBytes: 4096})
	f.Cleanup(s.Close)
	fig1 := snapshotOf(f, s.Graphs(), "fig1")
	f.Fuzz(func(t *testing.T, body []byte) {
		if err := s.Graphs().Add("g", fig1); err != nil {
			t.Fatal(err)
		}
		rr := post(s.Handler(), "/graphs/g/edges", string(body))
		var sum hgio.IngestSummary
		if err := json.Unmarshal(rr.Body.Bytes(), &sum); err != nil {
			t.Fatalf("body %q: status %d, unreadable summary %s", body, rr.Code, rr.Body)
		}
		want := sum.Lines
		switch {
		case rr.Code == http.StatusRequestEntityTooLarge, rr.Code == http.StatusBadRequest && strings.Contains(sum.Error, "nothing applied"):
			want = 0
		case rr.Code == http.StatusBadRequest:
			want--
		case rr.Code != http.StatusOK:
			t.Fatalf("body %q: status %d, %s; want 200, 400 or 413", body, rr.Code, rr.Body)
		}
		if got := sum.Inserted + sum.Duplicates + sum.Deleted + sum.Missing + sum.VerticesAdded; got != want {
			t.Fatalf("body %q: status %d counts %d applied lines, want %d: %s", body, rr.Code, got, want, rr.Body)
		}
		if err := snapshotOf(t, s.Graphs(), "g").Validate(); err != nil {
			t.Fatalf("body %q: published snapshot invalid: %v", body, err)
		}
	})
}
