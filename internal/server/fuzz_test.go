package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
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
			writePlanError(w, req, err)
		}
		if w.Code < 400 || w.Code >= 500 || !bytes.Contains(w.Body.Bytes(), []byte(`"error"`)) {
			t.Fatalf("body %q: status %d, %s; want a 4xx error or a plan", body, w.Code, w.Body)
		}
	})
}
