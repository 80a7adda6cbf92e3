package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"hgmatch/internal/hgio"
	"hgmatch/internal/hgtest"
)

// TestCappedMatchStream pins the capped answer end to end: a /match with a
// limit streams exactly the first limit rows of the sequential order, byte
// for byte, on pools of 1 and 4 workers with requests capped at 1 and 4,
// over the four serving shapes — the live-delta one grown by ingest into
// the registry's own buffer.
func TestCappedMatchStream(t *testing.T) {
	graphs := hgtest.ServingGraphs()
	for _, width := range []int{1, 4} {
		reg := NewRegistry()
		for _, g := range graphs {
			h := g.Graph
			if g.Name == "delta" {
				h = graphs[1].Graph // the base ApplyDelta grows
			}
			if err := reg.Add(g.Name, h); err != nil {
				t.Fatal(err)
			}
		}
		live, _ := reg.Live("delta")
		if err := hgtest.ApplyDelta(live); err != nil {
			t.Fatal(err)
		}
		// The plan cache is disabled: its keys treat two samples of one
		// edge set as one query even when their edges are numbered apart,
		// and a plan cached under the other numbering orders its columns
		// differently from the plan each expected answer comes from.
		s := New(reg, Config{PlanCacheSize: -1, Workers: width, MaxWorkers: 4})
		ts := httptest.NewServer(s.Handler())
		for gi, g := range graphs {
			snap, _ := reg.Get(g.Name)
			cases, err := hgtest.CappedCases(snap, int64(gi), 2000)
			if err != nil {
				t.Fatalf("%s: %v", g.Name, err)
			}
			for ci, c := range cases {
				query := graphText(t, c.Query)
				for _, limit := range c.Limits() {
					var want []byte
					for _, m := range c.Prefix(limit) {
						want = hgio.AppendEmbeddingRecord(want, m)
					}
					for _, workers := range []int{1, 4} {
						req, _ := json.Marshal(hgio.MatchRequest{Graph: g.Name, Query: query, Limit: limit, Workers: workers})
						resp, body := postJSON(t, ts, "/match", string(req))
						cut := bytes.LastIndexByte(body[:max(len(body)-1, 0)], '\n') + 1
						var sum hgio.MatchSummary
						if resp.StatusCode != http.StatusOK || json.Unmarshal(body[cut:], &sum) != nil || !sum.Done || sum.Error != "" {
							t.Fatalf("%s query %d: status %d, summary %q", g.Name, ci, resp.StatusCode, body[cut:])
						}
						if !bytes.Equal(body[:cut], want) || sum.Embeddings != uint64(len(c.Prefix(limit))) {
							t.Fatalf("%s query %d limit %d pool=%d workers=%d: streamed %d bytes (count %d), want the first %d rows of the sequential order",
								g.Name, ci, limit, width, workers, cut, sum.Embeddings, len(c.Prefix(limit)))
						}
					}
				}
			}
		}
		ts.Close()
		s.Close()
	}
}
