package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"hgmatch"
	"hgmatch/internal/core"
	"hgmatch/internal/engine"
	"hgmatch/internal/hgio"
	"hgmatch/internal/hgtest"
	"hgmatch/internal/hypergraph"
)

// matrixSet is a logical edge set with its oracle queries and, per query,
// the matching order and uncapped counters of the set's first cell.
type matrixSet struct {
	*hgtest.OracleSet
	orders [][]hgmatch.EdgeID
	cts    [][3]uint64
}

// matrixCell is one storage of a logical edge set: graph on srv, on tier.
type matrixCell struct {
	base, set, name, tier, graph string
	srv                          *Server
}

// TestAnswerMatrix checks every way the service answers a query against
// one independent oracle: the match-by-vertex framework of
// internal/baseline (Algorithm 1 with the Theorem III.2 check), run once
// per logical edge set on a cold heap build of the served graph's live
// edges. The axes:
//
//   - storage, obtained through the Registry, over a bitmap-dense and an
//     array-only base: heap-v2, heap-v3, mapped-v3 via LoadFile, a
//     tombstone-masked table, an emptied table, live-delta, a chain of
//     incremental publishes, compacted, mapped-v3 promoted by that ingest,
//     and durable-v3 recovered after a restart, each on its expected tier;
//   - path: engine.Run on the acquired snapshot, and the server's shared
//     pool (admission on) beside a neighbour request, so that yields fire;
//   - request: no limit, limit, /count and the group callback (the
//     server streams /match through it);
//   - pools of 1 and 4 workers, requests capped at 1 or 4 of them (CI
//     runs the suite at GOMAXPROCS 1 and 4).
//
// Per cell the rows must be the oracle's: as a set when uncapped, and the
// first n oracle tuples in the served plan's order when capped at n, byte
// for byte on the wire. Per logical edge set the matching order and the
// candidates/filtered/valid counters must be equal across cells. The plan
// cache is on, and a query's reordered-edge twin follows it.
func TestAnswerMatrix(t *testing.T) {
	sets := map[string]*matrixSet{}
	for _, width := range []int{1, 4} {
		cells, servers := matrixCells(t, width)
		for _, c := range cells {
			if key := c.base + "/" + c.set; sets[key] == nil {
				oracle, err := hgtest.NewOracleSet(snapshotOf(t, c.srv.Graphs(), c.graph), int64(len(sets)), 2000)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				n := len(oracle.Queries)
				sets[key] = &matrixSet{oracle, make([][]hgmatch.EdgeID, n), make([][3]uint64, n)}
			}
		}
		for _, c := range cells {
			if width == 1 { // Run builds its own pool: one width covers it
				checkCell(t, width, c, sets[c.base+"/"+c.set], false)
			}
		}
		yields := uint64(0)
		for _, s := range servers {
			stop := startNeighbour(t, s)
			for _, c := range cells {
				if c.srv == s {
					checkCell(t, width, c, sets[c.base+"/"+c.set], true)
				}
			}
			stop()
			yields += s.Pool().Stats().Yields
		}
		if yields == 0 {
			t.Fatalf("pools of %d: no yield beside the neighbour", width)
		}
	}
}

// matrixCells registers every storage cell of both bases on two servers
// whose pools have width workers: a plain one, and a durable one booted
// after its predecessor took the durable cells' writes.
func matrixCells(t *testing.T, width int) ([]matrixCell, []*Server) {
	dir := t.TempDir()
	cfg := Config{Workers: width, Admission: AdmissionConfig{Enabled: true, CheapThreshold: 1}}
	boot := func() *Server {
		reg := NewRegistry()
		if err := reg.EnableDurability(DurabilityConfig{Dir: filepath.Join(dir, "wal")}); err != nil {
			t.Fatal(err)
		}
		return New(reg, cfg)
	}
	plain, durable := New(NewRegistry(), cfg), boot()
	var cells []matrixCell
	for _, g := range hgtest.ServingGraphs()[:2] {
		v2 := filepath.Join(dir, g.Name+".hgb2")
		if err := hgio.WriteBinaryFile(v2, g.Graph); err != nil {
			t.Fatal(err)
		}
		v3, _ := writeV3Graph(t, dir, g.Name, g.Graph)
		h3, err := hgio.ReadAutoFile(v3)
		if err != nil {
			t.Fatal(err)
		}
		delta := matrixWrites(g.Graph)
		all := []string{strings.Join(delta, "")}
		for _, spec := range []struct {
			set, name, tier string
			srv             *Server
			add             *hgmatch.Hypergraph // registered by Add, or else file by LoadFile
			file            string
			writes          []string
		}{
			{"base", "heap-v2", "heap", plain, nil, v2, nil},
			{"base", "heap-v3", "heap", plain, h3, "", nil},
			{"base", "mapped-v3", "mapped", plain, nil, v3, nil},
			{"masked", "masked", "heap", plain, g.Graph, "", delta[:1]},
			{"emptied", "emptied", "heap", plain, g.Graph, "", delta[:2]},
			{"delta", "live-delta", "heap", plain, g.Graph, "", all},
			{"delta", "chain", "heap", plain, g.Graph, "", delta},
			{"delta", "compacted", "heap", plain, g.Graph, "", all},
			{"delta", "promoted-v3", "mapped", plain, nil, v3, all},
			{"delta", "durable-v3", "heap", durable, nil, v3, all},
		} {
			c := matrixCell{g.Name, spec.set, spec.name, spec.tier, g.Name + "-" + spec.name, spec.srv}
			if spec.add != nil {
				err = c.srv.Graphs().Add(c.graph, spec.add)
			} else {
				err = c.srv.Graphs().LoadFile(c.graph, spec.file)
			}
			if err != nil {
				t.Fatal(err)
			}
			snapshotOf(t, c.srv.Graphs(), c.graph) // maps an HGB3 file before any write promotes it
			for _, body := range spec.writes {
				if rr := post(c.srv.Handler(), "/graphs/"+c.graph+"/edges", body); rr.Code != http.StatusOK {
					t.Fatalf("%s: ingest: %d %s", c.graph, rr.Code, rr.Body)
				}
			}
			if c.name == "compacted" {
				if rr := post(c.srv.Handler(), "/graphs/"+c.graph+"/compact", ""); rr.Code != http.StatusOK {
					t.Fatalf("%s: compact: %d %s", c.graph, rr.Code, rr.Body)
				}
			}
			cells = append(cells, c)
		}
		v2Info, _ := plain.Graphs().Info(g.Name + "-heap-v2")
		v3Info, _ := plain.Graphs().Info(g.Name + "-heap-v3")
		v2Info.Name = v3Info.Name
		if v2Info != v3Info || v2Info.Signatures == 0 || v2Info.IndexBytes == 0 || (v2Info.BitmapVertices > 0) != (g.Name == "dense") {
			t.Fatalf("%s: heap loads of v2 and v3 differ, or lack a storage field: %+v, %+v", g.Name, v2Info, v3Info)
		}
	}
	if ts := plain.Graphs().TierStats(); ts.Promotions != 2 {
		t.Fatalf("%+v: want both promoted-v3 cells promoted off their mapping", ts)
	}
	durable.Close()
	restarted := boot()
	t.Cleanup(plain.Close)
	t.Cleanup(restarted.Close)
	for i, c := range cells {
		if c.srv == durable {
			cells[i].srv = restarted
			if err := restarted.Graphs().LoadFile(c.graph, filepath.Join(dir, c.base+".hgb3")); err != nil {
				t.Fatal(err)
			}
			if info, _ := restarted.Graphs().Info(c.graph); info.ReadOnly || info.WalLastSeq != 1 {
				t.Fatalf("%s: recovered %+v, want the one batch ingested", c.graph, info)
			}
		}
	}
	return cells, []*Server{plain, restarted}
}

// matrixWrites returns four NDJSON ingest batches for base: three deletes
// from its largest table (a bitmap table on the dense base), so one table
// is masked alone; every edge of its smallest table of two or more, so one
// is emptied; random inserts, spread deletes and deletes of two of those
// inserts; and the resurrection of a deleted base edge beside more
// inserts.
func matrixWrites(base *hgmatch.Hypergraph) (batches []string) {
	rng := rand.New(rand.NewSource(int64(base.NumEdges())))
	size := func(pi int) int { return len(base.Partition(pi).Edges) }
	largest, smallest := 0, -1
	for pi := range base.NumPartitions() {
		if size(pi) > size(largest) {
			largest = pi
		}
		if size(pi) >= 2 && (smallest < 0 || size(pi) < size(smallest)) {
			smallest = pi
		}
	}
	var b strings.Builder
	write := func(op string, vs []uint32) []uint32 {
		line, _ := json.Marshal(hgio.IngestRecord{Op: op, Vertices: vs})
		b.Write(append(line, '\n'))
		return vs
	}
	insert := func() []uint32 {
		vs := make([]uint32, 2+rng.Intn(3))
		for j, v := range rng.Perm(base.NumVertices())[:len(vs)] {
			vs[j] = uint32(v)
		}
		return write("insert", vs)
	}
	del := func(es ...hgmatch.EdgeID) {
		for _, e := range es {
			write("delete", base.Edge(e))
		}
	}
	batch := func() {
		batches = append(batches, b.String())
		b.Reset()
	}
	del(base.Partition(largest).Edges[:3]...)
	batch()
	del(base.Partition(smallest).Edges...)
	batch()
	var inserted [][]uint32
	for range 12 {
		inserted = append(inserted, insert())
	}
	write("delete", inserted[0])
	write("delete", inserted[5])
	for e := 5; e < base.NumEdges(); e += 17 {
		del(hgmatch.EdgeID(e))
	}
	batch()
	write("insert", base.Edge(22)) // resurrects a delete of the batch before
	for range 6 {
		insert()
	}
	batch()
	return batches
}

// checkCell sends every query of set to cell c: through engine.Run on its
// acquired snapshot or, with pool set, to its server as /count, an
// uncapped /match and capped /matches.
func checkCell(t *testing.T, width int, c matrixCell, set *matrixSet, pool bool) {
	h, _, release, err := c.srv.Graphs().Acquire(c.graph)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if info, _ := c.srv.Graphs().Info(c.graph); info.Tier != c.tier || info.ReadOnly || !cellShape(c, h) {
		t.Fatalf("%s: %+v, want a writable graph on tier %q with the shape the cell is named for", c.graph, info, c.tier)
	}
	ids, err := set.ServedIDs(h)
	if err != nil {
		t.Fatalf("%s: %v", c.graph, err)
	}
	for qi, q := range set.Queries {
		what := fmt.Sprintf("%s query %d (%d edges), pool of %d", c.graph, qi, q.Query.NumEdges(), width)
		p, err := core.NewPlan(q.Query, h)
		if err != nil {
			t.Fatal(err)
		}
		if set.orders[qi] == nil {
			set.orders[qi], set.cts[qi] = p.Order, counters(engine.Run(p, engine.Options{}).Counters)
		}
		firstOrder, firstCt := set.orders[qi], set.cts[qi]
		want := q.Rows(ids, firstOrder)
		all := sortedLines(wire(want))
		// check holds one answer to the oracle's: its rows as a set when
		// uncapped, else as the first limit oracle rows in order; and its
		// plan order and uncapped counters to the edge set's first cell's.
		check := func(kind string, limit, n uint64, order []hgmatch.EdgeID, ct [3]uint64, got []byte) {
			t.Helper()
			exp := want[:min(limit, uint64(len(want)))]
			same := bytes.Equal(got, wire(exp))
			if limit == 0 {
				exp, same = want, slices.Equal(sortedLines(got), all)
			}
			if !slices.Equal(order, firstOrder) || limit == 0 && ct != firstCt {
				t.Fatalf("%s %s: order %v, counters %v; on the edge set's first cell %v, %v", what, kind, order, ct, firstOrder, firstCt)
			}
			if n != uint64(len(exp)) || !strings.HasSuffix(kind, "count") && !same {
				t.Fatalf("%s %s limit %d: count %d, %d rows; want the oracle's %d rows in plan order", what, kind, limit, n, bytes.Count(got, []byte("\n")), len(exp))
			}
		}
		// Uncapped, then capped at one row, inside a block, and beyond one
		// or past the whole answer.
		for _, limit := range []uint64{0, 1, 7, 100} {
			if pool {
				send := func(path string) {
					body, _ := json.Marshal(hgio.MatchRequest{Graph: c.graph, Query: graphText(t, q.Query), Limit: limit, Workers: 1 + 3*(qi%2)})
					out := post(c.srv.Handler(), path, string(body))
					b := out.Body.Bytes()
					cut := bytes.LastIndexByte(b[:max(len(b)-1, 0)], '\n') + 1
					var sum hgio.MatchSummary
					if out.Code != http.StatusOK || json.Unmarshal(b[cut:], &sum) != nil || !sum.Done || sum.Error != "" {
						t.Fatalf("%s %s: status %d: %s", what, path, out.Code, b)
					}
					check(path, limit, sum.Embeddings, sum.Order, [3]uint64{sum.Candidates, sum.Filtered, sum.Valid}, b[:cut])
				}
				if send("/match"); limit == 0 {
					send("/count")
				}
				continue
			}
			var mu sync.Mutex
			var got []byte
			run := func(kind string, opts engine.Options) {
				opts.Workers, opts.Limit = 4, limit
				res := engine.Run(p, opts)
				if res.Err != nil || res.LeakedBlocks != 0 {
					t.Fatalf("%s Run %s: err %v, %d leaked blocks", what, kind, res.Err, res.LeakedBlocks)
				}
				check("Run "+kind, limit, res.Embeddings, p.Order, counters(res.Counters), got)
			}
			run("rows", engine.Options{OnGroup: hgtest.SerialRowsOf(func(m []hgmatch.EdgeID) { got = hgio.AppendEmbeddingRecord(got, m) })})
			if got = nil; limit == 0 {
				run("count", engine.Options{})
				run("group", engine.Options{OnGroup: func(_ int, prefix, last []hgmatch.EdgeID) {
					mu.Lock()
					defer mu.Unlock()
					for _, e := range last {
						got = hgio.AppendEmbeddingRecord(got, append(slices.Clone(prefix), e))
					}
				}})
			}
		}
	}
}

// counters keeps the paper's per-step funnel of c: candidates, filtered,
// valid.
func counters(c core.Counters) [3]uint64 { return [3]uint64{c.Candidates, c.Filtered, c.Valid} }

// wire renders rows as /match streams them.
func wire(rows [][]hgmatch.EdgeID) (b []byte) {
	for _, m := range rows {
		b = hgio.AppendEmbeddingRecord(b, m)
	}
	return b
}

// sortedLines splits NDJSON into its lines, sorted.
func sortedLines(b []byte) []string {
	return slices.Sorted(slices.Values(strings.SplitAfter(string(b), "\n")))
}

// cellShape reports whether h has the storage shape cell c is named for.
func cellShape(c matrixCell, h *hgmatch.Hypergraph) bool {
	table := func(ok func(p *hypergraph.Partition) bool) bool {
		for pi := range h.NumPartitions() {
			if p := h.Partition(pi); ok(&p) {
				return true
			}
		}
		return false
	}
	switch c.name {
	case "masked": // a table masked alone: it gains no delta, and the dense base's keeps its bitmaps
		return table(func(p *hypergraph.Partition) bool {
			return len(p.DeadEdges()) > 0 && !p.HasDelta() && p.HasBitmaps() == (c.base == "dense")
		})
	case "emptied":
		return table(func(p *hypergraph.Partition) bool { return p.Len() == 0 })
	case "live-delta", "chain", "promoted-v3", "durable-v3":
		return h.HasDelta()
	case "compacted":
		return !h.HasDelta() && h.NumLiveEdges() == h.NumEdges()
	}
	return true
}

// pacedWriter is a response sink that hands the CPU on at every write, as
// a socket write would, so a worker streaming to it lets other goroutines
// register requests between its flushes even at GOMAXPROCS=1.
type pacedWriter struct{ *httptest.ResponseRecorder }

func (pacedWriter) Write(p []byte) (int, error) {
	runtime.Gosched()
	return len(p), nil
}

// startNeighbour keeps heavy /match streams running on s's shared pool,
// one after another and under their own admission tenant, until the
// returned stop is called: every matrix request arrives beside one, so the
// neighbour's worker yields. Each stream times out after 5 ms, which
// bounds how long a matrix request can queue behind it.
func startNeighbour(t *testing.T, s *Server) (stop func()) {
	if err := s.Graphs().Add("neighbour", clique(t, 40)); err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(hgio.MatchRequest{Graph: "neighbour", Query: pathQueryText, Workers: 1, TimeoutMs: 5})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ctx.Err() == nil {
			req := httptest.NewRequest(http.MethodPost, "/match", bytes.NewReader(body)).WithContext(ctx)
			req.Header.Set("X-API-Key", "neighbour")
			s.Handler().ServeHTTP(pacedWriter{httptest.NewRecorder()}, req)
		}
	}()
	stop = sync.OnceFunc(func() { cancel(); <-done })
	t.Cleanup(stop)
	return stop
}
