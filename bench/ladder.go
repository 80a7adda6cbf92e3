package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"hgmatch"
	"hgmatch/internal/core"
	"hgmatch/internal/engine"
	"hgmatch/internal/hgio"
	"hgmatch/internal/hypergraph"
	"hgmatch/internal/server"
	"hgmatch/internal/setops"
	"hgmatch/internal/shard"
)

// The ladder times the same queries at successively deeper entry points of
// the serving path, from a real loopback socket down to the sequential
// enumerator, by calling each layer's public functions from this process.
// Rungs are separate executions, so a layer's self time is its rung's
// duration minus the next rung's, reported as measured: a negative self
// time says the difference is inside the noise, and is not clamped.

// ladderPasses is how often every rung runs the ladder's queries; a rung's
// time is the median over passes.
const ladderPasses = 5

// span is one timed call, in the shape the tracing guide asks for. Spans of
// one query share req; parent is the rung above.
type span struct {
	ID     int               `json:"id"`
	Parent int               `json:"parent"`
	Req    int               `json:"req"`
	Name   string            `json:"name"`
	Start  int64             `json:"start_ns"`
	End    int64             `json:"end_ns"`
	Counts map[string]uint64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func (t *tracer) add(parent, req int, name string, start, end time.Time, counts map[string]uint64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), Counts: counts})
	return id
}

// selfTime is the ladder's arithmetic: a rung minus the rung below it.
func selfTime(rung, below float64) float64 { return rung - below }

// memWriter is the in-memory http.ResponseWriter of the handler rungs.
type memWriter struct {
	header http.Header
	status int
	tally  tally
}

func (w *memWriter) Header() http.Header { return w.header }
func (w *memWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}
func (w *memWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	w.tally.add(p)
	return len(p), nil
}
func (w *memWriter) Flush() {}

// serve runs one request through handler into memory and checks the answer.
func serve(handler http.Handler, r *request) (uint64, string) {
	w := &memWriter{header: http.Header{}}
	handler.ServeHTTP(w, httptest.NewRequest(http.MethodPost, r.path, bytes.NewReader(r.body)))
	return w.tally.finish(w.status, r)
}

// rowSummer computes an order-independent checksum of an embedding set: the
// wrapping sum of a hash of every row, each row re-indexed by query
// hyperedge so that two plans with different matching orders agree.
type rowSummer struct {
	sum    uint64
	byEdge []hypergraph.EdgeID
	text   []byte
}

func (rs *rowSummer) add(order, m []hypergraph.EdgeID) {
	rs.byEdge = append(rs.byEdge[:0], m...)
	for i, qe := range order {
		rs.byEdge[qe] = m[i]
	}
	rs.text = rs.text[:0]
	for _, e := range rs.byEdge {
		rs.text = strconv.AppendUint(rs.text, uint64(e), 10)
		rs.text = append(rs.text, ',')
	}
	h := fnv.New64a()
	h.Write(rs.text)
	rs.sum += h.Sum64()
}

// checkMatchRows streams /match for r over a real socket, parses every row
// and compares the checksum of the rows with the sequential enumerator's.
func checkMatchRows(base string, r *request, plan *core.Plan) string {
	var want, got rowSummer
	plan.EnumerateSequential(func(m []hypergraph.EdgeID) { want.add(plan.Order, m) })
	resp, err := http.Post(base+r.path, "application/json", bytes.NewReader(r.body))
	if err != nil {
		return err.Error()
	}
	defer resp.Body.Close()
	// Rows are kept flat until the summary, which carries the matching
	// order they are aligned with, arrives as the last line.
	var flat []hypergraph.EdgeID
	var sum hgio.MatchSummary
	rows := 0
	prefix := []byte(`{"embedding":[`)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if !bytes.HasPrefix(line, prefix) {
			if err := json.Unmarshal(line, &sum); err != nil {
				return "bad summary line: " + err.Error()
			}
			break
		}
		var x uint32
		for _, c := range line[len(prefix):] {
			if c >= '0' && c <= '9' {
				x = x*10 + uint32(c-'0')
			} else { // ',' between IDs, ']' after the last
				flat = append(flat, x)
				x = 0
				if c == ']' {
					break
				}
			}
		}
		rows++
	}
	if err := sc.Err(); err != nil {
		return "reading rows: " + err.Error()
	}
	if msg := checkSummary(r, &sum, rows+1); msg != "" {
		return msg
	}
	width := len(sum.Order)
	if width == 0 || len(flat) != rows*width {
		return fmt.Sprintf("%d edge IDs in %d rows of a %d-edge query", len(flat), rows, width)
	}
	for i := 0; i < len(flat); i += width {
		got.add(sum.Order, flat[i:i+width])
	}
	if got.sum != want.sum {
		return fmt.Sprintf("row checksum %x, sequential enumerator says %x", got.sum, want.sum)
	}
	return ""
}

// ladderQueries returns the pool's n cheapest queries by oracle count.
func ladderQueries(pool []*query, n int) []*query {
	qs := append([]*query(nil), pool...)
	sort.SliceStable(qs, func(i, j int) bool { return qs[i].count < qs[j].count })
	if n < len(qs) {
		qs = qs[:n]
	}
	return qs
}

// rungTimes collects, per rung, the total duration of each pass.
type rungTimes map[string][]time.Duration

// perQuery is a rung's time in seconds per query: the median over passes of
// the pass total, divided by the number of queries.
func (rt rungTimes) perQuery(name string, queries int) float64 {
	xs := make([]float64, len(rt[name]))
	for i, d := range rt[name] {
		xs[i] = d.Seconds()
	}
	return median(xs) / float64(queries)
}

// ladder runs the rungs and sets the setops, core, engine, shard and server
// rung metrics.
func (hn *harness) ladder(tr *tracer) error {
	m, sp := hn.rep.Metrics, hn.spec
	qs := ladderQueries(hn.stream.pool, sp.ladderN)
	nproc := hn.nproc

	// The same file the server loads, through the same reader.
	data, err := hgio.ReadAutoFile(hn.dataPath)
	if err != nil {
		return err
	}
	reg := server.NewRegistry()
	if err := reg.LoadFile(graphName, hn.dataPath); err != nil {
		return err
	}
	srv := server.New(reg, server.Config{})
	defer srv.Close()
	handler := srv.Handler()
	sock := httptest.NewServer(handler)
	defer sock.Close()
	client := newClient(hn.ctx, sock.URL, 1)
	defer client.close()
	pool := engine.NewPool(nproc)
	defer pool.Close()
	shards := map[int]*shard.Graph{}
	for _, n := range []int{1, 2} {
		if shards[n], err = shard.New(data, n); err != nil {
			return err
		}
	}

	type prepared struct {
		q            *query
		count, match *request
		plan         *core.Plan
		shardPlan    map[int]*core.Plan // compiled against each shard graph's mirror
	}
	var ps []prepared
	for _, q := range qs {
		p := prepared{q: q, shardPlan: map[int]*core.Plan{}}
		if p.count, err = encodeRequest(q, "/count", 0, false); err != nil {
			return err
		}
		if p.match, err = encodeRequest(q, "/match", sp.limit, false); err != nil {
			return err
		}
		if p.plan, err = core.NewPlan(q.graph, data); err != nil {
			return err
		}
		for n, g := range shards {
			if p.shardPlan[n], err = core.NewPlan(q.graph, g.Live().Snapshot()); err != nil {
				return err
			}
		}
		// Unlimited streams are checked row by row once, outside the timing.
		if sp.limit == 0 {
			hn.record("row checksum "+q.ref, checkMatchRows(sock.URL, p.match, p.plan))
		}
		ps = append(ps, p)
	}

	rt := rungTimes{}
	var (
		buf        = make([]byte, 64<<10)
		t0         = time.Now()
		ct         core.Counters
		matchEmb   uint64
		tasks      []float64
		steals     []float64
		imbalance  []float64
		peakBytes  int64
		leaked     int64
		mallocs    uint64
		runEmb     uint64
		units      []float64
		memBefore  runtime.MemStats
		memAfter   runtime.MemStats
		checkCount = func(what string, q *query, got uint64) {
			if got != q.count {
				hn.record(what+" "+q.ref, fmt.Sprintf("embeddings %d, oracle says %d", got, q.count))
			} else {
				hn.record(what+" "+q.ref, "")
			}
		}
	)
	for pass := 0; pass < ladderPasses; pass++ {
		if err := hn.ctx.Err(); err != nil {
			return err
		}
		passTime := map[string]time.Duration{}
		var passTasks, passSteals, passUnits float64
		ct, matchEmb, runEmb, mallocs = core.Counters{}, 0, 0, 0
		for i := range ps {
			p := &ps[i]
			// rung times one call and records its span under parent.
			rung := func(parent int, name string, call func() map[string]uint64) int {
				start := time.Now()
				counts := call()
				end := time.Now()
				passTime[name] += end.Sub(start)
				return tr.add(parent, p.q.id, name, start, end, counts)
			}
			overSocket := func(r *request) func() map[string]uint64 {
				return func() map[string]uint64 {
					s := client.query(t0, r, buf)
					hn.record("ladder socket "+r.path+" "+p.q.ref, s.err)
					return map[string]uint64{"embeddings": s.embeddings, "bytes": uint64(s.bytes)}
				}
			}
			inMemory := func(r *request) func() map[string]uint64 {
				return func() map[string]uint64 {
					emb, msg := serve(handler, r)
					hn.record("ladder handler "+r.path+" "+p.q.ref, msg)
					return map[string]uint64{"embeddings": emb}
				}
			}
			fromResult := func(what string, res engine.Result) map[string]uint64 {
				checkCount(what, p.q, res.Embeddings)
				if res.Err != nil {
					hn.record(what+" "+p.q.ref, res.Err.Error())
				}
				return map[string]uint64{"embeddings": res.Embeddings, "candidates": res.Counters.Candidates,
					"tasks": res.TotalTasks(), "steals": res.TotalSteals()}
			}

			id := rung(0, "server.socket_match", overSocket(p.match))
			matchEmb += p.match.expect()
			rung(id, "server.handler_match", inMemory(p.match))

			id = rung(0, "server.socket_count", overSocket(p.count))
			id = rung(id, "server.handler_count", inMemory(p.count))
			rung(id, "shard.scatter_n2", func() map[string]uint64 {
				return fromResult("scatter n=2", shard.Scatter(pool, shards[2], p.shardPlan[2], engine.Options{}))
			})
			id = rung(id, "shard.scatter_n1", func() map[string]uint64 {
				before := pool.Stats().Submitted
				res := shard.Scatter(pool, shards[1], p.shardPlan[1], engine.Options{})
				passUnits += float64(pool.Stats().Submitted - before)
				return fromResult("scatter n=1", res)
			})
			rung(id, "engine.pool_shared2", func() map[string]uint64 {
				var wg sync.WaitGroup
				var res [2]engine.Result
				for k := range res {
					wg.Add(1)
					go func() {
						defer wg.Done()
						res[k] = pool.Submit(p.plan, engine.Options{})
					}()
				}
				wg.Wait()
				checkCount("pool shared", p.q, res[0].Embeddings)
				return fromResult("pool shared", res[1])
			})
			id = rung(id, "engine.pool_submit", func() map[string]uint64 {
				return fromResult("pool submit", pool.Submit(p.plan, engine.Options{}))
			})
			runtime.ReadMemStats(&memBefore)
			id = rung(id, "engine.run_tN", func() map[string]uint64 {
				res := engine.Run(p.plan, engine.Options{Workers: nproc})
				passTasks += float64(res.TotalTasks())
				passSteals += float64(res.TotalSteals())
				var busyMax, busySum time.Duration
				for _, w := range res.Workers {
					busySum += w.BusyTime
					if w.BusyTime > busyMax {
						busyMax = w.BusyTime
					}
				}
				if busySum > 0 {
					imbalance = append(imbalance, float64(busyMax)*float64(len(res.Workers))/float64(busySum))
				}
				if res.PeakTaskBytes > peakBytes {
					peakBytes = res.PeakTaskBytes
				}
				leaked += res.LeakedBlocks
				runEmb += res.Embeddings
				return fromResult("run tN", res)
			})
			runtime.ReadMemStats(&memAfter)
			mallocs += memAfter.Mallocs - memBefore.Mallocs
			id = rung(id, "engine.run_t1", func() map[string]uint64 {
				return fromResult("run t1", engine.Run(p.plan, engine.Options{Workers: 1}))
			})
			rung(id, "core.seq", func() map[string]uint64 {
				n, c := p.plan.CountSequential()
				checkCount("sequential", p.q, n)
				ct.Add(c)
				return map[string]uint64{"embeddings": n, "candidates": c.Candidates, "filtered": c.Filtered, "valid": c.Valid}
			})
		}
		for name, d := range passTime {
			rt[name] = append(rt[name], d)
		}
		tasks, steals, units = append(tasks, passTasks), append(steals, passSteals), append(units, passUnits)
	}

	n := len(ps)
	t := func(name string) float64 { return rt.perQuery(name, n) }
	seq, t1, tN := t("core.seq"), t("engine.run_t1"), t("engine.run_tN")
	submit, scatter1 := t("engine.pool_submit"), t("shard.scatter_n1")
	hCount, hMatch := t("server.handler_count"), t("server.handler_match")
	sCount, sMatch := t("server.socket_count"), t("server.socket_match")

	m.set("core.seq_s", seq, ladderPasses)
	m.set("core.expand_ns_per_candidate", seq*float64(n)*1e9/float64(ct.Candidates), ladderPasses)
	m.set("core.candidates", float64(ct.Candidates), n)
	m.set("core.filtered", float64(ct.Filtered), n)
	m.set("core.valid", float64(ct.Valid), n)
	m.set("core.valid_per_candidate", float64(ct.Valid)/float64(ct.Candidates), n)
	m.set("engine.run_t1_s", t1, ladderPasses)
	m.set("engine.self_t1_s", selfTime(t1, seq), ladderPasses)
	if nproc > 1 {
		m.set("engine.run_tN_s", tN, ladderPasses)
		m.set("engine.speedup_tN", t1/tN, ladderPasses)
	} else {
		hn.rep.Notes = append(hn.rep.Notes, "GOMAXPROCS=1: engine.run_tN_s and engine.speedup_tN refused, Workers:N is the Workers:1 run")
	}
	m.set("engine.pool_submit_s", submit, ladderPasses)
	m.set("engine.pool_self_s", selfTime(submit, tN), ladderPasses)
	m.set("engine.pool_shared2_s", t("engine.pool_shared2"), ladderPasses)
	m.set("engine.tasks", median(tasks), ladderPasses)
	m.set("engine.steals", median(steals), ladderPasses)
	m.set("engine.busy_imbalance", median(imbalance), len(imbalance))
	m.set("engine.peak_task_bytes", float64(peakBytes), ladderPasses*n)
	m.set("engine.leaked_blocks", float64(leaked), ladderPasses*n)
	m.set("engine.allocs_per_emb", float64(mallocs)/float64(runEmb), n)
	m.set("shard.scatter_n1_s", scatter1, ladderPasses)
	m.set("shard.self_n1_s", selfTime(scatter1, submit), ladderPasses)
	m.set("shard.scatter_n2_s", t("shard.scatter_n2"), ladderPasses)
	m.set("shard.units", median(units), ladderPasses)
	m.set("server.handler_count_s", hCount, ladderPasses)
	m.set("server.handler_self_s", selfTime(hCount, submit), ladderPasses)
	m.set("server.handler_match_s", hMatch, ladderPasses)
	m.set("server.encode_ns_per_emb", selfTime(hMatch, hCount)*float64(n)*1e9/float64(matchEmb), ladderPasses)
	m.set("server.socket_count_s", sCount, ladderPasses)
	m.set("server.socket_match_s", sMatch, ladderPasses)
	m.set("server.socket_self_s", selfTime(sMatch, hMatch), ladderPasses)

	hn.attachAndCompile(pool, data, ps[0].q)
	hn.requestFront(data)
	hn.setopsKernels(data)
	return hn.ingestHandler()
}

// timeEach returns the median duration of calls to f, in microseconds.
func timeEach(n int, f func(i int)) float64 {
	xs := make([]float64, n)
	for i := range xs {
		start := time.Now()
		f(i)
		xs[i] = float64(time.Since(start).Nanoseconds()) / 1e3
	}
	return median(xs)
}

// attachAndCompile prices what every request pays whatever it matches: a
// pool round-trip that does next to nothing, a compile and a cost estimate.
func (hn *harness) attachAndCompile(pool *engine.Pool, data *hypergraph.Hypergraph, q *query) {
	m := hn.rep.Metrics
	// A one-hyperedge query scanned from one seed is a single embedding:
	// what is left is registering with the pool, one attach and the drain.
	one := hypergraph.MustExtract(q.graph, []hypergraph.EdgeID{0})
	if plan, err := core.NewPlan(one, data); err == nil && !plan.Empty {
		seed := plan.InitialCandidates()[:1]
		m.set("engine.attach_us", timeEach(200, func(int) {
			if res := pool.Submit(plan, engine.Options{Scan: seed}); res.Embeddings != 1 {
				hn.record("attach probe", fmt.Sprintf("%d embeddings from one seed of a one-edge query", res.Embeddings))
			}
		}), 200)
	}

	// Hot and cold queries alike: the first requests of the stream.
	var qs []*query
	seen := map[*query]bool{}
	for _, r := range hn.stream.requests {
		if !seen[r.q] && len(qs) < 200 {
			seen[r.q] = true
			qs = append(qs, r.q)
		}
	}
	plans := make([]*core.Plan, len(qs))
	m.set("core.compile_us", timeEach(len(qs), func(i int) { plans[i], _ = core.NewPlan(qs[i].graph, data) }), len(qs))
	m.set("core.estimate_cost_us", timeEach(len(qs), func(i int) { plans[i].EstimateCost() }), len(qs))
}

// requestFront times what the handler does before it has a plan-cache key:
// decode the JSON body, parse the query text, align labels, key the query.
func (hn *harness) requestFront(data *hypergraph.Hypergraph) {
	reqs := hn.stream.requests
	if len(reqs) > 200 {
		reqs = reqs[:200]
	}
	us := timeEach(len(reqs), func(i int) {
		var req hgio.MatchRequest
		if json.Unmarshal(reqs[i].body, &req) != nil {
			return
		}
		q, err := req.ParseQuery()
		if err != nil {
			return
		}
		if aligned, err := hgmatch.AlignLabels(q, data); err == nil {
			q = aligned
		}
		hgmatch.QueryKey(q)
	})
	hn.rep.Metrics.set("server.request_front_us", us, len(reqs))
}

// setopsKernels times IntersectK and UnionK on the posting views the pool's
// plans actually read: for every plan step, k = 2..4 seeded vertex picks
// from that step's signature table.
func (hn *harness) setopsKernels(data *hypergraph.Hypergraph) {
	rng := rand.New(rand.NewSource(hn.seed))
	type input struct {
		views  []setops.View
		rank   setops.RankTable
		unrank []uint32
		nbits  int
		elems  int
	}
	var inputs []input
	views, bitmapViews := 0, 0
	for _, q := range hn.stream.pool {
		plan, err := core.NewPlan(q.graph, data)
		if err != nil {
			continue
		}
		for step := 1; step < plan.NumSteps(); step++ {
			part := data.PartitionBySig(plan.StepSigID(step))
			verts := part.PostingVertices()
			if len(verts) == 0 {
				continue
			}
			for k := 2; k <= 4; k++ {
				in := input{rank: part.BitmapRanks(), unrank: part.BaseEdges(), nbits: part.NumBaseEdges()}
				for len(in.views) < k {
					v := part.PostingsView(verts[rng.Intn(len(verts))])
					in.views = append(in.views, v)
					in.elems += v.Len()
					views++
					if v.Bits != nil {
						bitmapViews++
					}
				}
				inputs = append(inputs, in)
			}
		}
	}
	const reps = 200
	var ks setops.KScratch
	var dst []uint32
	var bm setops.Bitmap
	elems := 0
	start := time.Now()
	for _, in := range inputs {
		for r := 0; r < reps; r++ {
			dst = setops.IntersectK(dst[:0], in.views, in.rank, in.unrank, &ks)
		}
		elems += reps * in.elems
	}
	interNs := float64(time.Since(start).Nanoseconds())
	start = time.Now()
	for _, in := range inputs {
		bm.Reuse(make([]uint64, setops.WordsFor(in.nbits)), in.nbits)
		for r := 0; r < reps; r++ {
			if out := setops.UnionK(dst[:0], &bm, in.nbits, in.rank, in.views, &ks); out.Arr != nil {
				dst = out.Arr
			}
		}
	}
	unionNs := float64(time.Since(start).Nanoseconds())
	m := hn.rep.Metrics
	m.set("setops.intersectk_ns_per_elem", interNs/float64(elems), len(inputs)*reps)
	m.set("setops.unionk_ns_per_elem", unionNs/float64(elems), len(inputs)*reps)
	m.set("setops.bitmap_view_frac", float64(bitmapViews)/float64(views), views)
}

// ingestHandler times POST /graphs/g/edges through the in-memory handler of
// a server without a log, compacting in the background like ingest_mixed's:
// decode, apply, publish, plan-cache drop.
func (hn *harness) ingestHandler() error {
	reg := server.NewRegistry()
	if err := reg.LoadFile(graphName, hn.dataPath); err != nil {
		return err
	}
	srv := server.New(reg, server.Config{CompactThreshold: compactPending})
	defer srv.Close() // waits for background compactions
	handler := srv.Handler()
	plan := hn.stream.ingest
	n := min(len(plan.bodies), writePathBatches)
	var us []float64
	for i := 0; i < n; i++ {
		w := &memWriter{header: http.Header{}}
		req := httptest.NewRequest(http.MethodPost, "/graphs/"+graphName+"/edges", bytes.NewReader(plan.bodies[i]))
		start := time.Now()
		handler.ServeHTTP(w, req)
		d := time.Since(start)
		if w.status != http.StatusOK {
			hn.record(fmt.Sprintf("ladder ingest #%d", i), fmt.Sprintf("status %d: %s", w.status, w.tally.tail))
			continue
		}
		hn.record(fmt.Sprintf("ladder ingest #%d", i), "")
		if i >= warmBatches {
			us = append(us, float64(d.Nanoseconds())/1e3)
		}
	}
	hn.rep.Metrics.set("server.ingest_handler_us", median(us), len(us))
	return nil
}

// writeTrace writes the spans next to the reports.
func (hn *harness) writeTrace(tr *tracer) error {
	return writeJSONFile(filepath.Join(hn.outDir, "trace-"+hn.spec.name+".json"), tr.spans)
}
