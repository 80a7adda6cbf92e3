package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"hgmatch/internal/baseline"
	"hgmatch/internal/core"
	"hgmatch/internal/datagen"
	"hgmatch/internal/hgio"
	"hgmatch/internal/hypergraph"
	"hgmatch/internal/querygen"
)

// datasetSeed and poolSeed are fixed: a workload's graph and its pool of
// fixed queries never change with --seed, only the request stream does, so
// two runs with different seeds measure the same work in a different order.
const (
	datasetSeed = 3
	poolSeed    = 11
	// poolSample is how many queries of each setting are sampled before the
	// fixed pool is picked from them by index.
	poolSample = 64
	graphName  = "g"
)

// poolRef names one fixed query: the index-th of the poolSample queries
// sampled for a setting.
type poolRef struct {
	setting string
	index   int
}

// spec is one workload. Every size in it was probed on the 2-core sandbox at
// the seed commit (`hgload --probe`, see README) and is fixed here; nothing is
// derived from the machine at run time.
type spec struct {
	name string
	why  string

	profile string // datagen profile, scale 1.0, datasetSeed

	// pool is the fixed query set; a query whose sequential count leaves
	// [countLo, countHi] means the generators drifted and the run refuses.
	// The closed-loop pools that set a gated median hold an odd number of
	// queries: latencies cluster by query, and with an even number the
	// median sits on the gap between two clusters and jumps from run to run.
	pool             []poolRef
	countLo, countHi uint64
	hotSet           int // without a pool: how many queries hotPool picks

	// Query traffic: a closed loop of `clients`, or an open loop at `rate`
	// requests per second over at most `conns` connections.
	clients int
	rate    float64
	conns   int

	matchShare float64  // share of requests sent to /match (the rest /count)
	limit      uint64   // "limit" on /match requests, 0 = none
	coldShare  float64  // share of requests drawn from a never-repeating stream
	cold       []string // settings the cold stream alternates over
	coldMax    uint64   // cold queries with more embeddings are skipped

	// Write traffic. ingestRate > 0 runs an open-loop writer beside the
	// readers for the whole window; the read-only workloads instead send
	// tailBatches sequential batches to a server of their own, so that
	// ingest latency is reported on every workload without disturbing reads.
	ingestRate float64

	// crossChecked pool queries are recounted by internal/baseline in the
	// traced run, as an oracle independent of the engine.
	crossChecked int

	// compactAt is hgserve's -compact-threshold. The SB workloads share
	// ingest_mixed's 2000, so that their write tail is in its regime:
	// deletes mostly hit compacted edges and the touched tables are
	// rebuilt. Read-only windows never reach a threshold.
	compactAt int

	limitMs float64 // goodput: answered correctly within this of due time
	ladderN int     // pool queries the traced ladder runs, cheapest first
}

var specs = []spec{
	{
		name:    "count_heavy",
		why:     "one client, /count on q4 queries of 1.1e6-2.3e6 embeddings: setops+core+engine do the work, so intra-query parallelism sets latency",
		profile: "SB",
		pool: []poolRef{{"q4", 2}, {"q4", 12}, {"q4", 14}, {"q4", 19}, {"q4", 25},
			{"q4", 30}, {"q4", 31}, {"q4", 50}, {"q4", 51}},
		countLo: 1e6, countHi: 2.5e6,
		clients:   1,
		compactAt: compactPending,
		limitMs:   2000,
		ladderN:   2,
	},
	{
		name:    "match_stream",
		why:     "two clients, unlimited /match streaming 1e5-1.8e5 rows: NDJSON encode, guarded write and the socket dominate, not the engine",
		profile: "SB",
		pool: []poolRef{{"q3", 3}, {"q3", 9}, {"q3", 10}, {"q3", 41}, {"q3", 44},
			{"q3", 45}, {"q3", 55}, {"q4", 18}, {"q4", 22}},
		countLo: 1e5, countHi: 1.8e5,
		clients:    2,
		matchShare: 1,
		compactAt:  compactPending,
		limitMs:    5000,
		ladderN:    2,
	},
	{
		name:    "point_open",
		why:     "open loop at 1000 req/s of sub-ms queries, 90% plan-cache hits: decode, parse, cache, admission and pool attach are the whole request",
		profile: "TC",
		countLo: 1, countHi: 10,
		hotSet:     32,
		rate:       1000,
		conns:      2,
		matchShare: 0.3,
		limit:      100,
		coldShare:  0.1,
		cold:       []string{"q2", "q3"},
		coldMax:    10,
		// 0 = manual compaction only: a TC compaction rebuilds 212k edges in
		// 0.34 s under the ingest lock, and at 2000 the tail would spend
		// more time compacting than ingesting.
		compactAt:    0,
		limitMs:      10,
		ladderN:      32,
		crossChecked: 4,
	},
	{
		name:    "ingest_mixed",
		why:     "10 durable 100-record batches/s beside one /count reader: WAL, publish, plan-cache invalidation, delta reads and checkpointing compaction",
		profile: "SB",
		pool: []poolRef{{"q3", 1}, {"q3", 11}, {"q3", 15}, {"q3", 18},
			{"q3", 19}, {"q3", 20}, {"q3", 23}, {"q3", 27}},
		countLo: 1e4, countHi: 1e5,
		clients: 1,
		// 10 a second, not the issue's 20: a batch takes 13 ms of the server
		// when the machine is quiet and several times that in its slow
		// spells, and an open loop past 50 ms a batch builds a backlog that
		// turns every number of the run into a measurement of the queue.
		ingestRate: 10,
		compactAt:  compactPending,
		limitMs:    1000,
		ladderN:    8,
	},
}

// loops is how many request-issuing goroutines, each with a connection of
// its own, the workload's window runs.
func (s *spec) loops() int {
	n := s.clients + s.conns
	if s.ingestRate > 0 {
		n++
	}
	return n
}

func specByName(name string) (*spec, bool) {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i], true
		}
	}
	return nil, false
}

// query is one query hypergraph with everything the harness needs to send
// it and to check the answer.
type query struct {
	id    int
	ref   string                 // "q4#17" for pool queries, "cold#n" otherwise
	graph *hypergraph.Hypergraph // labels in the data graph's ID space
	text  string                 // hgio text, what the server is sent
	count uint64                 // oracle: core.CountSequential on the dataset
}

// request is one HTTP request of the query stream, body pre-encoded.
type request struct {
	q     *query
	path  string // "/count" or "/match"
	limit uint64
	body  []byte
	// atLeast relaxes the oracle to a lower bound: on ingest_mixed the graph
	// grows under the reader, and base edges are never deleted, so a count
	// can only rise above the base graph's.
	atLeast bool
}

func (r *request) expect() uint64 {
	if r.limit > 0 && r.q.count > r.limit {
		return r.limit
	}
	return r.q.count
}

// dataset generates the workload's data hypergraph.
func (s *spec) dataset() (*hypergraph.Hypergraph, error) {
	p, ok := datagen.ProfileByName(s.profile)
	if !ok {
		return nil, fmt.Errorf("unknown datagen profile %q", s.profile)
	}
	return datagen.Generate(p, datasetSeed), nil
}

// sampleSetting draws the poolSample queries of one setting. Each setting
// has its own generator so that a pool mixing settings does not depend on
// the order they are sampled in.
func sampleSetting(h *hypergraph.Hypergraph, setting string) ([]*hypergraph.Hypergraph, error) {
	st, ok := querygen.SettingByName(setting)
	if !ok {
		return nil, fmt.Errorf("unknown query setting %q", setting)
	}
	rng := rand.New(rand.NewSource(poolSeed + int64(st.NumEdges)))
	return querygen.SampleMany(rng, h, st, poolSample), nil
}

func queryText(q *hypergraph.Hypergraph) (string, error) {
	var sb strings.Builder
	if err := hgio.Write(&sb, q); err != nil {
		return "", err
	}
	return sb.String(), nil
}

// seqCount is the oracle: the sequential reference enumerator.
func seqCount(q, h *hypergraph.Hypergraph) (uint64, error) {
	p, err := core.NewPlan(q, h)
	if err != nil {
		return 0, err
	}
	n, _ := p.CountSequential()
	return n, nil
}

// countAll fills in q.count for every query, nproc at a time.
func countAll(qs []*query, h *hypergraph.Hypergraph, par int) error {
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		next int
		ferr error
	)
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(qs) {
					return
				}
				n, err := seqCount(qs[i].graph, h)
				if err != nil {
					mu.Lock()
					ferr = fmt.Errorf("oracle for %s: %w", qs[i].ref, err)
					mu.Unlock()
					return
				}
				qs[i].count = n
			}
		}()
	}
	wg.Wait()
	return ferr
}

// crossCheck recounts queries with the match-by-vertex baseline, which
// shares no code with the engine or the sequential enumerator; it returns,
// per query, "" or how the two oracles disagree. The baseline scans every
// data vertex per query vertex (1.4 s a query on TC), so it is affordable
// only for a few queries with a handful of embeddings.
func crossCheck(qs []*query, h *hypergraph.Hypergraph) []string {
	out := make([]string, len(qs))
	var wg sync.WaitGroup
	for i, q := range qs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if res := baseline.Match(q.graph, h, baseline.Options{}); res.Embeddings != q.count {
				out[i] = fmt.Sprintf("core.CountSequential says %d, baseline %d", q.count, res.Embeddings)
			}
		}()
	}
	wg.Wait()
	return out
}

func newQuery(id int, ref string, g *hypergraph.Hypergraph) (*query, error) {
	text, err := queryText(g)
	if err != nil {
		return nil, err
	}
	return &query{id: id, ref: ref, graph: g, text: text}, nil
}

// fixedPool builds the workload's fixed queries with their oracle counts:
// the spec's pool references or, for a spec without, its hot set.
func (s *spec) fixedPool(h *hypergraph.Hypergraph, par int) ([]*query, error) {
	if len(s.pool) == 0 {
		return s.hotPool(h, par)
	}
	samples := map[string][]*hypergraph.Hypergraph{}
	var pool []*query
	for _, ref := range s.pool {
		qs, ok := samples[ref.setting]
		if !ok {
			var err error
			if qs, err = sampleSetting(h, ref.setting); err != nil {
				return nil, err
			}
			samples[ref.setting] = qs
		}
		if ref.index >= len(qs) || qs[ref.index] == nil {
			return nil, fmt.Errorf("%s: pool query %s#%d was not sampled", s.name, ref.setting, ref.index)
		}
		q, err := newQuery(len(pool), fmt.Sprintf("%s#%d", ref.setting, ref.index), qs[ref.index])
		if err != nil {
			return nil, err
		}
		pool = append(pool, q)
	}
	if err := countAll(pool, h, par); err != nil {
		return nil, err
	}
	for _, q := range pool {
		if q.count < s.countLo || q.count > s.countHi {
			return nil, fmt.Errorf("%s: pool query %s has %d embeddings, outside the probed range [%d, %d]: datagen or querygen changed, re-probe the pool",
				s.name, q.ref, q.count, s.countLo, s.countHi)
		}
	}
	return pool, nil
}

// hotPool picks the hot set by count, not by index: the first hotSet queries
// of the cold settings' samples, alternating, that have countLo-countHi
// embeddings. The candidates run in well under a millisecond each, so the
// selection is cheap enough to repeat on every run.
func (s *spec) hotPool(h *hypergraph.Hypergraph, par int) ([]*query, error) {
	var cands []*query
	samples := make([][]*hypergraph.Hypergraph, len(s.cold))
	for k, setting := range s.cold {
		var err error
		if samples[k], err = sampleSetting(h, setting); err != nil {
			return nil, err
		}
	}
	for i := 0; i < poolSample; i++ {
		for k, setting := range s.cold {
			if samples[k][i] == nil {
				continue
			}
			q, err := newQuery(0, fmt.Sprintf("%s#%d", setting, i), samples[k][i])
			if err != nil {
				return nil, err
			}
			cands = append(cands, q)
		}
	}
	if err := countAll(cands, h, par); err != nil {
		return nil, err
	}
	var pool []*query
	for _, q := range cands {
		if q.count >= s.countLo && q.count <= s.countHi && len(pool) < s.hotSet {
			q.id = len(pool)
			pool = append(pool, q)
		}
	}
	if len(pool) < s.hotSet {
		return nil, fmt.Errorf("%s: only %d of %d hot queries have %d-%d embeddings", s.name, len(pool), s.hotSet, s.countLo, s.countHi)
	}
	return pool, nil
}

// coldQueries samples n distinct queries that are not in the hot set and
// have at most coldMax embeddings, so every cold request is a plan-cache
// miss of about the same cost.
func (s *spec) coldQueries(h *hypergraph.Hypergraph, rng *rand.Rand, hot []*query, n, par int) ([]*query, error) {
	seen := make(map[string]bool, n+len(hot))
	for _, q := range hot {
		seen[q.text] = true
	}
	var out []*query
	for round := 0; len(out) < n; round++ {
		if round > 8 {
			return nil, fmt.Errorf("%s: could not sample %d cold queries", s.name, n)
		}
		var batch []*query
		for i := 0; i < n-len(out)+n/8+8; i++ {
			st, _ := querygen.SettingByName(s.cold[i%len(s.cold)])
			g := querygen.Sample(rng, h, st)
			if g == nil {
				continue
			}
			q, err := newQuery(0, "", g)
			if err != nil {
				return nil, err
			}
			if seen[q.text] {
				continue
			}
			seen[q.text] = true
			batch = append(batch, q)
		}
		if err := countAll(batch, h, par); err != nil {
			return nil, err
		}
		for _, q := range batch {
			if q.count >= 1 && q.count <= s.coldMax && len(out) < n {
				q.id = len(hot) + len(out)
				q.ref = fmt.Sprintf("cold#%d", len(out))
				out = append(out, q)
			}
		}
	}
	return out, nil
}

func encodeRequest(q *query, path string, limit uint64, atLeast bool) (*request, error) {
	body, err := json.Marshal(hgio.MatchRequest{Graph: graphName, Query: q.text, Limit: limit})
	if err != nil {
		return nil, err
	}
	return &request{q: q, path: path, limit: limit, body: body, atLeast: atLeast}, nil
}

// stream is a workload's generated load: the query requests in send order
// (closed loops cycle through them, the open loop sends each once at its
// due offset) and the ingest batches.
type stream struct {
	pool     []*query
	warm     []*request // one per pool query: the warm-up pass
	requests []*request
	due      []time.Duration // open loop only: offset of each request
	ingest   *ingestPlan
}

// closedDraws is the length of a multi-client closed loop's request
// sequence, which is cycled: longer than any window gets through.
const closedDraws = 4096

// warmBatches insert-only batches are sent during warm-up so that from the
// first timed batch on every batch can delete 50 edges inserted at least
// warmBatches batches earlier, keeping the live size constant.
const (
	warmBatches  = 10
	batchInserts = 50
)

// tailBatches is the length of a read-only workload's write tail. On TC a
// third of back-to-back batches run into the collection cycle their
// predecessors' garbage started, and the median only repeats once the tail
// spans about fifty cycles.
const tailBatches = 300

// buildStream generates everything the run will send from the seed.
func (s *spec) buildStream(h *hypergraph.Hypergraph, pool []*query, seed int64, seconds float64, par int) (*stream, error) {
	rng := rand.New(rand.NewSource(seed))
	st := &stream{pool: pool}
	// A workload that only ever streams warms up by streaming; the others
	// warm up on /count, which compiles and caches the same plans.
	warmPath := "/count"
	if s.matchShare == 1 {
		warmPath = "/match"
	}
	for _, q := range pool {
		r, err := encodeRequest(q, warmPath, s.limit, false)
		if err != nil {
			return nil, err
		}
		st.warm = append(st.warm, r)
	}

	if s.rate > 0 {
		n := int(s.rate * seconds)
		nCold := 0
		kinds := make([]bool, n) // true = cold
		for i := range kinds {
			if rng.Float64() < s.coldShare {
				kinds[i] = true
				nCold++
			}
		}
		cold, err := s.coldQueries(h, rng, pool, nCold, par)
		if err != nil {
			return nil, err
		}
		var at time.Duration
		for i := 0; i < n; i++ {
			at += time.Duration(rng.ExpFloat64() / s.rate * float64(time.Second))
			q := pool[rng.Intn(len(pool))]
			if kinds[i] {
				q, cold = cold[0], cold[1:]
			}
			path, limit := "/count", uint64(0)
			if rng.Float64() < s.matchShare {
				path, limit = "/match", s.limit
			}
			r, err := encodeRequest(q, path, limit, false)
			if err != nil {
				return nil, err
			}
			st.requests = append(st.requests, r)
			st.due = append(st.due, at)
		}
	} else {
		// One client goes round the pool in a seeded order, so every query
		// is sent equally often. Several clients draw independently: going
		// round in step, they would pair the same queries against each other
		// all run long, and which pairs would depend on the seed.
		order := rng.Perm(len(pool))
		if s.clients > 1 {
			order = make([]int, closedDraws)
			for i := range order {
				order[i] = rng.Intn(len(pool))
			}
		}
		for _, i := range order {
			path, limit := "/count", uint64(0)
			if s.matchShare > 0 {
				path, limit = "/match", s.limit
			}
			r, err := encodeRequest(pool[i], path, limit, s.ingestRate > 0)
			if err != nil {
				return nil, err
			}
			st.requests = append(st.requests, r)
		}
	}

	nBatches := warmBatches + tailBatches
	if s.ingestRate > 0 {
		nBatches = warmBatches + int(s.ingestRate*seconds)
	}
	st.ingest = newIngestPlan(h, rng, nBatches)
	return st, nil
}

// ingestPlan is the write side of a stream: pre-encoded NDJSON batches and
// the model of what they do, from which the expected live edge set after
// any acked prefix is rebuilt.
type ingestPlan struct {
	base    *hypergraph.Hypergraph
	bodies  [][]byte
	inserts [][][]uint32 // per batch: edges inserted
	deletes [][][]uint32 // per batch: edges deleted
}

// newIngestPlan generates n batches. The first warmBatches hold 50 inserts
// each; every later one holds 50 inserts and 50 deletes of the oldest edges
// this plan inserted. Inserted edges are random 3-12-vertex sets that are
// neither in the base graph nor inserted before, so every record does what
// it says: no duplicates, no missing deletes, and no base edge ever dies.
func newIngestPlan(h *hypergraph.Hypergraph, rng *rand.Rand, n int) *ingestPlan {
	p := &ingestPlan{base: h}
	seen := map[string]bool{}
	var fifo [][]uint32
	nv := h.NumVertices()
	for b := 0; b < n; b++ {
		var buf bytes.Buffer
		var ins, del [][]uint32
		for len(ins) < batchInserts {
			arity := 3 + rng.Intn(10)
			set := map[uint32]bool{}
			for len(set) < arity {
				set[uint32(rng.Intn(nv))] = true
			}
			e := make([]uint32, 0, arity)
			for v := range set {
				e = append(e, v)
			}
			sort.Slice(e, func(i, j int) bool { return e[i] < e[j] })
			key := fmt.Sprint(e)
			if _, inBase := h.FindEdge(e); inBase || seen[key] {
				continue
			}
			seen[key] = true
			ins = append(ins, e)
			writeRecord(&buf, "insert", e)
		}
		if b >= warmBatches {
			del, fifo = fifo[:batchInserts], fifo[batchInserts:]
			for _, e := range del {
				writeRecord(&buf, "delete", e)
			}
		}
		fifo = append(fifo, ins...)
		p.bodies = append(p.bodies, buf.Bytes())
		p.inserts = append(p.inserts, ins)
		p.deletes = append(p.deletes, del)
	}
	return p
}

func writeRecord(buf *bytes.Buffer, op string, vertices []uint32) {
	line, _ := json.Marshal(hgio.IngestRecord{Op: op, Vertices: vertices}) // cannot fail: plain fields
	buf.Write(line)
	buf.WriteByte('\n')
}

// rebuild returns the graph that must be live once the first acked batches
// have been applied: base + their inserts - their deletes, built offline.
func (p *ingestPlan) rebuild(acked int) (*hypergraph.Hypergraph, error) {
	dead := map[string]bool{}
	for _, del := range p.deletes[:acked] {
		for _, e := range del {
			dead[fmt.Sprint(e)] = true
		}
	}
	edges := make([][]uint32, 0, p.base.NumEdges()+acked*batchInserts)
	for e := 0; e < p.base.NumEdges(); e++ {
		edges = append(edges, p.base.Edge(hypergraph.EdgeID(e)))
	}
	for _, ins := range p.inserts[:acked] {
		for _, e := range ins {
			if !dead[fmt.Sprint(e)] {
				edges = append(edges, e)
			}
		}
	}
	return hypergraph.FromEdges(p.base.Labels(), edges)
}
