package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"hgmatch"
	"hgmatch/internal/baseline"
	"hgmatch/internal/hgio"
	"hgmatch/internal/hgtest"
	"hgmatch/internal/hypergraph"
)

// The default run is lcSeeds seeds of lcRounds rounds and a Close. A round
// that hangs (an evictor spinning on a graph it may not detach, say)
// panics after lcRoundTimeout with its seed and op log. Checks send
// lcQuery; readers send its edges reordered, which plan under another key.
const (
	lcSeeds, lcRounds     = 12, 30
	lcRoundTimeout        = 20 * time.Second
	lcQuery, lcCountQuery = "v 0\nv 1\nv 2\ne 0 1\ne 1 2", "v 0\nv 1\nv 2\ne 1 2\ne 0 1"
)

// lcFile is base graph base in HGB3 (registered cold) or HGB2 (heap).
type lcFile struct {
	path  string
	v3    bool
	bytes int64
	base  int
}

// lcName models a graph name. Its last entry is live, the others retired.
type lcName struct {
	name string
	file lcFile
	// tiers are the tiers the model allows: "heap" on the heap (born
	// there or folded), "cold mapped" for an unwritten HGB3 entry, which
	// readers activate and evict, "mapped" once written, until a fold.
	tiers   string
	delta   bool // a write since the load or the last fold
	mapped  bool // the live entry held a mapping after the last check
	edges   map[string][]uint32
	entries []*graphEntry
	oracle  *hgtest.OracleSet // on edges; nil once they change
	version uint64            // served at the last check
}

// lcHeld is a held snapshot and its walk when acquired.
type lcHeld struct {
	h    *hgmatch.Hypergraph
	rel  func()
	walk int
}

// lcRun is one seed's registry and server beside its reference model.
type lcRun struct {
	t      *testing.T
	seed   int64
	rng    *rand.Rand
	reg    *Registry
	s      *Server
	q      *hgmatch.Hypergraph
	bases  []*hgmatch.Hypergraph
	files  []lcFile
	names  []*lcName
	seen   map[string]int
	log    []string
	round  int
	budget int64
	closed bool
	raced  bool                              // a reader of this round acquired a graph
	parked func() *httptest.ResponseRecorder // resumes the op parked across Close
	// Counts of first writes to HGB3 entries, of mappings folded off, and
	// of those retirements certainly or (raced by a reader) maybe tore down.
	promos, folds, retired, unsure int64

	mu   sync.Mutex // guards held, which readers append to
	held []lcHeld
}

// TestRegistryLifecycle runs seeded random op sequences over three graph
// names against a sequential reference model of the graph-entry lifecycle
// (cold → mapped → written → folded → retired). Each round runs one writer
// op, which alone moves the model, beside one to three readers; where a
// reader race makes a value depend on order, the model accepts every value
// some serial order allows. After each round it checks tiers, resident
// bytes, tier counters, held snapshots, the fixed query's rows against
// baseline.Tuples on the model's edge set, the plan cache and the budget.
func TestRegistryLifecycle(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(37))
	var bases []*hgmatch.Hypergraph
	var files []lcFile
	for i := range 3 {
		h := hgtest.RandomHypergraph(rng, hgtest.RandomConfig{NumVertices: 24, NumEdges: 80, NumLabels: 3, MaxArity: 3})
		v3, b := writeV3Graph(t, dir, fmt.Sprint("g", i), h)
		v2 := filepath.Join(dir, fmt.Sprint("g", i, ".hgb2"))
		if err := hgio.WriteBinaryFile(v2, h); err != nil {
			t.Fatal(err)
		}
		bases = append(bases, h)
		files = append(files, lcFile{v3, true, b, i}, lcFile{v2, false, 0, i})
	}
	q := hypergraph.MustFromEdges([]hypergraph.Label{0, 1, 2}, [][]uint32{{0, 1}, {1, 2}})
	seen := map[string]int{}
	for seed := int64(1); seed <= lcSeeds; seed++ {
		s := New(NewRegistry(), Config{})
		(&lcRun{t: t, seed: seed, rng: rand.New(rand.NewSource(seed)), reg: s.Graphs(), s: s, q: q, bases: bases, files: files, seen: seen}).run()
		s.Close()
	}
	// Writers load-v2/-v3, ingest, compact-idle/-delta, budget-0/-1/-file,
	// park-count/-ingest, park-swap, close; readers walk, hold, info,
	// tierstats, count.
	if t.Logf("op counts: %v", seen); len(seen) != 17 {
		t.Errorf("%d op kinds ran, want 17", len(seen))
	}
}

func (r *lcRun) fatalf(format string, args ...any) {
	r.t.Helper()
	r.t.Fatalf("seed %d: %s\nop log:\n%s", r.seed, fmt.Sprintf(format, args...), strings.Join(r.log, "\n"))
}

func (r *lcRun) logf(format string, args ...any) {
	r.log = append(r.log, fmt.Sprintf("round %d: ", r.round)+fmt.Sprintf(format, args...))
}

func (r *lcRun) run() {
	for _, name := range []string{"a", "b", "c"} {
		r.names = append(r.names, &lcName{name: name})
		r.replace(r.names[len(r.names)-1], r.files[r.rng.Intn(len(r.files))])
	}
	r.check()
	for r.round = 1; !r.closed; r.round++ {
		n := r.names[r.rng.Intn(len(r.names))]
		writer := []string{"load", "load", "ingest", "ingest", "ingest", "compact", "compact", "budget", "park", "swap"}[r.rng.Intn(10)]
		r.logf("writer %s %s", writer, n.name)
		r.raced = false
		if r.round > lcRounds {
			// Close parks an op before the readers start, so that their
			// pins of HGB3 entries wait behind it for Close too.
			if writer = "close"; !n.file.v3 {
				r.replace(n, r.files[0])
			}
			r.parked = r.parkOn(n, r.rng.Intn(2) == 0)
		}
		var wg sync.WaitGroup
		for i := 1 + r.rng.Intn(3); writer != "park" && writer != "swap" && i > 0; i-- {
			op, rn := []string{"walk", "hold", "info", "tierstats", "count"}[r.rng.Intn(5)], r.names[r.rng.Intn(len(r.names))]
			r.logf("reader %s %s", op, rn.name)
			r.seen[op]++
			r.raced = r.raced || op == "walk" || op == "hold" || op == "count"
			wg.Add(1)
			go func() {
				defer wg.Done()
				r.read(op, rn)
			}()
		}
		msg := fmt.Sprintf("seed %d: round %d hung\nop log:\n%s", r.seed, r.round, strings.Join(r.log, "\n"))
		timer := time.AfterFunc(lcRoundTimeout, func() { panic(msg) })
		r.write(writer, n)
		wg.Wait()
		r.reg.beforePin = nil
		if r.t.Failed() {
			r.fatalf("a reader failed")
		}
		r.check()
		timer.Stop()
	}
}

// read runs one reader op. Beside Close, it may fail as shutting down.
func (r *lcRun) read(op string, n *lcName) {
	var err error
	switch op {
	case "walk", "hold":
		var hd lcHeld
		if hd.h, _, hd.rel, err = r.reg.Acquire(n.name); err == nil && op == "walk" {
			walk(hd.h)
			hd.rel()
		} else if err == nil {
			hd.walk = walk(hd.h)
			r.mu.Lock()
			r.held = append(r.held, hd)
			r.mu.Unlock()
		}
	case "info":
		r.reg.Info(n.name)
	case "tierstats":
		r.reg.TierStats()
	case "count":
		if rr := post(r.s.Handler(), "/count", lcBody(n.name, lcCountQuery)); rr.Code != http.StatusOK {
			err = fmt.Errorf("%d %s", rr.Code, rr.Body)
		}
	}
	if err != nil && (r.parked == nil || !errors.Is(err, errRegistryClosed) && !strings.Contains(err.Error(), hgio.CodeShuttingDown)) {
		r.t.Errorf("seed %d round %d: %s %s: %v", r.seed, r.round, op, n.name, err)
	}
}

// write runs one writer op on n and updates the model from its result.
func (r *lcRun) write(op string, n *lcName) {
	switch op {
	case "load":
		f := r.files[r.rng.Intn(len(r.files))]
		r.replace(n, f)
		op = map[bool]string{true: "load-v3", false: "load-v2"}[f.v3]
	case "ingest":
		recs := r.batch(n.edges)
		r.ingest(n, recs, post(r.s.Handler(), "/graphs/"+n.name+"/edges", ndjson(recs)))
	case "compact":
		rr := post(r.s.Handler(), "/graphs/"+n.name+"/compact", "")
		var sum hgio.CompactSummary
		if rr.Code != http.StatusOK || json.Unmarshal(rr.Body.Bytes(), &sum) != nil || sum.Edges != len(n.edges) {
			r.fatalf("compact %s: %d %s, want %d edges", n.name, rr.Code, rr.Body, len(n.edges))
		}
		if r.wrote(n); n.delta && n.tiers == "mapped" {
			n.tiers = "heap"
			r.folds++
		}
		op, n.delta = map[bool]string{true: "compact-delta", false: "compact-idle"}[n.delta], false
	case "budget":
		op = []string{"budget-0", "budget-file", "budget-1"}[r.rng.Intn(3)]
		r.budget = map[string]int64{"budget-0": 0, "budget-file": r.files[0].bytes, "budget-1": 1}[op]
		r.reg.SetResidentBudget(r.budget)
	case "park":
		op = r.park(n)
	case "swap":
		op = r.swap(n)
	case "close":
		if err := r.reg.Close(); err != nil {
			r.fatalf("close: %v", err)
		}
		for _, n := range r.names {
			r.retire(n)
		}
		if r.closed = true; !r.shutDown(r.parked()) {
			r.fatalf("the op parked across Close did not fail as shutting down")
		}
	}
	r.seen[op]++
}

// park parks a /count or an ingest of n's HGB3 entry before it pins the
// entry and replaces the entry meanwhile: the op must land on the
// replacement. A writer on the replaced entry keeps its mapping.
func (r *lcRun) park(n *lcName) string {
	if !n.file.v3 {
		r.replace(n, r.files[0])
	}
	_, writer, release, err := r.reg.lookup(n.name, true)
	if err != nil {
		r.fatalf("write hold on %s: %v", n.name, err)
	}
	r.wrote(n)
	ingest := r.rng.Intn(2) == 0
	resume, walked := r.parkOn(n, ingest), walk(writer.Snapshot())
	r.replace(n, r.files[r.rng.Intn(len(r.files))])
	var sum hgio.MatchSummary
	if rr := resume(); ingest {
		r.ingest(n, lcInsert, rr)
	} else if rr.Code != http.StatusOK || json.Unmarshal(rr.Body.Bytes(), &sum) != nil || int(sum.Embeddings) != len(r.oracleOf(n).Queries[0].Tuples) {
		r.fatalf("parked /count of %s: %d %s, want the replacement's %d embeddings", n.name, rr.Code, rr.Body, len(r.oracleOf(n).Queries[0].Tuples))
	}
	// The model's inserts are pairs, triples and lcInsert: this one is new.
	if _, _, err := writer.Insert(20, 21, 22, 23); err != nil || walk(writer.Publish()) != walked+4 {
		r.fatalf("writer on the replaced %s: walked %d, %d before a 4-edge insert (%v)", n.name, walk(writer.Snapshot()), walked, err)
	}
	release()
	return map[bool]string{true: "park-ingest", false: "park-count"}[ingest]
}

// swap parks the replacement of n's fresh cold HGB3 entry by an HGB2 graph
// between the swap and the detach, and meanwhile activates the old entry
// as a reader that loaded it before the swap would. The old entry's
// version must differ from its replacement's, or its plans would be
// cached under the replacement's key.
func (r *lcRun) swap(n *lcName) string {
	r.replace(n, r.files[0])
	old, f := n.entries[len(n.entries)-1], r.files[1]
	parked, cont, done := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	r.reg.afterSwap = func() { close(parked); <-cont }
	go func() { done <- r.reg.LoadFile(n.name, f.path) }()
	<-parked
	live, m, err := r.reg.pin(n.name, old, false)
	if err != nil || m == nil {
		r.fatalf("activating the replaced %s: mapping %v, %v", n.name, m != nil, err)
	}
	oldVersion := old.version(live.Snapshot())
	m.Release()
	close(cont)
	if err := <-done; err != nil {
		r.fatalf("load %s: %v", n.name, err)
	}
	r.reg.afterSwap = nil
	n.mapped = true // the activation's mapping, which the retirement tears down
	r.replaced(n, f)
	_, v, rel, err := r.reg.Acquire(n.name)
	if err != nil {
		r.fatalf("acquire %s: %v", n.name, err)
	}
	rel()
	if v == oldVersion {
		r.fatalf("the replaced %s, activated before its retirement, shares its replacement's version %x", n.name, v)
	}
	return "park-swap"
}

// parkOn starts a /count or an lcInsert ingest of n and parks it (and
// every other pin behind it) in beforePin until resume. The caller clears
// beforePin once no goroutine can reach it.
func (r *lcRun) parkOn(n *lcName, ingest bool) (resume func() *httptest.ResponseRecorder) {
	path, body := "/count", lcBody(n.name, lcCountQuery)
	if ingest {
		path, body = "/graphs/"+n.name+"/edges", ndjson(lcInsert)
	}
	parked, cont, done := make(chan struct{}), make(chan struct{}), make(chan *httptest.ResponseRecorder, 1)
	var once sync.Once
	r.reg.beforePin = func() { once.Do(func() { close(parked); <-cont }) }
	go func() { done <- post(r.s.Handler(), path, body) }()
	<-parked
	return func() *httptest.ResponseRecorder {
		close(cont)
		return <-done
	}
}

// lcInsert is the parked ingest: one insert, of an edge no base holds.
var lcInsert = []hgio.IngestRecord{{Op: "insert", Vertices: []uint32{0, 1, 2, 3}}}

// replace registers f under n, retiring n's previous entry.
func (r *lcRun) replace(n *lcName, f lcFile) {
	if err := r.reg.LoadFile(n.name, f.path); err != nil {
		r.fatalf("load %s: %v", n.name, err)
	}
	r.replaced(n, f)
}

// replaced moves n's model to f, registered under n's name.
func (r *lcRun) replaced(n *lcName, f lcFile) {
	r.logf("load %s %s", n.name, filepath.Base(f.path))
	r.retire(n) // a no-op before the first registration
	e, _ := r.reg.entry(n.name)
	n.entries = append(n.entries, e)
	n.file, n.tiers, n.delta, n.mapped = f, map[bool]string{true: "cold mapped", false: "heap"}[f.v3], false, false
	n.edges, n.oracle = map[string][]uint32{}, nil
	for e := range hgmatch.EdgeID(r.bases[f.base].NumEdges()) {
		vs := r.bases[f.base].Edge(e)
		n.edges[fmt.Sprint(vs)] = vs
	}
}

// retire counts the mapping, if any, that retiring n's live entry tears
// down; a reader racing an unwritten entry leaves that unsure.
func (r *lcRun) retire(n *lcName) {
	switch {
	case n.tiers == "heap":
	case n.tiers == "mapped" || !r.raced && n.mapped:
		r.retired++
	case r.raced:
		r.unsure++
	}
}

// wrote records a write hold on n, which promotes an unwritten HGB3 entry.
func (r *lcRun) wrote(n *lcName) {
	if n.tiers == "cold mapped" {
		n.tiers, n.mapped = "mapped", true
		r.promos++
	}
}

// batch returns one to six deletes of edges and inserts and deletes of
// random pairs and triples.
func (r *lcRun) batch(edges map[string][]uint32) []hgio.IngestRecord {
	keys := slices.Sorted(maps.Keys(edges))
	recs := make([]hgio.IngestRecord, 1+r.rng.Intn(6))
	for i := range recs {
		if k := r.rng.Intn(10); k < 4 && len(keys) > 0 {
			recs[i] = hgio.IngestRecord{Op: "delete", Vertices: edges[keys[r.rng.Intn(len(keys))]]}
		} else {
			var vs []uint32
			for _, v := range r.rng.Perm(r.bases[0].NumVertices())[:2+r.rng.Intn(2)] {
				vs = append(vs, uint32(v))
			}
			slices.Sort(vs)
			recs[i] = hgio.IngestRecord{Op: map[bool]string{true: "insert", false: "delete"}[k < 8], Vertices: vs}
		}
	}
	return recs
}

// ingest applies recs to n's model and checks the response rr against it.
func (r *lcRun) ingest(n *lcName, recs []hgio.IngestRecord, rr *httptest.ResponseRecorder) {
	var want [4]int // inserted, duplicates, deleted, missing
	for _, rec := range recs {
		k := fmt.Sprint(rec.Vertices)
		switch _, live := n.edges[k]; {
		case rec.Op == "insert" && !live:
			n.edges[k] = rec.Vertices
			want[0]++
		case rec.Op == "insert":
			want[1]++
		case live:
			delete(n.edges, k)
			want[2]++
		default:
			want[3]++
		}
	}
	var got hgio.IngestSummary
	if rr.Code != http.StatusOK || json.Unmarshal(rr.Body.Bytes(), &got) != nil || !got.Done ||
		[4]int{got.Inserted, got.Duplicates, got.Deleted, got.Missing} != want {
		r.fatalf("ingest %s: %d %s, want %v inserted, duplicate, deleted, missing", n.name, rr.Code, rr.Body, want)
	}
	r.wrote(n)
	if want[0]+want[2] > 0 {
		n.delta, n.oracle = true, nil
	}
}

// oracleOf returns the fixed query's oracle answer on n's model edge set.
func (r *lcRun) oracleOf(n *lcName) *hgtest.OracleSet {
	if n.oracle == nil {
		cold := hypergraph.MustFromEdges(r.bases[n.file.base].Labels(), slices.Collect(maps.Values(n.edges)))
		_, tuples := baseline.Tuples(r.q, cold, baseline.Options{})
		n.oracle = &hgtest.OracleSet{Cold: cold, Queries: []hgtest.OracleQuery{{Query: r.q, Tuples: tuples}}}
	}
	return n.oracle
}

// check runs at the quiescent point after each round. Each activation's
// mapping was evicted, folded or retired, or is attached still; no retired
// entry holds one. After Close every op fails as shutting down.
func (r *lcRun) check() {
	kept := r.held[:0]
	for _, hd := range r.held {
		if got := walk(hd.h); got != hd.walk {
			r.fatalf("held snapshot walked %d vertex references, %d when acquired", got, hd.walk)
		}
		if r.closed || r.rng.Intn(3) == 0 {
			hd.rel()
		} else {
			kept = append(kept, hd)
		}
	}
	r.held = kept
	ts := r.reg.TierStats()
	var resident, mapped, cold int64
	for _, n := range r.names {
		info, _ := r.reg.Info(n.name)
		switch {
		case r.closed:
		case !strings.Contains(n.tiers, info.Tier) || info.Tier != "heap" && info.FileBytes != n.file.bytes,
			info.Tier == "cold" && (info.NumEdges != len(n.edges) || info.NumVertices != r.bases[n.file.base].NumVertices() || info.ResidentBytes != 0),
			info.Tier == "mapped" && (info.ResidentBytes <= 0 || info.ResidentBytes >= info.FileBytes):
			r.fatalf("%s: %+v; model: %s on %q", n.name, info, filepath.Base(n.file.path), n.tiers)
		}
		switch info.Tier {
		case "mapped":
			resident += info.FileBytes
			mapped++
		case "cold":
			cold++
		}
		for i, e := range n.entries {
			if (r.closed || i < len(n.entries)-1) && e.mapped.Load() != nil {
				r.fatalf("retired entry %d of %s holds a mapping", i, n.name)
			}
		}
	}
	retired := int64(ts.Activations) - int64(ts.Evictions) - r.folds - mapped
	if ts.ResidentBytes != resident || int64(ts.Resident) != mapped || !r.closed && int64(ts.Cold) != cold ||
		int64(ts.Promotions) != r.promos || retired < r.retired || retired > r.retired+r.unsure {
		r.fatalf("tier stats %+v: want %d resident bytes in %d graphs, %d cold, %d promotions, %d folds and %d-%d mappings retired",
			ts, resident, mapped, cold, r.promos, r.folds, r.retired, r.retired+r.unsure)
	}
	for _, n := range r.names {
		if !r.closed {
			r.matchFixed(n)
			continue
		}
		for _, path := range []string{"/graphs/" + n.name + "/edges", "/graphs/" + n.name + "/compact", "/count"} {
			if rr := post(r.s.Handler(), path, lcBody(n.name, lcCountQuery)); !r.shutDown(rr) {
				r.fatalf("%s after Close: %d %s", path, rr.Code, rr.Body)
			}
		}
	}
	// Each name was just activated by its query, so one cold again was
	// evicted since, and the eviction purged its plans.
	r.s.plans.mu.Lock()
	defer r.s.plans.mu.Unlock()
	for _, n := range r.names {
		e := n.entries[len(n.entries)-1]
		n.mapped = e.mapped.Load() != nil
		for key := range r.s.plans.items {
			if !r.closed && e.live.Load() == nil && strings.HasPrefix(key, GraphPrefix(n.name)) {
				r.fatalf("%s went cold with its plans cached", n.name)
			}
		}
	}
}

// matchFixed sends the fixed query to n as /match and checks its rows
// against the oracle on the model's edge set, its plan-cache outcome
// against the version the last check saw, and the budget after it.
func (r *lcRun) matchFixed(n *lcName) {
	h, v, rel, err := r.reg.Acquire(n.name)
	if err != nil {
		r.fatalf("acquire %s: %v", n.name, err)
	}
	defer rel()
	set := r.oracleOf(n)
	ids, err := set.ServedIDs(h)
	if err != nil {
		r.fatalf("%s serves another edge set than the model's: %v", n.name, err)
	}
	rr := post(r.s.Handler(), "/match", lcBody(n.name, lcQuery))
	b := rr.Body.Bytes()
	cut := bytes.LastIndexByte(b[:max(len(b)-1, 0)], '\n') + 1
	var sum hgio.MatchSummary
	if rr.Code != http.StatusOK || json.Unmarshal(b[cut:], &sum) != nil || !sum.Done || sum.Error != "" {
		r.fatalf("match %s: %d %s", n.name, rr.Code, b)
	}
	if want := set.Queries[0].Rows(ids, sum.Order); !slices.Equal(sortedLines(b[:cut]), sortedLines(wire(want))) {
		r.fatalf("match %s: %d rows, not the oracle's %d", n.name, sum.Embeddings, len(want))
	}
	// A new version compiles fresh.
	if cache := rr.Header().Get("X-Plan-Cache"); cache != map[bool]string{true: "hit", false: "miss"}[v == n.version] {
		r.fatalf("match %s: plan cache %s at version %x, the last check's %x", n.name, cache, v, n.version)
	}
	n.version = v
	// An HGB3 graph's Acquire evicts unwritten others down to the budget.
	if n.file.v3 && r.budget > 0 && r.reg.resident.Load() > r.budget {
		for _, o := range r.names {
			if o != n && o.tiers == "cold mapped" && o.entries[len(o.entries)-1].mapped.Load() != nil {
				r.fatalf("after %s: %d resident bytes, budget %d, unwritten %s mapped", n.name, r.reg.resident.Load(), r.budget, o.name)
			}
		}
	}
}

// shutDown reports whether rr is a 503 shutting_down.
func (r *lcRun) shutDown(rr *httptest.ResponseRecorder) bool {
	return rr.Code == http.StatusServiceUnavailable && strings.Contains(rr.Body.String(), hgio.CodeShuttingDown)
}

// walk sums the vertex references of every edge of h.
func walk(h *hgmatch.Hypergraph) (n int) {
	for e := range hgmatch.EdgeID(h.NumEdges()) {
		n += len(h.Edge(e))
	}
	return n
}

func lcBody(name, query string) string { return fmt.Sprintf(`{"graph":%q,"query":%q}`, name, query) }

func ndjson(recs []hgio.IngestRecord) string {
	var b strings.Builder
	for _, rec := range recs {
		line, _ := json.Marshal(rec)
		b.Write(append(line, '\n'))
	}
	return b.String()
}
