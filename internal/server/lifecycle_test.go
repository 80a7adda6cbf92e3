package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"sort"
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

// A run is lcSeeds seeds of lcRounds rounds and a Close, or per sync policy
// lcDurableSeeds of lcDurableRounds with WAL segments of lcSegmentBytes and
// crashes within lcCrashSpan mutating file operations. A round that hangs
// (an evictor spinning on a graph it may not detach, say) panics after
// lcRoundTimeout with its seed and op log. Checks send lcQuery; readers
// send its edges reordered, which plan under another key.
const (
	lcSeeds, lcRounds               = 12, 30
	lcDurableSeeds, lcDurableRounds = 8, 90
	lcSegmentBytes, lcCrashSpan     = 1 << 10, 16
	lcRoundTimeout                  = 20 * time.Second
	lcQuery, lcCountQuery           = "v 0\nv 1\nv 2\ne 0 1\ne 1 2", "v 0\nv 1\nv 2\ne 1 2\ne 0 1"
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
	base    int               // the base whose vertices and labels it serves
	// Durable runs: the acked states since the seed, the last one current;
	// those a batch in flight at a crash may leave; why the name serves
	// read-only ("refused" until its next boot, "quarantined" by a damaged
	// segment, "seed" by a damaged checkpoint); what a flip damaged.
	hist, maybe []lcState
	ro, flip    string
}

// lcState is an acked edge set and the WAL sequence that acked it.
type lcState struct {
	seq   uint64
	edges map[string][]uint32
}

// lcIngest is an ingest body, the records of it the server applies (all
// of a plain body, those before a semantic body's bad op, none of a
// malformed body or one with an unknown field) and the lines it reports.
type lcIngest struct {
	variant, body string
	recs          []hgio.IngestRecord
	lines         int
}

func plain(recs []hgio.IngestRecord) lcIngest {
	return lcIngest{"plain", ndjson(recs), recs, len(recs)}
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
	h      http.Handler // s's
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
	// A durable run's policy and disk; the reboot a writer op leaves for
	// its round's end; the arity-4 edges handed out, and those refused.
	durable       bool
	sync          hgio.SyncPolicy
	fs            *hgtest.FaultFS
	rounds        int
	writers       []string
	after         func()
	used, refused map[string]bool
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
// The durable runs journal to an hgtest.FaultFS, add crashes, failed
// writes and fsyncs, and bit flips at rest, and check each boot (recover).
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
	// A run draws writer ops from writers and must run every kind in ops.
	lifecycle := func(t *testing.T, seeds int64, sync *hgio.SyncPolicy, writers, ops string) {
		t.Parallel()
		seen := map[string]int{}
		for seed := int64(1); seed <= seeds; seed++ {
			r := &lcRun{t: t, seed: seed, rng: rand.New(rand.NewSource(seed)), q: q, bases: bases, files: files, seen: seen,
				rounds: lcRounds, writers: strings.Fields(writers), used: map[string]bool{"[0 1 2 3]": true}, refused: map[string]bool{}}
			var fs *hgtest.FaultFS
			if sync != nil {
				r.durable, r.sync, r.rounds, fs = true, *sync, lcDurableRounds, hgtest.NewFaultFS()
			}
			r.reboot(fs, false)
			r.run()
			r.s.Close()
		}
		t.Logf("op counts: %v", seen)
		for _, op := range strings.Fields(ops + " walk hold info tierstats count") {
			if seen[op] == 0 {
				t.Errorf("op %s never ran", op)
			}
		}
	}
	t.Run("plain", func(t *testing.T) {
		lifecycle(t, lcSeeds, nil, "load load ingest ingest ingest compact compact budget park swap",
			"load-v2 load-v3 ingest compact-idle compact-delta budget-0 budget-1 budget-file park-count park-ingest park-swap close")
	})
	t.Run("durable", func(t *testing.T) {
		for _, sync := range []hgio.SyncPolicy{hgio.SyncBatch, hgio.SyncNone} {
			t.Run(sync.String(), func(t *testing.T) {
				lifecycle(t, lcDurableSeeds, &sync, "load ingest ingest compact crash crash crash crash crash fail-sync fail-write flip",
					"load load-reset ingest-plain ingest-semantic ingest-malformed ingest-unknown-field compact crash crash-mid-op fail-sync fail-write flip-segment flip-mark flip-payload close")
			})
		}
	})
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
		writer := r.writers[r.rng.Intn(len(r.writers))]
		r.logf("writer %s %s", writer, n.name)
		r.raced = false
		if r.round > r.rounds {
			// Close parks an op before the readers start, so that their
			// pins of HGB3 entries wait behind it for Close too.
			if writer = "close"; !r.durable {
				if !n.file.v3 {
					r.replace(n, r.files[0])
				}
				r.parked = r.parkOn(n, r.rng.Intn(2) == 0)
			}
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
		if r.after != nil {
			r.s.Close()
			r.after()
			r.after = nil
		}
		r.check()
		timer.Stop()
	}
	if r.durable { // the next boot finds all that Close flushed
		r.s.Close()
		r.closed = false
		r.reboot(r.fs, false)
		r.check()
	}
}

// reboot starts a registry and server, journaling to fs in a durable run,
// and boots the names on it as a restarted process would, checking each
// against the model; image says fs is what a crash left.
func (r *lcRun) reboot(fs *hgtest.FaultFS, image bool) {
	r.logf("boot (crash image: %v)", image)
	r.fs, r.reg = fs, NewRegistry()
	if r.durable {
		if err := r.reg.EnableDurability(DurabilityConfig{Dir: "wal", FS: fs, Sync: r.sync, SegmentBytes: lcSegmentBytes}); err != nil {
			r.fatalf("%v", err)
		}
	}
	r.s = New(r.reg, Config{})
	r.h = r.s.Handler()
	for _, n := range r.names {
		if err := r.reg.LoadFile(n.name, n.file.path); err != nil {
			r.fatalf("boot %s: %v", n.name, err)
		}
		r.recover(n, image)
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
		if rr := post(r.h, "/count", lcBody(n.name, lcCountQuery)); rr.Code != http.StatusOK {
			err = fmt.Errorf("%d %s", rr.Code, rr.Body)
		}
	}
	if err != nil && (r.round <= r.rounds || !errors.Is(err, errRegistryClosed) && !strings.Contains(err.Error(), hgio.CodeShuttingDown)) {
		r.t.Errorf("seed %d round %d: %s %s: %v", r.seed, r.round, op, n.name, err)
	}
}

// write runs one writer op on n and updates the model from its result.
func (r *lcRun) write(op string, n *lcName) {
	switch op {
	case "load":
		f := r.files[r.rng.Intn(len(r.files))]
		if r.durable {
			op = r.load(n, f)
			break
		}
		r.replace(n, f)
		op = map[bool]string{true: "load-v3", false: "load-v2"}[f.v3]
	case "ingest":
		variant := "plain"
		if r.durable {
			variant = []string{"plain", "semantic", "malformed", "unknown-field"}[r.rng.Intn(4)]
			op += "-" + variant
		}
		in := r.ingestBody(n, variant)
		r.settle(n, in, post(r.h, "/graphs/"+n.name+"/edges", in.body))
	case "compact":
		rr := post(r.h, "/graphs/"+n.name+"/compact", "")
		if n.ro != "" {
			r.readOnly(n, "compact", rr)
			break
		}
		var sum hgio.CompactSummary
		if rr.Code != http.StatusOK || json.Unmarshal(rr.Body.Bytes(), &sum) != nil || sum.Edges != len(n.edges) {
			r.fatalf("compact %s: %d %s, want %d edges", n.name, rr.Code, rr.Body, len(n.edges))
		}
		if r.durable {
			// The checkpoint truncates the WAL to a fresh segment's header.
			if info, _ := r.reg.Info(n.name); info.WalSegments != 1 || info.WalBytes != 32 || info.WalLastSeq != n.seq() {
				r.fatalf("compact %s: WAL of %d segments, %d bytes, at seq %d; want it truncated at seq %d",
					n.name, info.WalSegments, info.WalBytes, info.WalLastSeq, n.seq())
			}
			break
		}
		if r.wrote(n); n.delta && n.tiers == "mapped" {
			n.tiers = "heap"
			r.folds++
		}
		op, n.delta = map[bool]string{true: "compact-delta", false: "compact-idle"}[n.delta], false
	case "crash":
		r.crash(n)
	case "fail-sync", "fail-write":
		r.fail(op, n)
	case "flip":
		op = r.flip(n)
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
		if r.closed = true; r.parked != nil && !r.shutDown(r.parked()) {
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
		r.settle(n, plain(lcInsert), rr)
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
	go func() { done <- post(r.h, path, body) }()
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
	n.file, n.tiers, n.delta, n.mapped = f, map[bool]string{true: "cold mapped", false: "heap"}[f.v3 && !r.durable], false, false
	n.edges, n.oracle, n.base, n.ro = r.baseEdges(f.base), nil, f.base, ""
	n.hist = []lcState{{0, n.edges}}
}

// baseEdges returns the edge set of base i.
func (r *lcRun) baseEdges(i int) map[string][]uint32 {
	edges := map[string][]uint32{}
	for e := range hgmatch.EdgeID(r.bases[i].NumEdges()) {
		vs := r.bases[i].Edge(e)
		edges[fmt.Sprint(vs)] = vs
	}
	return edges
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

// ingestBody returns an ingest body of the variant for n.
func (r *lcRun) ingestBody(n *lcName, variant string) lcIngest {
	in := plain(r.batch(n.edges))
	switch in.variant = variant; variant {
	case "semantic":
		in.body, in.lines = in.body+`{"op":"frobnicate"}`+"\n"+ndjson(r.batch(n.edges)), in.lines+1
	case "malformed":
		in.body, in.recs = in.body+`{"op":"insert","vertices":[`+"\n"+in.body, nil
	case "unknown-field":
		in.body, in.recs, in.lines = `{"op":"insert","vertices":[0,1],"bogus":1}`+"\n"+in.body, nil, 0
	}
	return in
}

// applied returns edges after recs, and the inserted, duplicate, deleted
// and missing counts the server reports for them.
func applied(edges map[string][]uint32, recs []hgio.IngestRecord) (map[string][]uint32, [4]int) {
	edges = maps.Clone(edges)
	var want [4]int
	for _, rec := range recs {
		k := fmt.Sprint(rec.Vertices)
		switch _, live := edges[k]; {
		case rec.Op == "insert" && !live:
			edges[k] = rec.Vertices
			want[0]++
		case rec.Op == "insert":
			want[1]++
		case live:
			delete(edges, k)
			want[2]++
		default:
			want[3]++
		}
	}
	return edges, want
}

// settle checks the response rr to in against n's model and applies what
// the server acked: nothing of a malformed body, nothing else on a
// read-only name. A durable name acks at the sequence after its last.
func (r *lcRun) settle(n *lcName, in lcIngest, rr *httptest.ResponseRecorder) {
	if n.ro != "" && in.recs != nil {
		r.readOnly(n, "ingest", rr)
		return
	}
	edges, want := applied(n.edges, in.recs)
	var got hgio.IngestSummary
	var seq uint64
	if r.durable && in.recs != nil {
		seq = n.seq() + 1
	}
	if rr.Code != map[bool]int{true: http.StatusOK, false: http.StatusBadRequest}[in.variant == "plain"] || json.Unmarshal(rr.Body.Bytes(), &got) != nil ||
		got.Done != (in.variant == "plain") || got.Lines != in.lines || [4]int{got.Inserted, got.Duplicates, got.Deleted, got.Missing} != want ||
		got.Durable != (seq > 0) || got.WalSeq != seq || in.recs == nil && !strings.Contains(got.Error, "batch rejected") {
		r.fatalf("%s ingest %s: %d %s, want %d lines, %v inserted, duplicate, deleted, missing at seq %d", in.variant, n.name, rr.Code, rr.Body, in.lines, want, seq)
	}
	if in.recs == nil {
		return
	}
	if r.wrote(n); want[0]+want[2] > 0 {
		n.edges, n.delta, n.oracle = edges, true, nil
	}
	n.hist = append(n.hist, lcState{seq, n.edges})
}

// seq is the WAL sequence of n's last acked batch.
func (n *lcName) seq() uint64 { return n.hist[len(n.hist)-1].seq }

// readOnly checks that rr refused a write to n as read-only.
func (r *lcRun) readOnly(n *lcName, what string, rr *httptest.ResponseRecorder) {
	if rr.Code != http.StatusServiceUnavailable || !strings.Contains(rr.Body.String(), "read-only") {
		r.fatalf("%s %s, read-only (%s): %d %s, want 503 read-only", what, n.name, n.ro, rr.Code, rr.Body)
	}
}

// fresh returns an arity-4 edge no batch of the run has held: the bases
// and batch hold pairs and triples.
func (r *lcRun) fresh() []uint32 {
	for {
		p := r.rng.Perm(r.bases[0].NumVertices())[:4]
		slices.Sort(p)
		if vs := []uint32{uint32(p[0]), uint32(p[1]), uint32(p[2]), uint32(p[3])}; !r.used[fmt.Sprint(vs)] {
			r.used[fmt.Sprint(vs)] = true
			return vs
		}
	}
}

// load re-registers n on a durable registry: the name recovers its own
// checkpoint and WAL, and f seeds it only if it has neither. A name
// damaged at rest first gets the quarantine runbook's clean slate: its WAL
// directory goes, and f seeds it afresh.
func (r *lcRun) load(n *lcName, f lcFile) string {
	if n.ro == "quarantined" || n.ro == "seed" {
		for _, p := range r.onDisk(n) {
			if err := r.fs.Remove(p); err != nil {
				r.fatalf("clearing %s: %v", n.name, err)
			}
		}
		r.replace(n, f)
		return "load-reset"
	}
	if err := r.reg.LoadFile(n.name, f.path); err != nil {
		r.fatalf("load %s: %v", n.name, err)
	}
	n.file = f
	r.recover(n, false)
	return "load"
}

// crash arms a kill within the next lcCrashSpan mutating file operations
// and sends n ingests of every variant and compactions until it fires,
// beside a concurrent ingest of a fresh edge into a random name, n
// perhaps. The round's end boots off the crash image. Answers after the
// kill are a dead process's: a batch answered 503 may have reached the
// disk or not.
func (r *lcRun) crash(n *lcName) {
	type answer struct {
		n  *lcName
		in lcIngest // "compact" for a compaction
		rr *httptest.ResponseRecorder
	}
	var ins []lcIngest
	for range 8 {
		in := lcIngest{variant: "compact"}
		if r.rng.Intn(3) > 0 {
			in = r.ingestBody(n, []string{"plain", "plain", "semantic", "malformed"}[r.rng.Intn(4)])
		}
		ins = append(ins, in)
	}
	m, fresh := r.names[r.rng.Intn(len(r.names))], plain([]hgio.IngestRecord{{Op: "insert", Vertices: r.fresh()}})
	kill := r.fs.Ops() + r.rng.Int63n(lcCrashSpan)
	r.fs.CrashAfter(kill - r.fs.Ops())
	other := make(chan answer)
	go func() { other <- answer{m, fresh, post(r.h, "/graphs/"+m.name+"/edges", fresh.body)} }()
	var answers []answer
	for _, in := range ins {
		if r.fs.Ops() >= kill {
			break
		}
		path := "/graphs/" + n.name + map[bool]string{true: "/compact", false: "/edges"}[in.variant == "compact"]
		answers = append(answers, answer{n, in, post(r.h, path, in.body)})
	}
	if answers = append(answers, <-other); r.fs.Ops() >= kill {
		r.seen["crash-mid-op"]++ // else the kill falls after the last op
	}
	img := r.fs.CrashImage(r.rng)
	// Settle the acked batches in journal order, then those in flight.
	seq := func(a answer) uint64 {
		var sum hgio.IngestSummary
		if a.rr.Code == http.StatusServiceUnavailable || json.Unmarshal(a.rr.Body.Bytes(), &sum) != nil {
			return math.MaxUint64
		}
		return sum.WalSeq
	}
	sort.SliceStable(answers, func(i, j int) bool { return seq(answers[i]) < seq(answers[j]) })
	for _, a := range answers {
		switch {
		case a.in.variant == "compact":
			if a.rr.Code != http.StatusOK && a.rr.Code != http.StatusServiceUnavailable {
				r.fatalf("compact %s at a crash: %d %s", a.n.name, a.rr.Code, a.rr.Body)
			}
		case a.rr.Code == http.StatusServiceUnavailable && a.n.ro == "" && a.in.recs != nil:
			edges, _ := applied(a.n.edges, a.in.recs)
			a.n.maybe = append(a.n.maybe, lcState{a.n.seq() + 1, edges})
		default:
			r.settle(a.n, a.in, a.rr)
		}
	}
	r.after = func() { r.reboot(img, true) }
}

// fail sends n a batch holding a fresh edge while the next write or fsync
// fails: the batch is refused and the name read-only until its next boot.
// Under sync none, an append that fills no segment syncs nothing and is
// acked.
func (r *lcRun) fail(op string, n *lcName) {
	in := plain(append(r.batch(n.edges), hgio.IngestRecord{Op: "insert", Vertices: r.fresh()}))
	arm := map[string]func(int64){"fail-sync": r.fs.FailSync, "fail-write": r.fs.FailWrite}[op]
	arm(1)
	rr := post(r.h, "/graphs/"+n.name+"/edges", in.body)
	arm(0)
	switch body := rr.Body.String(); {
	case n.ro != "" || rr.Code == http.StatusOK && op == "fail-sync" && r.sync == hgio.SyncNone:
		r.settle(n, in, rr)
	case rr.Code != http.StatusServiceUnavailable || !strings.Contains(body, "wal append failed") || strings.Contains(body, "reappear"):
		r.fatalf("%s ingest %s: %d %s, want 503 wal append failed, rolled back", op, n.name, rr.Code, body)
	default:
		n.ro, r.refused[fmt.Sprint(in.recs[len(in.recs)-1].Vertices)] = "refused", true
	}
}

// flip leaves for the round's end a flip of one bit at rest in n's files
// (a sealed WAL segment, the checkpoint's coverage mark or its payload)
// and a reboot, or only the reboot if n has no such file.
func (r *lcRun) flip(n *lcName) string {
	cp, segs := "wal/"+n.name+"/"+hgio.CheckpointFile, slices.DeleteFunc(r.onDisk(n), func(p string) bool { return !strings.HasSuffix(p, ".seg") })
	kind, file, off := []string{"flip-segment", "flip-mark", "flip-payload"}[r.rng.Intn(3)], cp, 8+r.rng.Int63n(8) // the mark is bytes 8–16
	switch n.flip = "checkpoint"; {
	case kind == "flip-segment" && len(segs) > 1:
		file, n.flip = segs[r.rng.Intn(len(segs)-1)], "segment"
		off = r.rng.Int63n(r.fs.FileSize(file))
	case kind == "flip-segment" || r.fs.FileSize(cp) < 0:
		kind, n.flip = "reboot", ""
	case kind == "flip-payload":
		off = 16 + r.rng.Int63n(r.fs.FileSize(cp)-20)
	}
	bit := byte(1) << r.rng.Intn(8)
	r.after = func() {
		if n.flip != "" {
			if err := r.fs.Corrupt(file, off, bit); err != nil {
				r.fatalf("flip: %v", err)
			}
		}
		r.reboot(r.fs, false)
	}
	return kind
}

// onDisk lists n's files on the disk, sorted.
func (r *lcRun) onDisk(n *lcName) []string {
	return slices.DeleteFunc(r.fs.FileNames(), func(p string) bool { return !strings.HasPrefix(p, "wal/"+n.name+"/") })
}

// recover checks what n serves after a boot and moves the model there. A
// boot after a clean close serves the last acked state; one off a crash
// image may add a batch in flight and, under sync none, may serve any
// earlier acked state. A damaged segment quarantines the name, which then
// serves an earlier state read-only (unless a checkpoint held the damaged
// batches); a damaged checkpoint quarantines it too, serving its boot's
// seed. Only a quarantined name has a *.quarantined file, no boot serves a
// refused batch, and a writable name's WAL sequence is its state's.
func (r *lcRun) recover(n *lcName, image bool) {
	h := snapshotOf(r.t, r.reg, n.name)
	info, _ := r.reg.Info(n.name)
	served := map[string][]uint32{}
	for e := range hgmatch.EdgeID(h.NumEdges()) {
		if k := fmt.Sprint(h.Edge(e)); !h.IsDeadEdge(e) {
			if served[k] = nil; r.refused[k] {
				r.fatalf("%s serves the refused edge %s after a boot", n.name, k)
			}
		}
	}
	reason, lo := "", len(n.hist)-1
	switch {
	case n.flip == "checkpoint" || n.ro == "seed":
		n.ro, n.base, reason, n.hist, lo = "seed", n.file.base, "checkpoint", []lcState{{0, r.baseEdges(n.file.base)}}, 0
	case n.ro == "quarantined" || n.flip == "segment" && info.ReadOnly:
		n.ro, reason, lo = "quarantined", "wal recovery", 0
	case image && r.sync == hgio.SyncNone:
		n.ro, lo = "", 0
	default:
		n.ro = ""
	}
	states := n.hist
	if n.ro == "" {
		states = append(slices.Clip(states), n.maybe...)
	}
	k := slices.IndexFunc(states[lo:], func(s lcState) bool {
		return maps.EqualFunc(s.edges, served, func([]uint32, []uint32) bool { return true }) && (n.ro != "" || s.seq == info.WalLastSeq)
	})
	quarantined := slices.ContainsFunc(r.onDisk(n), func(p string) bool { return strings.HasSuffix(p, ".quarantined") })
	if k < 0 || info.ReadOnly != (n.ro != "") || !strings.Contains(info.ReadOnlyReason, reason) || quarantined != (n.ro != "") {
		r.fatalf("boot of %s (flipped %q, crash image %v): %d edges at seq %d, read-only %q, quarantined file %v; model: %q, %d states from seq %d",
			n.name, n.flip, image, len(served), info.WalLastSeq, info.ReadOnlyReason, quarantined, n.ro, len(states)-lo, states[lo].seq)
	}
	n.hist = states[:lo+k+1]
	n.edges, n.oracle, n.maybe, n.flip, n.version = n.hist[lo+k].edges, nil, nil, "", 0
	e, _ := r.reg.entry(n.name)
	n.entries = append(n.entries, e)
}

// oracleOf returns the fixed query's oracle answer on n's model edge set.
func (r *lcRun) oracleOf(n *lcName) *hgtest.OracleSet {
	if n.oracle == nil {
		cold := hypergraph.MustFromEdges(r.bases[n.base].Labels(), slices.Collect(maps.Values(n.edges)))
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
		case r.durable && (info.NumEdges != len(n.edges) || info.ReadOnly != (n.ro != "") || n.ro == "" && info.WalLastSeq != n.seq()):
			r.fatalf("%s: %+v; model: %d edges at seq %d, read-only %q", n.name, info, len(n.edges), n.seq(), n.ro)
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
	ro := 0
	for _, n := range r.names {
		if !r.closed {
			if r.matchFixed(n); n.ro != "" {
				r.servesReadOnly(n)
				ro++
			}
			continue
		}
		for _, path := range []string{"/graphs/" + n.name + "/edges", "/graphs/" + n.name + "/compact", "/count"} {
			if rr := post(r.h, path, lcBody(n.name, lcCountQuery)); !r.shutDown(rr) {
				r.fatalf("%s after Close: %d %s", path, rr.Code, rr.Body)
			}
		}
	}
	if st := (hgio.SchedulerStats{}); r.durable && !r.closed {
		rr := httptest.NewRecorder()
		r.h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/stats", nil))
		if json.Unmarshal(rr.Body.Bytes(), &st) != nil || !st.WALEnabled || st.ReadOnlyGraphs != ro {
			r.fatalf("/stats: %s, want wal_enabled and %d read-only graphs", rr.Body, ro)
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
	rr := post(r.h, "/match", lcBody(n.name, lcQuery))
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

// servesReadOnly checks that read-only n answers /count and refuses writes.
func (r *lcRun) servesReadOnly(n *lcName) {
	r.readOnly(n, "ingest", post(r.h, "/graphs/"+n.name+"/edges", ndjson(lcInsert)))
	r.readOnly(n, "compact", post(r.h, "/graphs/"+n.name+"/compact", ""))
	var sum hgio.MatchSummary
	if rr := post(r.h, "/count", lcBody(n.name, lcQuery)); rr.Code != http.StatusOK || json.Unmarshal(rr.Body.Bytes(), &sum) != nil ||
		int(sum.Embeddings) != len(r.oracleOf(n).Queries[0].Tuples) {
		r.fatalf("count %s, read-only (%s): %d %s, want %d embeddings", n.name, n.ro, rr.Code, rr.Body, len(r.oracleOf(n).Queries[0].Tuples))
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
