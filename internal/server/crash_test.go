package server

// Crash-recovery tests: the durability layer's acceptance suite. The core
// test kills a serving process (simulated via hgtest.FaultFS) at hundreds
// of randomized operation points during ingest, restarts on the surviving
// disk image, and checks the WAL contract end to end: every acked batch is
// present after replay, the recovered graph is byte-identical to an
// uninterrupted application of the same journaled prefix, /match output
// matches, and the recovered server keeps accepting durable writes.
// Injected corruption (bit flips in sealed segments) must instead
// quarantine and degrade to read-only serving — never panic, never lose
// data silently.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"hgmatch"
	"hgmatch/internal/hgio"
	"hgmatch/internal/hgtest"
)

// crashFixture is one deterministic workload: a base graph (as HGB2 bytes,
// the exact representation a checkpoint round-trips) plus pre-generated
// ingest batches with their NDJSON bodies.
type crashFixture struct {
	seed    []byte
	query   *hgmatch.Hypergraph
	batches [][]hgio.IngestRecord
	bodies  []string
}

func makeCrashFixture(t testing.TB, seed int64, numBatches, recsPer int) *crashFixture {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	base := hgtest.RandomHypergraph(rng, hgtest.RandomConfig{
		NumVertices: 40, NumEdges: 80, NumLabels: 4, MaxArity: 3,
	})
	var buf bytes.Buffer
	if err := hgio.WriteBinary(&buf, base); err != nil {
		t.Fatal(err)
	}
	fx := &crashFixture{seed: buf.Bytes(), query: hgtest.ConnectedQueryFromWalk(rng, base, 2)}

	// Mixed, always-semantically-valid ops: inserts of random vertex sets
	// (duplicates allowed — they exercise idempotent replay), deletes of
	// previously inserted sets (or misses), occasional vertex adds. Edges
	// only reference base vertices, so every record applies cleanly.
	var inserted [][]uint32
	randSet := func() []uint32 {
		n := 2 + rng.Intn(2)
		vs := make([]uint32, 0, n)
		for len(vs) < n {
			v := uint32(rng.Intn(40))
			dup := false
			for _, u := range vs {
				dup = dup || u == v
			}
			if !dup {
				vs = append(vs, v)
			}
		}
		return vs
	}
	for b := 0; b < numBatches; b++ {
		var recs []hgio.IngestRecord
		for k := 0; k < recsPer; k++ {
			switch r := rng.Intn(10); {
			case r < 7:
				vs := randSet()
				inserted = append(inserted, vs)
				recs = append(recs, hgio.IngestRecord{Op: "insert", Vertices: vs})
			case r < 9 && len(inserted) > 0:
				recs = append(recs, hgio.IngestRecord{Op: "delete", Vertices: inserted[rng.Intn(len(inserted))]})
			default:
				l := uint32(rng.Intn(4))
				recs = append(recs, hgio.IngestRecord{Op: "add_vertex", Label: &l})
			}
		}
		var body strings.Builder
		for _, r := range recs {
			line, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			body.Write(line)
			body.WriteByte('\n')
		}
		fx.batches = append(fx.batches, recs)
		fx.bodies = append(fx.bodies, body.String())
	}
	return fx
}

func (fx *crashFixture) baseGraph(t testing.TB) *hgmatch.Hypergraph {
	t.Helper()
	h, err := hgio.ReadBinary(bytes.NewReader(fx.seed))
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// reference builds the uninterrupted-run state: the base graph with the
// first upTo batches applied through the same applyRecord the handler
// uses, no crash, no WAL.
func (fx *crashFixture) reference(t testing.TB, upTo uint64) *hgmatch.Hypergraph {
	t.Helper()
	live, err := hgmatch.NewDeltaBuffer(fx.baseGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	var sum hgio.IngestSummary
	for i := 0; i < int(upTo); i++ {
		for _, rec := range fx.batches[i] {
			rec := rec
			if err := applyRecord(live, &rec, &sum); err != nil {
				t.Fatalf("reference batch %d: %v", i+1, err)
			}
		}
	}
	return live.Publish()
}

// canonicalGraphText renders a graph with its edge lines sorted: states
// that differ only in edge enumeration order (compaction renumbers edges)
// compare equal, anything content-different does not.
func canonicalGraphText(t testing.TB, h *hgmatch.Hypergraph) string {
	t.Helper()
	var vlines, elines []string
	for _, ln := range strings.Split(graphText(t, h), "\n") {
		switch {
		case strings.HasPrefix(ln, "e"):
			elines = append(elines, ln)
		case ln != "":
			vlines = append(vlines, ln)
		}
	}
	sort.Strings(elines)
	return strings.Join(vlines, "\n") + "\n" + strings.Join(elines, "\n")
}

// matchDump runs the engine single-threaded and returns the sorted
// embedding lines plus the total count — the /match payload in canonical
// order.
func matchDump(t testing.TB, q, h *hgmatch.Hypergraph) string {
	t.Helper()
	var lines []string
	res, err := hgmatch.Match(q, h,
		hgmatch.WithWorkers(1),
		hgmatch.WithCallback(func(m []hgmatch.EdgeID) { lines = append(lines, fmt.Sprint(m)) }))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(lines)
	return fmt.Sprintf("%d\n%s", res.Embeddings, strings.Join(lines, "\n"))
}

// newDurableServer registers fx's base graph durably on fs and returns the
// server. Registration recovers whatever checkpoint + WAL fs already
// holds.
func newDurableServer(t testing.TB, fs *hgtest.FaultFS, fx *crashFixture, sync hgio.SyncPolicy) *Server {
	t.Helper()
	reg := NewRegistry()
	if err := reg.EnableDurability(DurabilityConfig{Dir: "wal", FS: fs, Sync: sync, SegmentBytes: 4096}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Add("g", fx.baseGraph(t)); err != nil {
		t.Fatal(err)
	}
	return New(reg, Config{Workers: 2, PlanCacheSize: 8})
}

// post drives the handler directly (no TCP: the stress runs hundreds of
// server lifecycles).
func post(h http.Handler, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr
}

// serveBatches drives every fixture batch through the handler, optionally
// interleaving synchronous /compact checkpoints, and returns the highest
// WAL sequence the server ACKED (summary durable:true on a 2xx).
func serveBatches(t testing.TB, s *Server, fx *crashFixture, withCompact bool) (acked uint64) {
	t.Helper()
	h := s.Handler()
	for bi, body := range fx.bodies {
		rr := post(h, "/graphs/g/edges", body)
		if rr.Code == http.StatusOK {
			var sum hgio.IngestSummary
			if err := json.Unmarshal(rr.Body.Bytes(), &sum); err != nil {
				t.Fatalf("batch %d: bad summary %q: %v", bi, rr.Body.String(), err)
			}
			if !sum.Durable {
				t.Fatalf("batch %d acked without durability on a WAL-backed graph: %+v", bi, sum)
			}
			if sum.WalSeq > acked {
				acked = sum.WalSeq
			}
		}
		if withCompact && bi%7 == 6 {
			post(h, "/graphs/g/compact", "")
		}
	}
	return acked
}

// TestWALRecoveryBasic is the clean (crash-free) durability round trip:
// ingest, shut down, restart, identical state — including across a
// checkpoint (/compact) and with further writes after recovery.
func TestWALRecoveryBasic(t *testing.T) {
	fx := makeCrashFixture(t, 7, 12, 4)
	fs := hgtest.NewFaultFS()
	sync := hgio.SyncBatch

	s := newDurableServer(t, fs, fx, sync)
	acked := serveBatches(t, s, fx, false)
	if acked != uint64(len(fx.batches)) {
		t.Fatalf("acked %d of %d batches", acked, len(fx.batches))
	}
	want := canonicalGraphText(t, fx.reference(t, acked))
	s.Close()

	s2 := newDurableServer(t, fs, fx, sync)
	rep, ok := s2.Graphs().Recovery("g")
	if !ok || rep.LastSeq != acked || rep.Batches != len(fx.batches) {
		t.Fatalf("recovery report %+v (ok=%v), want %d batches", rep, ok, len(fx.batches))
	}
	h2 := snapshotOf(t, s2.Graphs(), "g")
	if got := canonicalGraphText(t, h2); got != want {
		t.Fatalf("recovered state differs from uninterrupted run:\n%s\n-- vs --\n%s", got, want)
	}
	if info, _ := s2.Graphs().Info("g"); info.ReadOnly || info.WalLastSeq != acked {
		t.Fatalf("recovered info %+v", info)
	}

	// Checkpoint, write more, restart again: the WAL was truncated, so
	// recovery now comes from checkpoint + the post-compact suffix alone.
	if rr := post(s2.Handler(), "/graphs/g/compact", ""); rr.Code != http.StatusOK {
		t.Fatalf("compact: %d %s", rr.Code, rr.Body.String())
	}
	if rr := post(s2.Handler(), "/graphs/g/edges", `{"op":"insert","vertices":[0,1,2,3,4,5,6,7]}`+"\n"); rr.Code != http.StatusOK {
		t.Fatalf("post-compact ingest: %d %s", rr.Code, rr.Body.String())
	}
	h2b := snapshotOf(t, s2.Graphs(), "g")
	want2 := canonicalGraphText(t, h2b)
	s2.Close()

	s3 := newDurableServer(t, fs, fx, sync)
	defer s3.Close()
	rep3, _ := s3.Graphs().Recovery("g")
	if rep3.Batches != 1 {
		t.Fatalf("post-checkpoint recovery replayed %d batches, want 1 (the WAL was truncated)", rep3.Batches)
	}
	h3 := snapshotOf(t, s3.Graphs(), "g")
	if got := canonicalGraphText(t, h3); got != want2 {
		t.Fatalf("post-checkpoint recovery differs:\n%s\n-- vs --\n%s", got, want2)
	}
}

// TestCrashRecoveryStress is the acceptance kill-point sweep: it kills
// the serving process at 510+ distinct operation points (3 sweeps x 170
// positions across the measured op range, plus jitter), restarts on the
// crash image of the disk, and asserts the full contract. "batch" sweeps
// twice under different seeds; with fsync on the ack path every acked
// batch must survive. Under "none" acks are explicitly best-effort, but
// recovery must still yield a clean prefix of the journaled history —
// never corruption, never read-only, never a panic.
func TestCrashRecoveryStress(t *testing.T) {
	const iters = 170
	fx := makeCrashFixture(t, 11, 40, 4)
	sweeps := []struct {
		name string
		sync hgio.SyncPolicy
		seed int64
	}{
		{"batch", hgio.SyncBatch, 0xC0FFEE ^ 0},
		{"batch-reseeded", hgio.SyncBatch, 0xC0FFEE ^ 1},
		{"none", hgio.SyncNone, 0xC0FFEE ^ 2},
	}
	for _, sw := range sweeps {
		sync := sw.sync
		t.Run(sw.name, func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(sw.seed))

			// Dry run: measure the serving phase's mutating-op count, so
			// kill points sweep the whole window evenly instead of
			// clustering wherever Intn lands.
			dryFS := hgtest.NewFaultFS()
			dry := newDurableServer(t, dryFS, fx, sync)
			preOps := dryFS.Ops()
			serveBatches(t, dry, fx, true)
			totalOps := dryFS.Ops() - preOps
			dry.Close()
			// The sweep places more kill points than there are ops: the
			// jitter and the alternating compaction schedule make repeats
			// of a nominal position hit different states anyway.
			if totalOps < iters/4 {
				t.Fatalf("workload too small to place %d kill points (%d ops)", iters, totalOps)
			}

			// Every state an uninterrupted run can pass through, in
			// canonical form. A checkpoint absorbs journaled batches (the
			// WAL sequence restarts after truncation), so durability is
			// asserted on STATE: the recovered graph must equal some
			// prefix of the batch history, at or past the last ack.
			refText := make([]string, len(fx.batches)+1)
			refGraph := make([]*hgmatch.Hypergraph, len(fx.batches)+1)
			for k := 0; k <= len(fx.batches); k++ {
				refGraph[k] = fx.reference(t, uint64(k))
				refText[k] = canonicalGraphText(t, refGraph[k])
			}

			for iter := 0; iter < iters; iter++ {
				withCompact := iter%2 == 1
				fs := hgtest.NewFaultFS()
				s := newDurableServer(t, fs, fx, sync)
				// Arm the kill AFTER registration: the sweep targets the
				// serving phase (boot-crash safety is covered by the
				// checkpoint/Reset crash windows inside it).
				killAt := (int64(iter)*totalOps)/iters + rng.Int63n(4)
				fs.CrashAfter(killAt)
				acked := serveBatches(t, s, fx, withCompact)
				s.Close()

				img := fs.CrashImage(rng)
				s2 := newDurableServer(t, img, fx, sync)
				if info, _ := s2.Graphs().Info("g"); info.ReadOnly {
					t.Fatalf("iter %d (killAt %d): clean crash recovered read-only: %s", iter, killAt, info.ReadOnlyReason)
				}
				rep, _ := s2.Graphs().Recovery("g")
				got := snapshotOf(t, s2.Graphs(), "g")
				gotText := canonicalGraphText(t, got)
				k := -1 // highest history prefix matching the recovered state
				for i := len(refText) - 1; i >= 0; i-- {
					if refText[i] == gotText {
						k = i
						break
					}
				}
				if k < 0 {
					t.Fatalf("iter %d (killAt %d): recovered state matches NO prefix of the batch history:\n%s", iter, killAt, gotText)
				}
				if sync != hgio.SyncNone && uint64(k) < acked {
					t.Fatalf("iter %d (killAt %d): acked through batch %d, recovered state only covers %d — acked data lost", iter, killAt, acked, k)
				}
				if iter%4 == 0 {
					if g, w := matchDump(t, fx.query, got), matchDump(t, fx.query, refGraph[k]); g != w {
						t.Fatalf("iter %d: /match output differs from uninterrupted run:\n%s\n-- vs --\n%s", iter, g, w)
					}
				}
				// The recovered server must be read-write: one more
				// durable ack proves the log came back writable.
				rr := post(s2.Handler(), "/graphs/g/edges", `{"op":"insert","vertices":[1,2,3,4,5,6]}`+"\n")
				if rr.Code != http.StatusOK {
					t.Fatalf("iter %d: post-recovery ingest: %d %s", iter, rr.Code, rr.Body.String())
				}
				var sum hgio.IngestSummary
				if err := json.Unmarshal(rr.Body.Bytes(), &sum); err != nil || !sum.Durable || sum.WalSeq != rep.LastSeq+1 {
					t.Fatalf("iter %d: post-recovery summary %+v (err %v), want durable seq %d", iter, sum, err, rep.LastSeq+1)
				}
				s2.Close()
			}
		})
	}
}

// TestCrashRecoveryStressConcurrent kills the process while two clients
// ingest disjoint edge sets concurrently, then checks every edge of every
// acked batch is present after recovery (journal order across clients is
// nondeterministic, so the check is per-batch membership, not a dump
// compare).
func TestCrashRecoveryStressConcurrent(t *testing.T) {
	fx := makeCrashFixture(t, 13, 1, 1) // only the base graph is used
	sync := hgio.SyncBatch
	rng := rand.New(rand.NewSource(99))
	const (
		clients = 2
		each    = 20
	)
	// Client g's batch i inserts the arity-4 edge {i, i+1, i+11, 38+g}:
	// distinct across i and g, and never colliding with the arity<=3 base.
	bodies := make([][]string, clients)
	edges := make([][][]uint32, clients)
	for g := 0; g < clients; g++ {
		for i := 0; i < each; i++ {
			vs := []uint32{uint32(i), uint32(i + 1), uint32(i + 11), uint32(38 - g)}
			rec := hgio.IngestRecord{Op: "insert", Vertices: vs}
			line, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			bodies[g] = append(bodies[g], string(line)+"\n")
			edges[g] = append(edges[g], vs)
		}
	}
	for iter := 0; iter < 40; iter++ {
		fs := hgtest.NewFaultFS()
		s := newDurableServer(t, fs, fx, sync)
		fs.CrashAfter(rng.Int63n(300))
		h := s.Handler()
		ackedUpTo := make([]int, clients) // client g acked batches [0,ackedUpTo[g])
		done := make(chan struct{})
		for g := 0; g < clients; g++ {
			go func(g int) {
				defer func() { done <- struct{}{} }()
				for i, body := range bodies[g] {
					rr := post(h, "/graphs/g/edges", body)
					if rr.Code != http.StatusOK {
						return
					}
					var sum hgio.IngestSummary
					if json.Unmarshal(rr.Body.Bytes(), &sum) == nil && sum.Durable {
						ackedUpTo[g] = i + 1
					}
				}
			}(g)
		}
		for g := 0; g < clients; g++ {
			<-done
		}
		s.Close()

		img := fs.CrashImage(rng)
		s2 := newDurableServer(t, img, fx, sync)
		if info, _ := s2.Graphs().Info("g"); info.ReadOnly {
			t.Fatalf("iter %d: recovered read-only: %s", iter, info.ReadOnlyReason)
		}
		live := liveOf(t, s2.Graphs(), "g")
		for g := 0; g < clients; g++ {
			for i := 0; i < ackedUpTo[g]; i++ {
				// Membership probe: re-inserting an edge that survived
				// replay must report a duplicate.
				_, added, err := live.InsertLabelled(hgmatch.NoEdgeLabel, edges[g][i]...)
				if err != nil {
					t.Fatalf("iter %d: probe client %d batch %d: %v", iter, g, i, err)
				}
				if added {
					t.Fatalf("iter %d: client %d's acked batch %d (edge %v) missing after recovery", iter, g, i, edges[g][i])
				}
			}
		}
		s2.Close()
	}
}

// TestQuarantineReadOnlyServing injects at-rest corruption into a sealed
// WAL segment and checks graceful degradation end to end: the segment is
// quarantined on disk, the graph serves /match read-only, ingest and
// compaction return 503 with the reason, and /stats + /graphs/{name}/stats
// surface the state.
func TestQuarantineReadOnlyServing(t *testing.T) {
	fx := makeCrashFixture(t, 17, 40, 4)
	fs := hgtest.NewFaultFS()
	sync := hgio.SyncBatch
	s := newDurableServer(t, fs, fx, sync)
	serveBatches(t, s, fx, false)
	s.Close()

	// Corrupt the middle of the FIRST (sealed) segment — 4096-byte
	// rotation guarantees several.
	var segs []string
	for _, n := range fs.FileNames() {
		if strings.Contains(n, "wal-") && strings.HasSuffix(n, ".seg") {
			segs = append(segs, n)
		}
	}
	if len(segs) < 2 {
		t.Fatalf("want rotated segments, got %v", segs)
	}
	if err := fs.Corrupt(segs[0], fs.FileSize(segs[0])/2, 0x10); err != nil {
		t.Fatal(err)
	}

	s2 := newDurableServer(t, fs, fx, sync)
	defer s2.Close()
	info, _ := s2.Graphs().Info("g")
	if !info.ReadOnly || info.ReadOnlyReason == "" {
		t.Fatalf("corrupted log did not degrade to read-only: %+v", info)
	}
	rep, _ := s2.Graphs().Recovery("g")
	if len(rep.Quarantined) == 0 {
		t.Fatalf("no quarantined segment in report %+v", rep)
	}
	quarantined := false
	for _, n := range fs.FileNames() {
		quarantined = quarantined || strings.HasSuffix(n, ".quarantined")
	}
	if !quarantined {
		t.Fatalf("quarantined segment not preserved on disk: %v", fs.FileNames())
	}

	h := s2.Handler()
	if rr := post(h, "/graphs/g/edges", `{"op":"insert","vertices":[0,1]}`+"\n"); rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("ingest on read-only graph: %d %s, want 503", rr.Code, rr.Body.String())
	} else if !strings.Contains(rr.Body.String(), "read-only") {
		t.Fatalf("503 body lacks reason: %s", rr.Body.String())
	}
	if rr := post(h, "/graphs/g/compact", ""); rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("compact on read-only graph: %d, want 503", rr.Code)
	}
	// Matching still serves the recovered prefix.
	ts := httptest.NewServer(h)
	defer ts.Close()
	if lines, sum := sortedMatchLines(t, ts, hgio.MatchRequest{Graph: "g", Query: graphText(t, fx.query)}); !sum.Done {
		t.Fatalf("read-only /match did not complete: %+v (%d lines)", sum, len(lines))
	}
	// /stats surfaces the degradation fleet-wide.
	req := httptest.NewRequest(http.MethodGet, "/stats", nil)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	var st hgio.SchedulerStats
	if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if !st.WALEnabled || st.ReadOnlyGraphs != 1 {
		t.Fatalf("/stats = %+v, want wal_enabled and read_only_graphs=1", st)
	}
}

// TestCheckpointBitFlipQuarantines flips one bit of a checkpoint at rest,
// once in its WAL coverage mark and once in the graph bytes, and checks
// that recovery treats the checkpoint as unreadable: it is quarantined,
// the graph serves its seed read-only and ingest answers 503. Trusting a
// flipped mark would skip acked batches as already checkpointed and keep
// acking on top; the graph's own encoding rejects most flips, but not
// all of them.
func TestCheckpointBitFlipQuarantines(t *testing.T) {
	fx := makeCrashFixture(t, 7, 12, 4)
	cp := "wal/g/" + hgio.CheckpointFile
	for _, tc := range []struct {
		name   string
		offset func(t *testing.T, data []byte) (int64, byte)
	}{
		// Bytes 8–16 hold the covered sequence: 0 becomes 64.
		{"coverage mark", func(*testing.T, []byte) (int64, byte) { return 8, 0x40 }},
		// The first graph bit whose flip the HGB2 decoder alone accepts.
		// The checkpoint holds the seed, whose HGB2 bytes follow the header.
		{"graph payload", func(t *testing.T, data []byte) (int64, byte) {
			if !bytes.HasPrefix(data[16:], fx.seed) {
				t.Fatal("the checkpoint does not hold the seed's HGB2 bytes")
			}
			for off := range fx.seed {
				for bit := 0; bit < 8; bit++ {
					flipped := bytes.Clone(fx.seed)
					flipped[off] ^= 1 << bit
					if _, err := hgio.ReadBinary(bytes.NewReader(flipped)); err == nil {
						return int64(16 + off), 1 << bit
					}
				}
			}
			t.Fatal("the HGB2 decoder rejects every single-bit flip of the graph")
			return 0, 0
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := hgtest.NewFaultFS()
			s := newDurableServer(t, fs, fx, hgio.SyncBatch)
			if acked := serveBatches(t, s, fx, false); acked != uint64(len(fx.batches)) {
				t.Fatalf("acked %d of %d batches", acked, len(fx.batches))
			}
			s.Close()
			data, err := fs.ReadFileData(cp)
			if err != nil {
				t.Fatal(err)
			}
			off, xor := tc.offset(t, data)
			if err := fs.Corrupt(cp, off, xor); err != nil {
				t.Fatal(err)
			}

			s2 := newDurableServer(t, fs, fx, hgio.SyncBatch)
			defer s2.Close()
			info, _ := s2.Graphs().Info("g")
			if !info.ReadOnly || !strings.Contains(info.ReadOnlyReason, "checkpoint unreadable") {
				t.Fatalf("flipped checkpoint recovered as %+v, want read-only with an unreadable checkpoint", info)
			}
			rep, _ := s2.Graphs().Recovery("g")
			if len(rep.Quarantined) != 1 || rep.Quarantined[0] != hgio.CheckpointFile+".quarantined" || fs.FileSize(cp+".quarantined") < 0 {
				t.Fatalf("checkpoint not quarantined: report %+v, files %v", rep, fs.FileNames())
			}
			if got, want := canonicalGraphText(t, snapshotOf(t, s2.Graphs(), "g")), canonicalGraphText(t, fx.baseGraph(t)); got != want {
				t.Fatal("read-only graph does not serve its seed")
			}
			if rr := post(s2.Handler(), "/graphs/g/edges", `{"op":"insert","vertices":[0,1]}`+"\n"); rr.Code != http.StatusServiceUnavailable {
				t.Fatalf("ingest after a flipped checkpoint: %d %s, want 503", rr.Code, rr.Body.String())
			}
		})
	}
}

// TestIngestMalformedNDJSONTransactional pins the framing contract: a
// malformed line anywhere in the body rejects the WHOLE batch — nothing
// applied, nothing journaled, nothing published — while a semantic error
// mid-batch keeps the journaled+published prefix. Either way a batch is
// never visible without being durable.
func TestIngestMalformedNDJSONTransactional(t *testing.T) {
	fx := makeCrashFixture(t, 23, 0, 0)
	fs := hgtest.NewFaultFS()
	s := newDurableServer(t, fs, fx, hgio.SyncBatch)
	defer s.Close()
	h := s.Handler()
	before := canonicalGraphText(t, fx.reference(t, 0))

	snapshot := func() (string, hgio.GraphInfo) {
		g := snapshotOf(t, s.Graphs(), "g")
		info, _ := s.Graphs().Info("g")
		return canonicalGraphText(t, g), info
	}

	// Malformed JSON mid-stream: full rejection.
	rr := post(h, "/graphs/g/edges",
		`{"op":"insert","vertices":[0,1]}`+"\n"+`{"op":"insert","vertices":[`+"\n"+`{"op":"insert","vertices":[2,3]}`+"\n")
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("malformed batch: %d, want 400", rr.Code)
	}
	var sum hgio.IngestSummary
	if err := json.Unmarshal(rr.Body.Bytes(), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Inserted != 0 || sum.Durable || sum.WalSeq != 0 || !strings.Contains(sum.Error, "batch rejected") {
		t.Fatalf("malformed batch summary %+v, want full rejection", sum)
	}
	if got, info := snapshot(); got != before || info.WalLastSeq != 0 {
		t.Fatalf("malformed batch leaked state: wal seq %d, dump changed: %v", info.WalLastSeq, got != before)
	}

	// Unknown field (DisallowUnknownFields): also full rejection.
	rr = post(h, "/graphs/g/edges", `{"op":"insert","vertices":[0,1],"bogus":1}`+"\n")
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("unknown-field batch: %d, want 400", rr.Code)
	}
	if got, info := snapshot(); got != before || info.WalLastSeq != 0 {
		t.Fatalf("unknown-field batch leaked state (wal seq %d)", info.WalLastSeq)
	}

	// Semantic error mid-batch: the applied prefix lands as one
	// journaled+published unit, the summary says how far it got.
	rr = post(h, "/graphs/g/edges",
		`{"op":"insert","vertices":[0,1]}`+"\n"+`{"op":"frobnicate"}`+"\n"+`{"op":"insert","vertices":[2,3]}`+"\n")
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("semantic-error batch: %d, want 400", rr.Code)
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Inserted != 1 || sum.Lines != 2 || !sum.Durable || sum.WalSeq != 1 {
		t.Fatalf("semantic-error summary %+v, want journaled 1-insert prefix at seq 1", sum)
	}
	got, info := snapshot()
	if got == before || info.WalLastSeq != 1 {
		t.Fatalf("semantic-error prefix not applied+journaled (wal seq %d)", info.WalLastSeq)
	}
	// The journaled prefix must replay: restart and compare.
	s.Close()
	s2 := newDurableServer(t, fs, fx, hgio.SyncBatch)
	defer s2.Close()
	g2 := snapshotOf(t, s2.Graphs(), "g")
	if canonicalGraphText(t, g2) != got {
		t.Fatal("journaled prefix did not survive restart")
	}
}

// TestWALRefusedBatchStaysInvisible pins durability before visibility on
// the read side: a batch whose fsync fails is answered 503 and must never
// be served, neither by the next read (Acquire) nor by a stats call.
// Reads return the latest published snapshot and leave publishing to the
// writer, which publishes only after the journal. (Whether the refused
// frame survives a restart is unspecified: it was never acked, and either
// outcome replays a prefix of the journal.)
func TestWALRefusedBatchStaysInvisible(t *testing.T) {
	fx := makeCrashFixture(t, 17, 4, 4)
	fs := hgtest.NewFaultFS()
	s := newDurableServer(t, fs, fx, hgio.SyncBatch)
	defer s.Close()
	reg := s.Graphs()
	before := snapshotOf(t, reg, "g")
	want := canonicalGraphText(t, before)

	fs.FailSync(1)
	body := `{"op":"insert","vertices":[0,1,2,3,4,5,6,7]}` + "\n" + `{"op":"insert","vertices":[8,9,10,11,12,13]}` + "\n"
	if rr := post(s.Handler(), "/graphs/g/edges", body); rr.Code != http.StatusServiceUnavailable ||
		!strings.Contains(rr.Body.String(), "wal append failed") {
		t.Fatalf("ingest with a failing fsync: %d %s, want 503 wal append failed", rr.Code, rr.Body.String())
	}
	if info, _ := reg.Info("g"); info.NumEdges != before.NumLiveEdges() {
		t.Fatalf("Info reports %d edges after a refused batch, want %d", info.NumEdges, before.NumLiveEdges())
	}
	if h := snapshotOf(t, reg, "g"); canonicalGraphText(t, h) != want {
		t.Fatalf("Acquire serves the refused batch: %d live edges, want %d", h.NumLiveEdges(), before.NumLiveEdges())
	}
}
