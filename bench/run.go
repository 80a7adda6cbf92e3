package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"hgmatch/internal/hgio"
	"hgmatch/internal/hypergraph"
)

// setupsPerRun is how often a timed run boots and warms the server; setup_s
// is the median, so one slow exec does not decide it.
const setupsPerRun = 5

// maxFailuresKept bounds the failure messages a report carries.
const maxFailuresKept = 20

type config struct {
	spec    *spec
	seed    int64
	seconds float64
	traced  bool
	outDir  string
	hgserve string
}

// harness is one run of one workload.
type harness struct {
	config
	ctx    context.Context
	nproc  int
	runDir string // scratch under outDir, removed when the run ends

	data     *hypergraph.Hypergraph
	dataPath string
	stream   *stream
	srv      *serverProc
	walDirs  int

	// probe runs for as long as the run takes timings; speed is what it saw,
	// set once those are all taken.
	probe *speedProbe
	speed *speed

	rep report
}

func newHarness(ctx context.Context, cfg config) (*harness, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	runDir, err := os.MkdirTemp(cfg.outDir, "run-")
	if err != nil {
		return nil, err
	}
	fp := machineFingerprint()
	fp.Seed, fp.Seconds = cfg.seed, cfg.seconds
	fp.Connections = cfg.spec.loops()
	return &harness{
		config: cfg, ctx: ctx, nproc: fp.GoMaxProcs, runDir: runDir, probe: startSpeedProbe(),
		rep: report{Workload: cfg.spec.name, Traced: cfg.traced, Fingerprint: fp, Metrics: values{}},
	}, nil
}

// close stops the child and removes the run's scratch; it runs on every
// exit path, signals included (main cancels ctx and still returns here).
func (hn *harness) close() {
	hn.probe.finish()
	hn.stopServer()
	os.RemoveAll(hn.runDir)
}

// stopServer SIGKILLs the child, if there is one, and waits for it.
func (hn *harness) stopServer() {
	hn.srv.kill()
	hn.srv = nil
}

// record counts one checked operation.
func (hn *harness) record(what, err string) {
	hn.rep.Attempted++
	if err == "" {
		return
	}
	hn.rep.Failed++
	if len(hn.rep.Failures) < maxFailuresKept {
		hn.rep.Failures = append(hn.rep.Failures, what+": "+err)
	}
}

func (hn *harness) recordSamples(kind string, ss []sample) {
	for i := range ss {
		hn.record(fmt.Sprintf("%s #%d", kind, ss[i].op), ss[i].err)
	}
}

// prepare generates the dataset, the oracle and the request stream, and
// writes the dataset file the server will load.
func (hn *harness) prepare() error {
	var err error
	if hn.data, err = hn.spec.dataset(); err != nil {
		return err
	}
	pool, err := hn.spec.fixedPool(hn.data, hn.nproc)
	if err != nil {
		return err
	}
	if hn.stream, err = hn.spec.buildStream(hn.data, pool, hn.seed, hn.seconds, hn.nproc); err != nil {
		return err
	}
	hn.dataPath = filepath.Join(hn.runDir, "data.hgb")
	return hgio.WriteBinaryFile(hn.dataPath, hn.data)
}

// durable reports whether the workload serves with a write-ahead log.
func (hn *harness) durable() bool { return hn.spec.ingestRate > 0 }

// boot starts hgserve on the dataset; wal names the log directory of a
// durable server ("" for none).
func (hn *harness) boot(wal string) error {
	args := []string{"-compact-threshold", strconv.Itoa(hn.spec.compactAt)}
	if wal != "" {
		args = append(args, "-wal-dir", wal, "-wal-sync", "batch")
	}
	args = append(args, graphName+"="+hn.dataPath)
	srv, err := startServer(hn.ctx, hn.hgserve, filepath.Join(hn.runDir, "hgserve.log"), args...)
	if err != nil {
		return err
	}
	hn.srv = srv
	return nil
}

// newWALDir names a fresh log directory in the run's scratch; hgserve
// creates it.
func (hn *harness) newWALDir() string {
	hn.walDirs++
	return filepath.Join(hn.runDir, "wal-"+strconv.Itoa(hn.walDirs))
}

// setup is what setup_s times: exec, ready, one warm-up pass over the fixed
// pool, and on a durable workload the warm-up batches (the first boot also
// seeds the log's checkpoint). It returns the log directory in use.
func (hn *harness) setup() (wal string, err error) {
	if hn.durable() {
		wal = hn.newWALDir()
	}
	if err := hn.boot(wal); err != nil {
		return "", err
	}
	c := newClient(hn.ctx, hn.srv.base, 1)
	defer c.close()
	t0 := time.Now()
	buf := make([]byte, 64<<10)
	for _, r := range hn.stream.warm {
		s := c.query(t0, r, buf)
		hn.record("warm-up "+r.q.ref, s.err)
	}
	if hn.durable() {
		hn.sendWarmBatches(c, true)
	}
	return wal, nil
}

// sendWarmBatches sends the insert-only batches every batch sequence starts
// with; they are checked but never timed.
func (hn *harness) sendWarmBatches(c *client, durable bool) {
	t0 := time.Now()
	for i := 0; i < warmBatches; i++ {
		s := c.ingest(t0, hn.stream.ingest, i, durable)
		hn.record(fmt.Sprintf("warm-up batch #%d", i), s.err)
	}
}

// windowResult is what one load window produced.
type windowResult struct {
	t0       time.Time
	queries  []sample
	batches  []sample
	batchHi  int           // batches [warmBatches, batchHi) were sent
	elapsed  time.Duration // start to last completion
	cpu      time.Duration // generator user+system time
	spanning time.Duration // time the loops spent recording spans, all connections together
}

// timeline is a sequence of operations with the instant their offsets count
// from.
type timeline struct {
	t0 time.Time
	ss []sample
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// window runs the workload's loops for dur: the query stream from its
// start, the writer's batches from the first one after the warm-up batches.
//
// With a tracer every operation also leaves client-side spans. A loop
// records them before it takes its next operation, so the time spent
// recording is exactly what tracing takes from the loops' throughput.
func (hn *harness) window(dur time.Duration, tr *tracer) windowResult {
	sp, st := hn.spec, hn.stream
	res := windowResult{batchHi: warmBatches}
	conns := sp.clients + sp.conns
	c := newClient(hn.ctx, hn.srv.base, conns)
	defer c.close()
	bufs := make([][]byte, conns)
	for i := range bufs {
		bufs[i] = make([]byte, 64<<10)
	}
	// The generator shares two processors with the server, and one of its
	// own collection cycles over the dataset-sized heap delays sends by
	// several milliseconds. Collect now and not again during the window
	// (main sets a memory limit under which the collector stays off).
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cpu0, t0 := cpuTime(), time.Now()
	res.t0 = t0
	var spanning atomic.Int64
	traced := func(name string, req int, s sample) sample {
		s.req = req
		if tr != nil {
			start := time.Now()
			id := tr.add(0, req, name, t0.Add(s.sent), t0.Add(s.end), map[string]uint64{"bytes": uint64(s.bytes), "embeddings": s.embeddings})
			tr.add(id, req, name+".first_byte", t0.Add(s.sent), t0.Add(s.first), nil)
			spanning.Add(int64(time.Since(start)))
		}
		return s
	}
	var wg sync.WaitGroup
	if sp.ingestRate > 0 {
		n := min(int(sp.ingestRate*dur.Seconds()), len(st.ingest.bodies)-warmBatches)
		due := make([]time.Duration, n)
		for i := range due {
			due[i] = time.Duration(float64(i) / sp.ingestRate * float64(time.Second))
		}
		res.batchHi += n
		wc := newClient(hn.ctx, hn.srv.base, 1)
		defer wc.close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			res.batches = runOpen(hn.ctx, t0, due, 1, func(_, i int) sample {
				return traced("client.ingest", warmBatches+i, wc.ingest(t0, st.ingest, warmBatches+i, true))
			})
		}()
	}
	if sp.rate > 0 {
		n := sort.Search(len(st.due), func(i int) bool { return st.due[i] >= dur })
		res.queries = runOpen(hn.ctx, t0, st.due[:n], sp.conns, func(w, i int) sample {
			r := st.requests[i]
			return traced("client"+r.path, r.q.id, c.query(t0, r, bufs[w]))
		})
	} else {
		res.queries = runClosed(hn.ctx, t0, dur, sp.clients, func(w, i int) sample {
			r := st.requests[i%len(st.requests)]
			return traced("client"+r.path, r.q.id, c.query(t0, r, bufs[w]))
		})
	}
	wg.Wait()
	for _, ss := range [][]sample{res.queries, res.batches} {
		for i := range ss {
			if ss[i].end > res.elapsed {
				res.elapsed = ss[i].end
			}
		}
	}
	res.cpu = cpuTime() - cpu0
	res.spanning = time.Duration(spanning.Load())
	return res
}

// writeTail sends a read-only workload's batches to the current server, one
// after another: warmBatches untimed, then the timed ones.
func (hn *harness) writeTail() timeline {
	c := newClient(hn.ctx, hn.srv.base, 1)
	defer c.close()
	hn.sendWarmBatches(c, false)
	out := timeline{t0: time.Now()}
	for i := warmBatches; i < len(hn.stream.ingest.bodies); i++ {
		out.ss = append(out.ss, c.ingest(out.t0, hn.stream.ingest, i, false))
	}
	hn.recordSamples("tail batch", out.ss)
	return out
}

// verifyState checks the server's live graph against an offline rebuild of
// base + acked inserts - acked deletes: the live edge count and an exact
// /count of the given queries.
func (hn *harness) verifyState(stage string, acked int, queries []*query) error {
	want, err := hn.stream.ingest.rebuild(acked)
	if err != nil {
		return fmt.Errorf("rebuilding the expected graph: %w", err)
	}
	var info hgio.GraphInfo
	if err := hn.srv.getJSON("/graphs/"+graphName+"/stats", &info); err != nil {
		hn.record(stage+" edge count", err.Error())
	} else if info.NumEdges != want.NumEdges() {
		hn.record(stage+" edge count", fmt.Sprintf("server has %d live edges, rebuild has %d", info.NumEdges, want.NumEdges()))
	} else {
		hn.record(stage+" edge count", "")
	}
	c := newClient(hn.ctx, hn.srv.base, 1)
	defer c.close()
	t0 := time.Now()
	buf := make([]byte, 64<<10)
	for _, q := range queries {
		n, err := seqCount(q.graph, want)
		if err != nil {
			return err
		}
		exact := *q
		exact.count = n
		r, err := encodeRequest(&exact, "/count", 0, false)
		if err != nil {
			return err
		}
		s := c.query(t0, r, buf)
		hn.record(stage+" "+q.ref, s.err)
	}
	return nil
}

// killAndRecover SIGKILLs the server and restarts it on the same log
// directory, returning exec-to-ready. Kill -9 leaves the OS page cache
// intact, so this checks that an ack implies journaled, not that the
// device persisted it.
func (hn *harness) killAndRecover(wal string) (time.Duration, error) {
	hn.stopServer()
	start := time.Now()
	if err := hn.boot(wal); err != nil {
		return 0, fmt.Errorf("restart after SIGKILL: %w", err)
	}
	return time.Since(start), nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// timedRun measures the end-to-end metrics with tracing off.
func (hn *harness) timedRun() error {
	var setups [][2]time.Duration // start and end, from the probe's start
	var wal string
	var tail timeline
	for k := 0; k < setupsPerRun; k++ {
		hn.stopServer()
		start := time.Since(hn.probe.t0)
		w, err := hn.setup()
		if err != nil {
			return err
		}
		wal = w
		setups = append(setups, [2]time.Duration{start, time.Since(hn.probe.t0)})
		// A read-only workload's batches change the graph, so they go to a
		// server that was booted for setup_s only and is discarded next.
		if k == 0 && !hn.durable() {
			tail = hn.writeTail()
		}
	}
	win := hn.window(time.Duration(hn.seconds*float64(time.Second)), nil)
	hn.speed = hn.probe.finish() // every timing has been taken
	hn.recordSamples("query", win.queries)
	hn.recordSamples("batch", win.batches)
	m := hn.rep.Metrics
	rss, err := hn.srv.peakRSSMB()
	if err != nil {
		return err
	}
	m.set("server_rss_peak_mb", rss, 1)

	if hn.durable() {
		tail = timeline{win.t0, win.batches}
		if err := hn.verifyState("live", win.batchHi, hn.stream.pool); err != nil {
			return err
		}
		if _, err := hn.killAndRecover(wal); err != nil {
			return err
		}
		if err := hn.verifyState("recovered", win.batchHi, hn.stream.pool); err != nil {
			return err
		}
		hn.rep.Notes = append(hn.rep.Notes, "recovery check used SIGKILL: the OS page cache survives it, so it shows ack implies journaled, not device durability")
	}
	secs := make([]float64, len(setups))
	for i, iv := range setups {
		secs[i] = hn.speed.scaled(hn.probe.t0, iv[0], iv[1]).Seconds()
	}
	m.set("setup_s", median(secs), len(secs))
	hn.clientMetrics(win)
	hn.generatorMetrics(win, tail)
	lat := hn.latenciesMs(tail)
	m.set("ingest_p50_ms", percentile(lat, 0.5), len(lat))
	return nil
}

// latenciesMs returns the operations' latencies at reference speed, sorted.
func (hn *harness) latenciesMs(tl timeline) []float64 {
	out := make([]float64, len(tl.ss))
	for i := range tl.ss {
		out[i] = ms(hn.speed.scaled(tl.t0, tl.ss[i].due, tl.ss[i].end))
	}
	sort.Float64s(out)
	return out
}

// clientMetrics turns a window's query samples into what a client of the
// server sees. Timings are at reference speed (see calib.go); goodput is
// not, its limit is a deadline in real time.
func (hn *harness) clientMetrics(win windowResult) {
	m, n := hn.rep.Metrics, len(win.queries)
	// A loop that goes round its pool is summarised over whole rounds:
	// latencies cluster by query, and the requests of a last, partial round
	// would move every percentile towards the queries that happen to open
	// the round.
	whole := n
	if hn.spec.rate == 0 && n >= len(hn.stream.requests) {
		whole = n - n%len(hn.stream.requests)
	}
	var qs []sample
	var emb, wholeEmb uint64
	var bytes int64
	good := 0
	for i := range win.queries {
		s := &win.queries[i]
		emb += s.embeddings
		if s.err == "" && ms(s.latency()) <= hn.spec.limitMs {
			good++
		}
		if s.op < whole {
			qs = append(qs, *s)
			wholeEmb += s.embeddings
			bytes += s.bytes
		}
	}
	lat := hn.latenciesMs(timeline{win.t0, qs})
	first := make([]float64, len(qs))
	for i := range qs {
		first[i] = ms(hn.speed.scaled(win.t0, qs[i].due, qs[i].first))
	}
	sort.Float64s(first)
	// A closed loop completes work as fast as the machine lets it; an open
	// loop's throughput is set by its schedule and is reported as it was.
	elapsed := win.elapsed
	if hn.spec.rate == 0 {
		elapsed = hn.speed.scaled(win.t0, 0, win.elapsed)
	}
	m.set("embeddings_per_s", float64(emb)/elapsed.Seconds(), n)
	m.set("query_p50_ms", percentile(lat, 0.5), whole)
	m.set("loadgen.query_p90_ms", percentile(lat, 0.9), whole)
	m.set("first_row_p50_ms", percentile(first, 0.5), whole)
	m.set("goodput_frac", float64(good)/float64(n), n)
	m.set("wire_bytes_per_embedding", float64(bytes)/float64(wholeEmb), whole)
}

// generatorMetrics reports what is printed but not gated: the tail
// percentiles, which do not repeat within a bound on a shared machine, how
// slow the machine was, and the numbers that say whether the run itself was
// valid. batches are the writes that were timed, beside the window or not.
func (hn *harness) generatorMetrics(win windowResult, batches timeline) {
	m, qs := hn.rep.Metrics, win.queries
	n := len(qs)
	lat := hn.latenciesMs(timeline{win.t0, qs})
	late, failed := 0, 0
	var maxLate time.Duration
	for _, ss := range [][]sample{qs, win.batches} {
		for i := range ss {
			if ss[i].err != "" {
				failed++
			}
			d := ss[i].lateness()
			if d > time.Millisecond {
				late++
			}
			if d > maxLate {
				maxLate = d
			}
		}
	}
	tail := tailPercentile(n)
	m.set("loadgen.query_p99_ms", percentile(lat, 0.99), n)
	m.set("loadgen.query_p999_ms", percentile(lat, 0.999), n)
	m.set("loadgen.query_tail_pct", tail*100, n)
	m.set("loadgen.query_tail_ms", percentile(lat, tail), n)
	m.set("loadgen.ingest_p90_ms", percentile(hn.latenciesMs(batches), 0.9), len(batches.ss))
	m.set("loadgen.slowdown", hn.speed.median(win.t0, 0, win.elapsed), n)
	m.set("loadgen.attempted", float64(n+len(win.batches)), n+len(win.batches))
	m.set("loadgen.failed_frac", float64(failed)/float64(n+len(win.batches)), n+len(win.batches))
	cpuFrac := win.cpu.Seconds() / (win.elapsed.Seconds() * float64(hn.nproc))
	lateFrac := float64(late) / float64(n+len(win.batches))
	m.set("loadgen.cpu_frac", cpuFrac, 1)
	m.set("loadgen.late_frac", lateFrac, n+len(win.batches))
	m.set("loadgen.max_late_ms", ms(maxLate), n+len(win.batches))
	if lateFrac > 0.01 {
		hn.rep.Warnings = append(hn.rep.Warnings, fmt.Sprintf("generator sent %.1f%% of requests more than 1 ms late", 100*lateFrac))
	}
	if cpuFrac > 0.35 {
		hn.rep.Warnings = append(hn.rep.Warnings, fmt.Sprintf("generator used %.0f%% of the machine", 100*cpuFrac))
	}
}

// tracedRun produces the per-layer metrics: a short load window against the
// hgserve child with client-side spans on, then the recovery probe, the
// ladder and the storage layers in this process.
func (hn *harness) tracedRun() error {
	m := hn.rep.Metrics
	tr := &tracer{t0: time.Now()}
	wal, err := hn.setup()
	if err != nil {
		return err
	}
	var health0, health1 hgio.HealthResponse
	var stats0, stats1 hgio.SchedulerStats
	if err := errors.Join(hn.srv.getJSON("/healthz", &health0), hn.srv.getJSON("/stats", &stats0)); err != nil {
		return err
	}
	win := hn.window(time.Duration(hn.seconds/3*float64(time.Second)), tr)
	if err := errors.Join(hn.srv.getJSON("/healthz", &health1), hn.srv.getJSON("/stats", &stats1)); err != nil {
		return err
	}
	// The writes whose tail latency is printed: the window's own or, on a
	// read-only workload, a write tail sent to the window's server, which
	// is not needed after this.
	batches := timeline{win.t0, win.batches}
	if !hn.durable() {
		batches = hn.writeTail()
	}
	hn.speed = hn.probe.finish()
	hn.recordSamples("query", win.queries)
	hn.recordSamples("batch", win.batches)
	hn.clientMetrics(win)
	hn.generatorMetrics(win, batches)
	// Without the spans the loops would have got through the same operations
	// sooner by the time they spent recording them, so (untraced - traced) /
	// untraced throughput is that time's share of the loops' time.
	requests := len(win.queries) + len(win.batches)
	m.set("loadgen.trace_overhead_frac", win.spanning.Seconds()/(win.elapsed.Seconds()*float64(hn.spec.loops())), requests)

	hits := float64(health1.PlanCacheHits - health0.PlanCacheHits)
	misses := float64(health1.PlanCacheMisses - health0.PlanCacheMisses)
	m.set("server.plancache_hit_frac", hits/(hits+misses), requests)
	m.set("server.pool_tasks", float64(stats1.Tasks-stats0.Tasks), requests)
	m.set("server.admitted", float64(stats1.Admitted+stats1.Bypassed-stats0.Admitted-stats0.Bypassed), requests)
	m.set("server.slow_client_aborts", float64(stats1.SlowClientAborts-stats0.SlowClientAborts), requests)
	m.set("server.leaked_blocks", float64(stats1.LeakedBlocks-stats0.LeakedBlocks), requests)

	// The recovery probe. A durable workload kills the server it has been
	// writing to; the others first boot a durable server on their dataset
	// and write the warm-up batches to it.
	acked := win.batchHi
	if !hn.durable() {
		hn.stopServer()
		wal, acked = hn.newWALDir(), warmBatches
		if err := hn.boot(wal); err != nil {
			return err
		}
		c := newClient(hn.ctx, hn.srv.base, 1)
		hn.sendWarmBatches(c, true)
		c.close()
	}
	probe := ladderQueries(hn.stream.pool, hn.spec.ladderN)
	if err := hn.verifyState("live", acked, probe); err != nil {
		return err
	}
	recovery, err := hn.killAndRecover(wal)
	if err != nil {
		return err
	}
	m.set("hgio.wal_recover_s", recovery.Seconds(), 1)
	if err := hn.verifyState("recovered", acked, probe); err != nil {
		return err
	}
	hn.stopServer() // the ladder wants the machine to itself

	checked := hn.stream.pool[:hn.spec.crossChecked]
	for i, msg := range crossCheck(checked, hn.data) {
		hn.record("baseline oracle "+checked[i].ref, msg)
	}
	if err := hn.ladder(tr); err != nil {
		return err
	}
	if err := hn.storageLayers(); err != nil {
		return err
	}
	return hn.writeTrace(tr)
}
