// Package server implements the hgserve HTTP match service: named data
// hypergraphs loaded at startup (Registry) and updatable online, JSON/
// NDJSON endpoints over the public hgmatch API, and an LRU cache of
// compiled plans (PlanCache) so repeated queries skip Compile and go
// straight to the parallel engine.
//
// Endpoints:
//
//	POST /match                  NDJSON stream: one EmbeddingRecord line per
//	                             embedding, then a closing MatchSummary line
//	POST /count                  JSON MatchSummary (counts only, no stream)
//	GET  /graphs                 JSON list of loaded graphs with Table II stats
//	GET  /graphs/{name}/stats    JSON stats for one graph
//	POST /graphs/{name}/edges    NDJSON bulk ingest (IngestRecord lines:
//	                             insert/delete/add_vertex) -> IngestSummary
//	POST /graphs/{name}/compact  fold the graph's delta into a fresh base
//	GET  /stats                  JSON scheduler stats: shared-pool counters
//	                             and admission-control accounting
//	GET  /healthz                liveness + plan-cache hit/miss counters
//
// Every registered graph is live: ingest goes through a DeltaBuffer whose
// snapshots swap in atomically. A /match that started before an ingest
// finishes on its original snapshot; the first request after publication
// sees the new version, whose plans compile fresh (the version is part of
// the plan-cache key, so stale plans can never serve).
//
// Request/response types live in internal/hgio (wire.go); queries travel
// as strings in the same text format the CLIs read from .hg files.
//
// The hot path is built for concurrency: plans are immutable and shared
// across requests, embeddings stream through hgmatch.WithGroupCallback —
// one (partial embedding, candidate run) group per call — into per-worker
// NDJSON buffers (no per-embedding lock or reflection, nothing materialises
// server-side; an uncapped stream interleaves workers' lines, a capped one
// is the first rows of the sequential order), and
// every run is wired to the request context through hgmatch.WithContext so
// a client disconnect stops enumeration mid-run. All matches execute on
// one process-wide hgmatch.Pool (Config.Workers) under fair scheduling —
// concurrent requests share the worker set instead of oversubscribing
// cores — and an optional cost-based admission controller
// (Config.Admission) prices each request by its planner estimate against
// a per-tenant quota, answering 429 with a structured retry-after when a
// tenant would overdraw.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hgmatch"
	"hgmatch/internal/engine"
	"hgmatch/internal/hgio"
)

// shardFlushBytes is how much NDJSON a worker shard buffers before it first
// hands the frame to the response's writer. Each engine worker encodes into
// its own buffer, and one hand-off, a queue slot taken under a short lock,
// amortises over hundreds of lines on fast producers. Each later hand-off
// doubles the shard's threshold up to shardFrameBytes: the first row leaves
// as early as a 16 KiB frame allows, and a long stream goes out in 64 KiB
// frames, a quarter of the writes (net/http's chunked writer turns a frame
// written back to back with the next into two write(2) calls, and one
// followed by a Flush into three).
const (
	shardFlushBytes = 16 << 10
	shardFrameBytes = 64 << 10
)

// frameQueueDepth is how many full frames a /match response's queue holds
// for its writer: two per worker of a 2-core box, enough for the writer to
// write one frame while the workers fill the next ones. A deeper queue adds
// only memory when the socket is the bottleneck; a worker that finds the
// queue full parks the request instead of waiting (see matchStream). With
// it, one connection's encode memory is bounded by (pool workers +
// frameQueueDepth + 1) frames of shardFrameBytes+frameSlack (68 KiB) plus
// the tail frame: the workers' shards, the queue and the frame in write.
const frameQueueDepth = 4

// frameSlack is the room a frame keeps past shardFrameBytes: a shard is
// handed off after the line that crosses its threshold, so a frame holding one more
// line of up to frameSlack bytes never reallocates.
const frameSlack = 4 << 10

// framePool recycles the shard and tail buffers of /match responses, so a
// steady stream of requests allocates no frame-sized buffers. It holds
// *[]byte so that a Put does not allocate.
var framePool = sync.Pool{New: func() any {
	b := make([]byte, 0, shardFrameBytes+frameSlack)
	return &b
}}

// getFrame takes an empty frame from framePool.
func getFrame() *[]byte { return framePool.Get().(*[]byte) }

// putFrame returns a frame holding b to framePool. A frame that a line
// longer than frameSlack grew past its capacity is left to the collector,
// so the pool only ever holds frame-sized buffers.
func putFrame(f *[]byte, b []byte) {
	if cap(b) <= shardFrameBytes+frameSlack {
		*f = b[:0]
		framePool.Put(f)
	}
}

// shardFlushInterval is the periodic drain for slow producers: this often
// the writer queues every shard's partial frame, so trickling enumerations
// still stream interactively instead of sitting in half-empty shard buffers
// until the run ends.
const shardFlushInterval = 200 * time.Millisecond

// Config tunes a Server. The zero value is usable: defaults are filled in
// by New.
type Config struct {
	// PlanCacheSize bounds the LRU plan cache. Zero means the default of
	// 256 (so the zero Config is usable); pass a NEGATIVE value to
	// disable caching — unlike NewPlanCache, 0 here does not disable.
	PlanCacheSize int
	// DefaultTimeout applies when a request carries no timeout_ms
	// (default 1 minute; engine runs must not outlive client interest).
	DefaultTimeout time.Duration
	// MaxTimeout clamps request timeouts (default 10 minutes).
	MaxTimeout time.Duration
	// MaxBodyBytes bounds request bodies (default 16 MiB).
	MaxBodyBytes int64
	// CompactThreshold triggers background compaction of a live graph once
	// its uncompacted delta (pending inserts + tombstones) reaches this
	// many edges after an ingest request. 0 disables auto-compaction;
	// POST /graphs/{name}/compact always works. See docs/OPERATIONS.md for
	// sizing guidance.
	CompactThreshold int
	// Workers sizes the process-wide shared morsel pool every match runs
	// on (default GOMAXPROCS). A request's workers field caps how many
	// pool workers serve it at once; it no longer spawns goroutines.
	Workers int
	// Admission tunes the cost-based admission controller; the zero value
	// leaves admission off (every request runs immediately).
	Admission AdmissionConfig
	// RequestMaxBytes bounds each request's accounted engine memory
	// (hgmatch.WithMaxMemory): its embedding blocks. 0 disables the
	// budget. A request whose plan cannot fit even its minimum footprint
	// is refused upfront with 413; a run that crosses the budget
	// mid-flight is aborted with the same budget_exceeded code. See
	// cmd/hgserve's -request-max-bytes.
	RequestMaxBytes int64
	// WriteTimeout bounds each write of the NDJSON stream to the client.
	// A connection that misses the deadline is treated as a stalled
	// reader: the run is cancelled (releasing its admission cost and pool
	// slots), further output is dropped, and slow_client_aborts counts
	// it. 0 means the 30s default; negative disables deadlines.
	WriteTimeout time.Duration
	// FaultHook, when non-nil, is threaded into every match run
	// (hgmatch.WithFaultHook). It exists for the chaos battery, which
	// injects panics at the engine's instrumented points to exercise the
	// containment end to end over real HTTP; production configs leave it
	// nil.
	FaultHook func(point string)
}

func (c *Config) fillDefaults() {
	if c.PlanCacheSize == 0 {
		c.PlanCacheSize = 256
	}
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = time.Minute
	}
	if c.MaxTimeout == 0 {
		c.MaxTimeout = 10 * time.Minute
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 16 << 20
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = 30 * time.Second
	}
}

// Server is the hgserve HTTP service: a graph registry, a plan cache and
// the handler set. Create with New, mount with Handler.
type Server struct {
	cfg    Config
	graphs *Registry
	plans  *PlanCache
	pool   *hgmatch.Pool // process-wide shared morsel pool
	adm    *admission

	compactWG sync.WaitGroup // in-flight background compactions
	// compacting marks graphs with a background compaction in flight, so a
	// burst of over-threshold ingests schedules one fold, not one per
	// request.
	compacting sync.Map // graph name -> struct{}

	// Robustness counters (GET /stats): each increments when the
	// containment layer absorbs a fault instead of letting it take the
	// process down, with a structured log line per occurrence.
	panicsRecovered  atomic.Uint64 // requests poisoned by a recovered panic
	budgetAborts     atomic.Uint64 // runs aborted over RequestMaxBytes
	slowClientAborts atomic.Uint64 // runs cancelled on a missed write deadline
	leakedBlocks     atomic.Int64  // cumulative engine block-accounting drift (0 = invariant holds)
	stream           streamStats   // /match frames written and their bytes

	// Readiness (GET /readyz): notReady carries the reason the server is
	// not ready to take traffic ("" = ready). Boot sets "loading graphs"
	// until recovery finishes; shutdown sets "shutting down" before the
	// drain so load balancers stop routing here first.
	notReady atomic.Pointer[string]
}

// New returns a Server over the given registry.
func New(graphs *Registry, cfg Config) *Server {
	cfg.fillDefaults()
	s := &Server{
		cfg:    cfg,
		graphs: graphs,
		plans:  NewPlanCache(cfg.PlanCacheSize),
		pool:   hgmatch.NewPool(cfg.Workers),
		adm:    newAdmission(cfg.Admission),
	}
	// Replacing a graph or detaching its mapping purges its cached plans.
	// The version in the cache key already prevents stale serving; the
	// purge frees the old graph, and lets the registry's munmap free
	// memory that compiled plans' candidate structures still point into.
	graphs.setOnPurge(func(name string) { s.plans.DropPrefix(GraphPrefix(name)) })
	return s
}

// Pool returns the server's shared morsel pool (benchmarks and shutdown
// paths use it; handlers run every match through it).
func (s *Server) Pool() *hgmatch.Pool { return s.pool }

// SetNotReady marks the server not ready for traffic with a reason
// (GET /readyz answers 503 until SetReady). cmd/hgserve sets "loading
// graphs" before boot WAL recovery and "shutting down" before the drain.
func (s *Server) SetNotReady(reason string) { s.notReady.Store(&reason) }

// SetReady marks the server ready for traffic (GET /readyz answers 200).
func (s *Server) SetReady() { s.notReady.Store(nil) }

// Close waits for background compactions, flushes and closes every
// graph's WAL, and drains the shared pool. The server must not serve
// requests after Close. Close marks the server not ready first, so a
// /readyz probe racing the teardown reports draining rather than ok.
func (s *Server) Close() {
	s.SetNotReady("shutting down")
	s.compactWG.Wait()
	if err := s.graphs.Close(); err != nil {
		log.Printf("server: closing graph WALs: %v", err)
	}
	s.pool.Close()
}

// Graphs returns the server's graph registry.
func (s *Server) Graphs() *Registry { return s.graphs }

// Plans returns the server's plan cache (benchmarks and health checks poke
// at it; handlers go through plan()).
func (s *Server) Plans() *PlanCache { return s.plans }

// Handler returns the service's HTTP routing table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /match", s.handleMatch)
	mux.HandleFunc("POST /count", s.handleCount)
	mux.HandleFunc("GET /graphs", s.handleGraphs)
	mux.HandleFunc("GET /graphs/{name}/stats", s.handleGraphStats)
	mux.HandleFunc("POST /graphs/{name}/edges", s.handleIngest)
	mux.HandleFunc("POST /graphs/{name}/compact", s.handleCompact)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	return mux
}

// writeError sends a JSON error body with the given status.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeErrorCode(w, status, "", format, args...)
}

// writeErrorCode sends a JSON error body with the given status and
// machine-readable error code (hgio.Code*; empty omits the field).
func writeErrorCode(w http.ResponseWriter, status int, code, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(hgio.ErrorResponse{Error: fmt.Sprintf(format, args...), Code: code})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// decodeRequest parses and validates a match/count request body.
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request) (*hgio.MatchRequest, bool) {
	var req hgio.MatchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, "bad request body: %v", err)
		return nil, false
	}
	if err := req.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return nil, false
	}
	return &req, true
}

// plan resolves a request to a compiled plan, consulting the cache. The
// query's label IDs are aligned to the data graph's dictionary before
// keying, so the same query text always maps to the same cache entry
// regardless of label interning order.
//
// The non-nil release returned on success pins the data graph's residency
// for the caller: a mapped graph cannot be munmapped while a request that
// planned against it is still running. Handlers must defer it past the
// whole engine run, not just past planning.
func (s *Server) plan(req *hgio.MatchRequest) (*hgmatch.Plan, bool, func(), error) {
	data, version, release, err := s.graphs.Acquire(req.Graph)
	if err != nil {
		return nil, false, nil, err
	}
	query, err := req.ParseQuery()
	if err != nil {
		release()
		return nil, false, nil, badRequestError{err}
	}
	switch aligned, err := hgmatch.AlignLabels(query, data); {
	case err == nil:
		query = aligned
	case errors.Is(err, hgio.ErrNoDicts) && data.Dict() == nil:
		// Dictionary-less data graph (built programmatically or loaded
		// from a dict-less binary file): labels compare by raw numeric ID,
		// and the text query's labels intern in first-appearance order.
		// This is the documented contract for such graphs; fall through.
	default:
		release()
		return nil, false, nil, badRequestError{err}
	}
	key := Key(req.Graph, version, hgmatch.QueryKey(query))
	p, cached, err := s.plans.GetOrCompute(key, func() (*hgmatch.Plan, error) {
		p, err := hgmatch.Compile(query, data)
		if err != nil {
			// Typed here so panic-derived errors from GetOrCompute stay
			// server errors (500) while compile rejections stay 400s.
			return nil, badRequestError{err}
		}
		return p, nil
	})
	if err != nil {
		release()
		return nil, false, nil, err
	}
	return p, cached, release, nil
}

var errGraphNotFound = errors.New("server: graph not found")

// badRequestError marks client errors (unparseable or uncompilable query)
// apart from server-side failures.
type badRequestError struct{ err error }

func (e badRequestError) Error() string { return e.err.Error() }
func (e badRequestError) Unwrap() error { return e.err }

// writePlanError maps plan() and Registry.lookup failures on graph to HTTP
// statuses. Shutdown is classified by the shared sentinel, so a closed
// registry and a closed pool surface the same 503/shutting_down.
func writePlanError(w http.ResponseWriter, graph string, err error) {
	var bad badRequestError
	switch {
	case errors.Is(err, errGraphNotFound):
		writeError(w, http.StatusNotFound, "unknown graph %q", graph)
	case errors.Is(err, hgio.ErrShuttingDown):
		writeErrorCode(w, http.StatusServiceUnavailable, hgio.CodeShuttingDown, "server shutting down")
	case errors.As(err, &bad):
		writeError(w, http.StatusBadRequest, "%v", bad.err)
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

// runErrStatus maps a run's Result.Err to its HTTP status and error code.
// ok is false for nil (success).
func runErrStatus(err error) (status int, code string, ok bool) {
	switch {
	case err == nil:
		return 0, "", false
	case errors.Is(err, hgmatch.ErrShuttingDown):
		return http.StatusServiceUnavailable, hgio.CodeShuttingDown, true
	case errors.Is(err, hgmatch.ErrBudgetExceeded):
		return http.StatusRequestEntityTooLarge, hgio.CodeBudgetExceeded, true
	case errors.Is(err, hgmatch.ErrRequestPoisoned):
		return http.StatusInternalServerError, hgio.CodeRequestPoisoned, true
	default:
		return http.StatusInternalServerError, "", true
	}
}

// options maps request fields onto engine options, always wiring in ctx —
// derived from the request context, so client disconnects cancel the run,
// and cancellable by the handler itself (the slow-client guard) — plus the
// configured per-request memory budget. The request's workers pass
// through: the shared pool clamps them to its width.
func (s *Server) options(ctx context.Context, req *hgio.MatchRequest) []hgmatch.Option {
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMs > 0 {
		// Clamp in milliseconds BEFORE converting: a huge timeout_ms would
		// overflow time.Duration into a negative value, which the engine
		// treats as "no deadline" — exactly the unbounded run MaxTimeout
		// exists to prevent.
		if req.TimeoutMs >= s.cfg.MaxTimeout.Milliseconds() {
			timeout = s.cfg.MaxTimeout
		} else {
			timeout = time.Duration(req.TimeoutMs) * time.Millisecond
		}
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	o := []hgmatch.Option{
		hgmatch.WithContext(ctx),
		hgmatch.WithTimeout(timeout),
		hgmatch.WithWorkers(req.Workers),
		hgmatch.WithLimit(req.Limit),
	}
	if s.cfg.RequestMaxBytes > 0 {
		o = append(o, hgmatch.WithMaxMemory(s.cfg.RequestMaxBytes))
	}
	if s.cfg.FaultHook != nil {
		o = append(o, hgmatch.WithFaultHook(s.cfg.FaultHook))
	}
	return o
}

// admitBudget refuses a request whose plan cannot fit even one embedding
// block per worker inside the configured per-request memory budget — the
// upfront half of the budget enforcement, priced alongside the admission
// estimate so a hopeless run is never started. Returns false after writing
// the 413.
func (s *Server) admitBudget(w http.ResponseWriter, req *hgio.MatchRequest, plan *hgmatch.Plan) bool {
	if s.cfg.RequestMaxBytes <= 0 {
		return true
	}
	if min := plan.TaskBlockBytes(); min > s.cfg.RequestMaxBytes {
		s.budgetAborts.Add(1)
		log.Printf("server: budget refused upfront: graph=%q min_bytes=%d request_max_bytes=%d", req.Graph, min, s.cfg.RequestMaxBytes)
		writeErrorCode(w, http.StatusRequestEntityTooLarge, hgio.CodeBudgetExceeded,
			"plan needs at least %d bytes per block; request budget is %d (-request-max-bytes)", min, s.cfg.RequestMaxBytes)
		return false
	}
	return true
}

// recordRun folds one run's fault telemetry into the server's cumulative
// counters, logging a structured error line per occurrence. It returns res
// unchanged so call sites can wrap the run expression.
func (s *Server) recordRun(graph string, res hgmatch.Result) hgmatch.Result {
	if res.LeakedBlocks != 0 {
		s.leakedBlocks.Add(res.LeakedBlocks)
		log.Printf("server: ERROR block leak: graph=%q leaked_blocks=%d (engine accounting invariant violated)", graph, res.LeakedBlocks)
	}
	switch {
	case res.Err == nil:
	case errors.Is(res.Err, hgmatch.ErrRequestPoisoned):
		s.panicsRecovered.Add(1)
		var pe *engine.PoisonedError
		if errors.As(res.Err, &pe) {
			log.Printf("server: ERROR panic recovered: graph=%q point=%s value=%v (report this)\n%s", graph, pe.Point, pe.Value, pe.Stack)
		} else {
			log.Printf("server: ERROR panic recovered: graph=%q err=%v (report this)", graph, res.Err)
		}
	case errors.Is(res.Err, hgmatch.ErrBudgetExceeded):
		s.budgetAborts.Add(1)
		log.Printf("server: budget abort: graph=%q request_max_bytes=%d", graph, s.cfg.RequestMaxBytes)
	case errors.Is(res.Err, hgmatch.ErrShuttingDown):
		// Drain-time refusal, not a fault; no counter.
	default:
		log.Printf("server: ERROR run failed: graph=%q err=%v", graph, res.Err)
	}
	return res
}

// admit prices the request at the plan's cost estimate and acquires
// admission tokens from the requesting tenant's quota. On rejection it
// writes the 429 itself — Retry-After header in seconds, structured
// retry_after_ms and estimated_cost in the body — and returns ok=false.
// The caller must defer the returned release on every exit path (success,
// error, client cancel alike), which is what makes quota release on
// cancel/error automatic.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, plan *hgmatch.Plan) (release func(), ok bool) {
	cost := plan.EstimateCost()
	tenant := tenantKey(r)
	release, ok = s.adm.acquire(tenant, cost)
	if ok {
		return release, true
	}
	retry := s.adm.retryAfterFor(tenant)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Retry-After", strconv.FormatInt(int64((retry+time.Second-1)/time.Second), 10))
	w.WriteHeader(http.StatusTooManyRequests)
	json.NewEncoder(w).Encode(hgio.ErrorResponse{
		Error:         "tenant cost quota exhausted; retry later",
		RetryAfterMs:  retry.Milliseconds(),
		EstimatedCost: cost,
	})
	return nil, false
}

func summarise(res hgmatch.Result, plan *hgmatch.Plan, cached bool) hgio.MatchSummary {
	sum := hgio.MatchSummary{
		Done:       true,
		Embeddings: res.Embeddings,
		Candidates: res.Candidates,
		Filtered:   res.Filtered,
		Valid:      res.Valid,
		ElapsedUs:  res.Elapsed.Microseconds(),
		TimedOut:   res.TimedOut,
		PlanCached: cached,
		Order:      plan.Order(),
	}
	if _, code, ok := runErrStatus(res.Err); ok {
		// The NDJSON error trailer: /match has already sent its 200 and
		// possibly a partial stream, so the summary line carries the
		// machine-readable failure instead of a status code.
		sum.Error = res.Err.Error()
		sum.ErrorCode = code
	}
	return sum
}

// streamStats counts the guarded writes /match responses made and the bytes
// they carried (GET /stats stream_writes and stream_bytes): one atomic add
// each per frame, nothing per row.
type streamStats struct {
	writes atomic.Uint64
	bytes  atomic.Uint64
}

// guardedWriter is the slow-client guard on an NDJSON response: every
// write (whole lines only) runs under a deadline, and the first failed or
// timed-out write marks the connection broken, cancels the run's context —
// releasing its pool slots and (via the handler's defers) admission cost —
// and drops all further output. Only the response's writer goroutine
// writes, never a pool worker, so a stalled reader costs its own request
// one write timeout and its neighbours nothing.
type guardedWriter struct {
	w       http.ResponseWriter
	rc      *http.ResponseController
	timeout time.Duration
	cancel  context.CancelFunc
	onStall func(err error)
	stats   *streamStats
	broken  atomic.Bool
}

func newGuardedWriter(w http.ResponseWriter, timeout time.Duration, cancel context.CancelFunc, onStall func(error), stats *streamStats) *guardedWriter {
	return &guardedWriter{
		w:       w,
		rc:      http.NewResponseController(w),
		timeout: timeout,
		cancel:  cancel,
		onStall: onStall,
		stats:   stats,
	}
}

// write sends p to the client as one Write on the ResponseWriter, then, if
// flush is set, flushes it to the wire. It returns false once the
// connection is broken.
func (g *guardedWriter) write(p []byte, flush bool) bool {
	if g.broken.Load() {
		return false
	}
	if g.timeout > 0 {
		// SetWriteDeadline errors are ignored: test recorders don't
		// support deadlines, and a real connection that somehow can't set
		// one still fails at the Write below if the client is gone.
		g.rc.SetWriteDeadline(time.Now().Add(g.timeout))
	}
	_, err := g.w.Write(p)
	if err == nil {
		g.stats.writes.Add(1)
		g.stats.bytes.Add(uint64(len(p)))
		if flush {
			if ferr := g.rc.Flush(); ferr != nil && !errors.Is(ferr, http.ErrNotSupported) {
				err = ferr
			}
		}
	}
	if err != nil {
		if g.broken.CompareAndSwap(false, true) {
			g.cancel()
			if g.onStall != nil {
				g.onStall(err)
			}
		}
		return false
	}
	return true
}

// matchShard is one engine worker's share of a streaming /match response:
// whole NDJSON lines waiting for the next hand-off. frame stays nil until the
// worker's first row takes one from framePool, and buf is its contents;
// limit is the size that hands buf off next, shardFlushBytes doubling per
// hand-off up to shardFrameBytes. pre is the encoded prefix of the group
// being appended. All shards of a request sit in one slice and each is
// written on every row, so the pad keeps two workers' shards off one cache
// line.
type matchShard struct {
	mu    sync.Mutex
	frame *[]byte
	buf   []byte
	pre   []byte
	limit int
	_     [56]byte // 72 B of fields padded to 128
}

// queuedFrame is a full frame waiting for the writer: the framePool handle
// and its contents.
type queuedFrame struct {
	frame *[]byte
	buf   []byte
}

// matchStream is one /match response's output stage: the worker shards, a
// bounded FIFO queue of full frames and the response's one writer, the
// handler goroutine, which alone touches the socket. A worker whose shard
// fills hands the frame off and takes a fresh one; when the queue is full it
// finishes the group in hand into its shard and parks the request through
// the run's park switch, so a slow reader holds no pool worker. The writer
// unparks the request when it frees a slot. Frames leave in queue order,
// and a shard is only ever queued under its own mutex, so each worker's rows
// keep their order.
type matchStream struct {
	gw     *guardedWriter
	shards []matchShard
	ready  chan struct{} // capacity 1: a frame was queued since the writer last looked

	mu     sync.Mutex // guards the queue and parked
	queue  [frameQueueDepth]queuedFrame
	head   int
	n      int
	parked bool
	park   func(parked bool) // the run's park switch, set before its first row
}

// handOff queues sh's frame for the writer and gives the shard a fresh one
// with a doubled threshold; the caller holds sh.mu. When the queue is full it
// leaves the shard as it is and reports false; then, if park is set, the
// request parks. The park is set under mu, as the writer's unpark is, so it
// cannot slip in after the writer has emptied the queue.
func (ms *matchStream) handOff(sh *matchShard, park bool) bool {
	ms.mu.Lock()
	if ms.n == frameQueueDepth {
		if park && !ms.parked {
			ms.parked = true
			ms.park(true)
		}
		ms.mu.Unlock()
		return false
	}
	ms.queue[(ms.head+ms.n)%frameQueueDepth] = queuedFrame{sh.frame, sh.buf}
	ms.n++
	ms.mu.Unlock()
	select {
	case ms.ready <- struct{}{}:
	default:
	}
	sh.frame = getFrame()
	sh.buf = *sh.frame
	sh.limit = min(2*sh.limit, shardFrameBytes)
	return true
}

// pop takes the oldest queued frame, unparking the request if it was
// parked, and reports whether the queue is now empty.
func (ms *matchStream) pop() (f queuedFrame, empty, ok bool) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if ms.n == 0 {
		return f, true, false
	}
	f, ms.queue[ms.head] = ms.queue[ms.head], queuedFrame{}
	ms.head = (ms.head + 1) % frameQueueDepth
	ms.n--
	if ms.parked {
		ms.parked = false
		ms.park(false)
	}
	return f, ms.n == 0, true
}

// writeQueued writes every queued frame in order, flushing only when the
// queue is empty: frames written back to back share net/http's buffered
// chunk writes. A broken connection drops them, still freeing the slots.
func (ms *matchStream) writeQueued() {
	for {
		f, empty, ok := ms.pop()
		if !ok {
			return
		}
		ms.gw.write(f.buf, empty)
		putFrame(f.frame, f.buf)
	}
}

// queuePartials queues every shard's partial frame, the writer's periodic
// drain for slow producers; a shard behind a full queue waits for the next.
func (ms *matchStream) queuePartials() {
	for i := range ms.shards {
		sh := &ms.shards[i]
		sh.mu.Lock()
		if len(sh.buf) > 0 {
			ms.handOff(sh, false)
		}
		sh.mu.Unlock()
	}
}

// onGroup is the run's group callback: it encodes one (partial embedding,
// candidate run) group into the worker's shard and hands the shard off
// each time it reaches its threshold.
func (ms *matchStream) onGroup(wid int, prefix, last []hgmatch.EdgeID) {
	// The engine reuses both slices between calls; encode immediately
	// rather than copy-and-retain. The shard mutex is effectively private
	// to this worker (the writer takes it 5 times a second), so the
	// steady-state cost is one uncontended lock per group.
	if ms.gw.broken.Load() {
		return // client gone; stop encoding while the cancel propagates
	}
	sh := &ms.shards[wid]
	sh.mu.Lock()
	if sh.frame == nil {
		sh.frame = getFrame()
		sh.buf, sh.limit = *sh.frame, shardFlushBytes
	}
	// The group's first line is encoded in place; the rest copy its
	// prefix, which pre keeps across a mid-group hand-off.
	start := len(sh.buf)
	sh.buf = hgio.AppendEmbeddingPrefix(sh.buf, prefix)
	if len(last) > 1 {
		sh.pre = append(sh.pre[:0], sh.buf[start:]...)
	}
	handed, full := false, false
	for i, c := range last {
		if i > 0 {
			sh.buf = append(sh.buf, sh.pre...)
		}
		sh.buf = hgio.AppendEmbeddingLast(sh.buf, c)
		if !full && len(sh.buf) >= sh.limit {
			if ms.handOff(sh, true) {
				handed = true
			} else {
				full = true // parked: the rest of the group spills into this frame
			}
		}
	}
	sh.mu.Unlock()
	if handed {
		// The hand-off readied the writer on this worker's processor, where
		// it would wait until Go preempts the worker; yield so it writes now.
		runtime.Gosched()
	}
}

// handleMatch streams every embedding as one NDJSON line, closing with a
// MatchSummary line. Results never materialise server-side. The unit of
// output is the engine's (partial embedding, candidate run) group
// (WithGroupCallback): the worker that found it takes its own shard's mutex
// once, encodes `{"embedding":[p0,p1,…,` once, and per candidate copies that
// prefix and appends one number and `]}` — hgio's append encoder, no
// reflection, no per-row lock. A shard that reaches its threshold is handed
// to the response's frame queue at once, the first time at shardFlushBytes
// and then at double the last threshold, up to shardFrameBytes. The pool run
// goes on beside the handler goroutine, which is the response's only
// writer: it writes queued frames in order, flushing only when the queue is
// empty, and every shardFlushInterval queues the shards' partial frames so
// slow enumerations still stream interactively. A worker that finds the
// queue full parks the request (matchStream) and the writer unparks it as
// it frees a slot, so a stalled reader holds no pool worker. At the end, a
// shard holding at least shardFlushBytes goes out as its own frame, and the
// smaller leftovers ride with the summary in one tail frame, so a response
// under shardFlushBytes is a single guarded write. Every buffer is a
// recycled framePool frame. Lines from different workers interleave, but
// each worker's rows keep their order and every frame holds whole lines, so
// the NDJSON framing is preserved. A request with a limit reaches the same
// callback, all on worker 0, with each group cut to the rows under the
// limit: its shard holds the first limit rows of the sequential order, in
// that order.
func (s *Server) handleMatch(w http.ResponseWriter, r *http.Request) {
	req, ok := s.decodeRequest(w, r)
	if !ok {
		return
	}
	plan, cached, unpin, err := s.plan(req)
	if err != nil {
		writePlanError(w, req.Graph, err)
		return
	}
	defer unpin() // keeps a mapped graph attached for the whole run
	release, ok := s.admit(w, r, plan)
	if !ok {
		return
	}
	defer release()
	if !s.admitBudget(w, req, plan) {
		return
	}

	// The run's context is the request context plus the slow-client guard:
	// a missed write deadline cancels it, which stops enumeration and (via
	// the defers above) releases admission cost and the graph pin.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	opts := s.options(ctx, req)
	gw := newGuardedWriter(w, s.cfg.WriteTimeout, cancel, func(err error) {
		s.slowClientAborts.Add(1)
		log.Printf("server: slow client: graph=%q write failed (%v); run cancelled, output dropped", req.Graph, err)
	}, &s.stream)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Plan-Cache", cacheHeader(cached))

	// Shards are sized to the whole pool, not the request's workers cap:
	// on the shared pool any worker may serve this request, so callback
	// worker indexes range over [0, pool.Workers()).
	ms := &matchStream{gw: gw, shards: make([]matchShard, s.pool.Workers()), ready: make(chan struct{}, 1)}
	opts = append(opts,
		hgmatch.WithGroupCallback(ms.onGroup),
		hgmatch.WithParkSwitch(func(park func(bool)) { ms.park = park }))
	var res hgmatch.Result
	done := make(chan struct{})
	go func() {
		defer close(done)
		res = s.recordRun(req.Graph, s.pool.Run(plan, opts...))
	}()
	tick := time.NewTicker(shardFlushInterval)
	for running := true; running; {
		select {
		case <-ms.ready:
		case <-tick.C:
			ms.queuePartials()
		case <-done:
			running = false
		}
		ms.writeQueued()
	}
	tick.Stop()

	// The run is over and every queued frame written: no worker touches the
	// shards any more, so their leftovers and the summary (or error-trailer)
	// line need no locking. A leftover of a full first frame or more goes
	// out alone; smaller ones gather in one tail frame, which is written
	// early only if the next would overflow it, so it never grows past a
	// frame.
	tf := getFrame()
	tail := *tf
	for i := range ms.shards {
		sh := &ms.shards[i]
		if sh.frame == nil {
			continue
		}
		switch {
		case len(sh.buf) >= shardFlushBytes:
			gw.write(sh.buf, false)
		case len(tail)+len(sh.buf) > cap(tail):
			gw.write(tail, false)
			tail = append(tail[:0], sh.buf...)
		default:
			tail = append(tail, sh.buf...)
		}
		putFrame(sh.frame, sh.buf)
	}
	tail = appendSummary(tail, summarise(res, plan, cached))
	gw.write(tail, true)
	putFrame(tf, tail)
}

// appendSummary appends the closing MatchSummary (or error-trailer) line of
// an NDJSON /match response.
func appendSummary(dst []byte, sum hgio.MatchSummary) []byte {
	line, _ := json.Marshal(sum) // numbers, strings and bools: cannot fail
	return append(append(dst, line...), '\n')
}

// handleCount runs the same pipeline as /match with the sink counting
// instead of streaming; the body is a single MatchSummary.
func (s *Server) handleCount(w http.ResponseWriter, r *http.Request) {
	req, ok := s.decodeRequest(w, r)
	if !ok {
		return
	}
	plan, cached, unpin, err := s.plan(req)
	if err != nil {
		writePlanError(w, req.Graph, err)
		return
	}
	defer unpin() // keeps a mapped graph attached for the whole run
	release, ok := s.admit(w, r, plan)
	if !ok {
		return
	}
	defer release()
	if !s.admitBudget(w, req, plan) {
		return
	}
	opts := s.options(r.Context(), req)
	res := s.recordRun(req.Graph, s.pool.Run(plan, opts...))
	if status, code, ok := runErrStatus(res.Err); ok {
		// /count has not written its body yet, so failures keep a proper
		// status code instead of /match's mid-stream trailer.
		writeErrorCode(w, status, code, "%v", res.Err)
		return
	}
	w.Header().Set("X-Plan-Cache", cacheHeader(cached))
	writeJSON(w, summarise(res, plan, cached))
}

func cacheHeader(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

func (s *Server) handleGraphs(w http.ResponseWriter, r *http.Request) {
	infos := make([]hgio.GraphInfo, 0, s.graphs.Len())
	for _, name := range s.graphs.Names() {
		if info, ok := s.graphs.Info(name); ok {
			infos = append(infos, info)
		}
	}
	writeJSON(w, infos)
}

func (s *Server) handleGraphStats(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	info, ok := s.graphs.Info(name)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown graph %q", name)
		return
	}
	writeJSON(w, info)
}

// handleStats reports the shared scheduler's state: pool counters plus
// the admission controller's accounting (GET /stats).
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	ps := s.pool.Stats()
	out := hgio.SchedulerStats{
		PoolWorkers:      ps.Workers,
		ActiveRequests:   ps.Active,
		Submitted:        ps.Submitted,
		Completed:        ps.Completed,
		Tasks:            ps.Tasks,
		PoolYields:       ps.Yields,
		PoolParks:        ps.Parks,
		WriteParked:      ps.Parked,
		AdmissionEnabled: s.adm.cfg.Enabled,
		Bypassed:         s.adm.bypassed.Load(),
		Admitted:         s.adm.admitted.Load(),
		Rejected:         s.adm.rejected.Load(),
		ActiveTenants:    s.adm.activeTenants(),
		WALEnabled:       s.graphs.Durable(),
		ReadOnlyGraphs:   s.graphs.ReadOnlyCount(),
		PanicsRecovered:  s.panicsRecovered.Load(),
		BudgetAborts:     s.budgetAborts.Load(),
		SlowClientAborts: s.slowClientAborts.Load(),
		LeakedBlocks:     s.leakedBlocks.Load(),
		RequestMaxBytes:  s.cfg.RequestMaxBytes,
		StreamWrites:     s.stream.writes.Load(),
		StreamBytes:      s.stream.bytes.Load(),
	}
	ts := s.graphs.TierStats()
	out.GraphsResident, out.ResidentBytes = ts.Resident, ts.ResidentBytes
	if s.adm.cfg.Enabled {
		out.CheapThreshold = s.adm.cfg.CheapThreshold
		out.TenantQuota = s.adm.cfg.TenantQuota
	}
	writeJSON(w, out)
}

// handleHealthz is liveness: it answers 200 as long as the process can
// serve HTTP at all — during boot, drain, degraded serving alike. Restart
// decisions key on this; routing decisions key on /readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	size, hits, misses := s.plans.Stats()
	writeJSON(w, hgio.HealthResponse{
		Status:          "ok",
		Version:         hgmatch.Version,
		Graphs:          s.graphs.Len(),
		PlanCacheSize:   size,
		PlanCacheHits:   hits,
		PlanCacheMisses: misses,
	})
}

// handleReadyz is readiness: 503 while the server should not receive new
// traffic (boot WAL recovery, shutdown drain), 200 otherwise. A ready
// server with read-only graphs stays ready but reports the degradation so
// operators see it without scraping logs.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	resp := hgio.ReadyResponse{Ready: true}
	if reason := s.notReady.Load(); reason != nil {
		resp.Ready, resp.Reason = false, *reason
	}
	if names := s.graphs.ReadOnlyNames(); len(names) > 0 {
		resp.Degraded = true
		resp.ReadOnlyGraphs = names
	}
	w.Header().Set("Content-Type", "application/json")
	if !resp.Ready {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(resp)
}
