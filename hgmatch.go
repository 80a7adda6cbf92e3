// Package hgmatch is a from-scratch Go implementation of HGMatch, the
// efficient and parallel subhypergraph matching system of Yang, Zhang, Lin,
// Zhang and Li (ICDE 2023, arXiv:2302.06119).
//
// Given a vertex-labelled query hypergraph q and data hypergraph H,
// subhypergraph matching finds every subhypergraph of H isomorphic to q.
// HGMatch matches the query hyperedge-by-hyperedge rather than
// vertex-by-vertex: the data hypergraph is stored in hyperedge tables
// partitioned by signature (the multiset of member vertex labels) with a
// lightweight inverted hyperedge index per table, candidate hyperedges are
// generated purely with set operations over posting lists, and candidate
// validation compares vertex-profile multisets instead of backtracking.
// Enumeration runs on a task-based parallel engine with per-worker LIFO
// deques (bounded memory) and dynamic work stealing (load balance).
//
// Quick start:
//
//	data, _ := hgmatch.LoadFile("data.hg")
//	query, _ := hgmatch.LoadFile("query.hg")
//	res, err := hgmatch.Match(query, data, hgmatch.WithWorkers(8))
//	fmt.Println(res.Embeddings)
//
// Or programmatically:
//
//	b := hgmatch.NewBuilder()
//	v0 := b.AddVertex(0)
//	v1 := b.AddVertex(1)
//	b.AddEdge(v0, v1)
//	h, _ := b.Build()
//
// The internal packages implement each subsystem (storage, planner, engine,
// baselines, generators); this package is the stable public surface.
package hgmatch

import (
	"context"
	"io"
	"time"

	"hgmatch/internal/core"
	"hgmatch/internal/dataflow"
	"hgmatch/internal/engine"
	"hgmatch/internal/hgio"
	"hgmatch/internal/hypergraph"
	"hgmatch/internal/shard"
)

// Hypergraph is an immutable, indexed, vertex-labelled hypergraph. Build
// one with NewBuilder, FromEdges, Load or LoadFile; grow one online
// through a DeltaBuffer.
type Hypergraph = hypergraph.Hypergraph

// Builder incrementally assembles a Hypergraph.
type Builder = hypergraph.Builder

// DeltaBuffer accepts online hyperedge inserts and deletes against a base
// Hypergraph and publishes immutable snapshots through an atomic pointer:
// Insert/Delete/AddVertex accumulate per-signature append-side tables,
// Snapshot returns a consistent view merging the base CSR index with the
// sorted delta postings (matching reads it lock-free), and Compact folds
// everything into a fresh base identical to an offline build of the same
// live edge set. In-flight matches keep the snapshot they started on.
type DeltaBuffer = hypergraph.DeltaBuffer

// Dict interns human-readable label names.
type Dict = hypergraph.Dict

// Signature is a hyperedge signature: the multiset of member vertex labels.
type Signature = hypergraph.Signature

// Stats summarises a hypergraph (the columns of the paper's Table II).
type Stats = hypergraph.Stats

// VertexID, EdgeID, Label and SigID alias the dense uint32 identifier
// spaces. SigID identifies an interned hyperedge signature of one data
// hypergraph (Hypergraph.LookupSig / SigIDOf).
type (
	VertexID = hypergraph.VertexID
	EdgeID   = hypergraph.EdgeID
	Label    = hypergraph.Label
	SigID    = hypergraph.SigID
)

// NoEdgeLabel marks a hyperedge without an edge label — the default for
// the paper's vertex-labelled hypergraphs, and the sentinel to pass to
// DeltaBuffer.InsertLabelled/DeleteLabelled for unlabelled edges.
const NoEdgeLabel = hypergraph.NoEdgeLabel

// Scheduler selects the parallel engine's scheduling strategy.
type Scheduler = engine.Scheduler

// Scheduler values.
const (
	// SchedulerTask is the bounded-memory task scheduler (default).
	SchedulerTask = engine.SchedulerTask
	// SchedulerBFS is the level-synchronous breadth-first scheduler; it
	// materialises whole intermediate levels and exists mainly for
	// memory-behaviour comparisons.
	SchedulerBFS = engine.SchedulerBFS
)

// NewBuilder returns an empty hypergraph builder.
func NewBuilder() *Builder { return hypergraph.NewBuilder() }

// NewDeltaBuffer returns an online-update buffer over base. Matching
// always runs against a snapshot:
//
//	buf, _ := hgmatch.NewDeltaBuffer(data)
//	buf.Insert(v1, v2, v3)
//	res, _ := hgmatch.Match(query, buf.Snapshot())
//
// Snapshots are immutable; Compact folds accumulated deltas into a fresh
// base without interrupting readers. See cmd/hgserve for the HTTP ingest
// surface and docs/OPERATIONS.md for compaction guidance.
func NewDeltaBuffer(base *Hypergraph) (*DeltaBuffer, error) {
	return hypergraph.NewDeltaBuffer(base)
}

// NewDict returns an empty label dictionary.
func NewDict() *Dict { return hypergraph.NewDict() }

// FromEdges builds a hypergraph where vertex i carries labels[i] and each
// entry of edges is one hyperedge's vertex list.
func FromEdges(labels []Label, edges [][]uint32) (*Hypergraph, error) {
	return hypergraph.FromEdges(labels, edges)
}

// ComputeStats gathers Table II-style statistics.
func ComputeStats(h *Hypergraph) Stats { return hypergraph.ComputeStats(h) }

// Load reads a hypergraph from r, sniffing the format: the text format
// documented in internal/hgio (lines: "v <label>", "e <v1> <v2> ..."), or
// either binary format version. Binary v2 files carry the built index and
// load by flat-array assembly instead of replaying the offline build.
func Load(r io.Reader) (*Hypergraph, error) { return hgio.ReadAuto(r) }

// LoadFile reads a hypergraph from a file path, sniffing the format like
// Load.
func LoadFile(path string) (*Hypergraph, error) { return hgio.ReadAutoFile(path) }

// Save writes a hypergraph to w in the text format accepted by Load.
func Save(w io.Writer, h *Hypergraph) error { return hgio.Write(w, h) }

// SaveFile writes a hypergraph to a file path in the text format.
func SaveFile(path string, h *Hypergraph) error { return hgio.WriteFile(path, h) }

// SaveBinary writes a hypergraph to w in binary format v2: the compact
// varint graph encoding plus the persisted storage layer (partitioned
// hyperedge tables and CSR inverted indexes), so a later Load skips the
// offline index build entirely.
func SaveBinary(w io.Writer, h *Hypergraph) error { return hgio.WriteBinary(w, h) }

// SaveBinaryFile writes binary format v2 to a file path.
func SaveBinaryFile(path string, h *Hypergraph) error { return hgio.WriteBinaryFile(path, h) }

// SaveBinaryV3 writes a hypergraph to w in binary format v3 (HGB3): the
// same fully-indexed content as v2, laid out as page-aligned fixed-width
// sections behind an offset directory, so files open either by heap read
// (Load) or zero-copy by MapFile.
func SaveBinaryV3(w io.Writer, h *Hypergraph) error { return hgio.WriteBinaryV3(w, h) }

// SaveBinaryV3File writes binary format v3 to a file path.
func SaveBinaryV3File(path string, h *Hypergraph) error { return hgio.WriteBinaryV3File(path, h) }

// MappedGraph is a hypergraph served zero-copy off a memory-mapped binary
// v3 file: its CSR arrays point into the mapping, pages fault in on first
// touch, and Release unmaps once every Retain is balanced. The graph is
// strictly read-only.
type MappedGraph = hgio.MappedGraph

// MapOptions tunes MapFile.
type MapOptions = hgio.MapOptions

// MapFile memory-maps a binary v3 file and attaches a read-only
// Hypergraph to it without copying the section payloads. The file's
// structural tables are validated eagerly; set MapOptions.Verify to also
// checksum the full payload (reads every page once). Call Release when
// done with the graph.
func MapFile(path string, opts MapOptions) (*MappedGraph, error) { return hgio.MapFile(path, opts) }

// Plan is a compiled execution plan for one (query, data) pair: the
// matching order (paper Algorithm 3) plus per-step candidate-generation
// and validation tables. Plans are immutable and safe to share across
// goroutines and runs.
type Plan struct {
	core *core.Plan
}

// Compile computes a matching order and compiles a plan. It fails for
// disconnected queries and queries with more than 64 hyperedges.
func Compile(query, data *Hypergraph) (*Plan, error) {
	p, err := core.NewPlan(query, data)
	if err != nil {
		return nil, err
	}
	return &Plan{core: p}, nil
}

// CompileWithOrder compiles a plan for a caller-supplied connected matching
// order (a permutation of the query's hyperedge IDs).
func CompileWithOrder(query, data *Hypergraph, order []EdgeID) (*Plan, error) {
	p, err := core.NewPlanWithOrder(query, data, order)
	if err != nil {
		return nil, err
	}
	return &Plan{core: p}, nil
}

// Order returns the matching order ϕ (query hyperedge IDs).
func (p *Plan) Order() []EdgeID { return p.core.Order }

// Explain renders the plan's dataflow graph, e.g.
// "SCAN({u2,u4}) -> EXPAND({u0,u1,u2}) -> SINK".
func (p *Plan) Explain() string { return dataflow.FromPlan(p.core).Explain() }

// Empty reports whether the plan is provably result-free (some query
// hyperedge signature has no data partition).
func (p *Plan) Empty() bool { return p.core.Empty }

// EstimateCost returns the planner's unitless work estimate for the plan:
// the expected number of candidate expansions, derived from the same
// delta-aware signature-table cardinalities the matching order is chosen
// by. The scale is monotone in real work, not calibrated to any unit;
// admission control (cmd/hgserve's -admission) budgets tenants against
// it. Saturates at 2^62; provably empty plans cost 0.
func (p *Plan) EstimateCost() uint64 { return p.core.EstimateCost() }

// TaskBlockBytes returns the accounted in-memory size of one of the plan's
// embedding blocks — the unit WithMaxMemory budgets in. A serving layer
// prices a request's minimum footprint (roughly one block per worker)
// against the configured budget before running it, so a budget no run
// could fit in is refused upfront rather than started and aborted.
func (p *Plan) TaskBlockBytes() int64 { return int64(engine.TaskBlockBytes(p.core)) }

// Result reports a match run.
type Result struct {
	// Embeddings is the number of subhypergraph embeddings found.
	Embeddings uint64
	// Candidates / Filtered / Valid instrument the match-by-hyperedge
	// pipeline: Algorithm 4 outputs, Observation V.5 survivors, and
	// validated extensions (the paper's Fig. 9 funnel).
	Candidates uint64
	Filtered   uint64
	Valid      uint64
	// PeakTasks and PeakTaskBytes report the scheduler's high-water mark
	// (the quantity Theorem VI.1 bounds). The task scheduler counts live
	// embedding blocks (fixed-capacity morsels) and their byte footprint;
	// the BFS scheduler counts materialised embeddings.
	PeakTasks     int64
	PeakTaskBytes int64
	// Elapsed is the wall-clock run time; TimedOut reports whether the
	// run hit the configured timeout (counts are lower bounds then).
	Elapsed  time.Duration
	TimedOut bool
	// Groups holds per-key counts when WithGroupBy was used.
	Groups map[string]uint64
	// Err reports a run that completed abnormally: nil on success (plain
	// timeouts report through TimedOut instead), ErrRequestPoisoned when a
	// worker panic was recovered and contained to this request,
	// ErrBudgetExceeded when the run crossed WithMaxMemory, or
	// ErrShuttingDown from a pool that is closing. Classify with
	// errors.Is; counts in an errored Result are lower bounds.
	Err error
	// LeakedBlocks is the engine's block-accounting invariant check: the
	// number of embedding blocks still accounted live at run end, always 0
	// for a leak-free run — including cancelled, over-budget and poisoned
	// runs. Serving layers export its running sum (GET /stats) so a leak
	// is observable in production, not only under test.
	LeakedBlocks int64
}

// Option configures Match / Plan.Run.
type Option func(*engine.Options)

// WithWorkers sets the thread-pool size p (default GOMAXPROCS).
func WithWorkers(n int) Option { return func(o *engine.Options) { o.Workers = n } }

// WithScheduler selects the scheduling strategy.
func WithScheduler(s Scheduler) Option { return func(o *engine.Options) { o.Scheduler = s } }

// WithoutWorkStealing disables dynamic work stealing (static initial
// partitioning only); exists for load-balancing studies.
func WithoutWorkStealing() Option { return func(o *engine.Options) { o.DisableStealing = true } }

// WithChaseLevDeques switches the per-worker task queues to lock-free
// Chase-Lev deques (steal one task per steal) instead of the default
// mutex-guarded steal-half deques. Results are identical; only the
// scheduling constants differ.
func WithChaseLevDeques() Option { return func(o *engine.Options) { o.StealOne = true } }

// WithWeight sets the request's fair-share weight on a shared Pool: a
// weight-2 request receives twice the morsel slots of a weight-1 request
// while both are runnable. Values below 1 mean 1. Plan.Run ignores it.
func WithWeight(n int) Option { return func(o *engine.Options) { o.Weight = n } }

// WithLimit stops the run after n embeddings.
func WithLimit(n uint64) Option { return func(o *engine.Options) { o.Limit = n } }

// WithTimeout aborts the run after d.
func WithTimeout(d time.Duration) Option { return func(o *engine.Options) { o.Timeout = d } }

// WithContext aborts the run when ctx is cancelled; cancelled runs report
// TimedOut with lower-bound counts.
func WithContext(ctx context.Context) Option {
	return func(o *engine.Options) { o.Context = ctx }
}

// WithCallback streams every embedding to fn. The tuple holds the data
// hyperedge matched to each query hyperedge in matching order; it is
// reused between calls — copy it to retain. Calls are serialised, which
// puts a global lock on the sink path; throughput-sensitive consumers
// should use WithWorkerCallback instead.
func WithCallback(fn func(m []EdgeID)) Option {
	return func(o *engine.Options) { o.OnEmbedding = fn }
}

// WithWorkerCallback streams every embedding to fn on the worker that found
// it, tagged with the worker index in [0, workers). Unlike WithCallback,
// calls are NOT serialised across workers — two workers may call fn
// concurrently (always with distinct worker indexes), so fn must shard its
// state by worker or synchronise internally. In exchange the engine takes
// no per-embedding lock. The tuple is reused between calls — copy it to
// retain.
func WithWorkerCallback(fn func(worker int, m []EdgeID)) Option {
	return func(o *engine.Options) { o.OnEmbeddingWorker = fn }
}

// WithGroupCallback streams every embedding to fn the way match-by-hyperedge
// finds them: one call stands for the len(last) embeddings prefix+[c], c
// ranging over last in order — a partial embedding in matching order and the
// data hyperedges that validly complete it. A run with no WithLimit,
// WithFilter, WithGroupBy, WithFaultHook or per-embedding callback hands over
// each parent row's whole candidate run, which lets a consumer pay per-row
// costs (a lock, an encoded prefix) once per group; every other run delivers
// the same embeddings in the same per-worker order as groups of one.
// Concurrency is WithWorkerCallback's: fn must shard its state by worker or
// synchronise internally. Both slices are reused between calls and must not
// be modified — copy to retain.
func WithGroupCallback(fn func(worker int, prefix, last []EdgeID)) Option {
	return func(o *engine.Options) { o.OnGroup = fn }
}

// WithFilter drops embeddings failing pred before they are counted (the
// dataflow FILTER extension operator). pred must be safe for concurrent
// calls.
func WithFilter(pred func(m []EdgeID) bool) Option {
	return func(o *engine.Options) { o.Filter = pred }
}

// WithGroupBy groups embeddings by key and counts per group (the dataflow
// AGGREGATE extension operator); results land in Result.Groups. key must
// be safe for concurrent calls.
func WithGroupBy(key func(m []EdgeID) string) Option {
	return func(o *engine.Options) { o.Aggregate = key }
}

// WithMaxMemory bounds the run's accounted memory in bytes: live embedding
// blocks at Plan.TaskBlockBytes each, the BFS scheduler's materialised
// levels, and a sharded run's gather window. 0 (the default) means
// unlimited. A run that would cross the budget is aborted cooperatively
// with Result.Err = ErrBudgetExceeded and lower-bound counts — the
// per-request guard that keeps one runaway query from OOMing a shared
// process (cmd/hgserve's -request-max-bytes).
func WithMaxMemory(n int64) Option {
	return func(o *engine.Options) { o.MaxMemory = n }
}

// WithFaultHook installs a callback invoked at the engine's instrumented
// execution points ("task", "expand", "sink", "gather") — the fault
// injection surface of the chaos harness, which passes hooks that panic to
// exercise the engine's containment. fn must be safe for concurrent calls.
// Production paths leave it unset.
func WithFaultHook(fn func(point string)) Option {
	return func(o *engine.Options) { o.FaultHook = fn }
}

// Run executes the plan and returns counts and stats.
func (p *Plan) Run(opts ...Option) Result {
	var eo engine.Options
	for _, o := range opts {
		o(&eo)
	}
	return wrapResult(engine.Run(p.core, eo))
}

func wrapResult(r engine.Result) Result {
	return Result{
		Embeddings:    r.Embeddings,
		Candidates:    r.Counters.Candidates,
		Filtered:      r.Counters.Filtered,
		Valid:         r.Counters.Valid,
		PeakTasks:     r.PeakTasks,
		PeakTaskBytes: r.PeakTaskBytes,
		Elapsed:       r.Elapsed,
		TimedOut:      r.TimedOut,
		Groups:        r.Groups,
		Err:           r.Err,
		LeakedBlocks:  r.LeakedBlocks,
	}
}

// Pool is a process-wide worker set shared by all requests submitted to
// it: the multi-tenant form of the parallel engine. Where Plan.Run spawns
// workers per call, a Pool keeps them resident and divides morsel slots
// across concurrent Run calls by weighted fair scheduling, so one
// pathological query cannot starve the rest. Within a request execution
// is identical to Plan.Run — same results, same operators — and worker
// scratch memory is reused across requests. A serving layer should create
// one Pool per process (see cmd/hgserve's -workers flag).
type Pool struct {
	p *engine.Pool
}

// PoolStats is a point-in-time snapshot of a Pool's scheduler counters.
type PoolStats = engine.PoolStats

// NewPool starts a shared worker pool of the given size (0 or negative
// means one). Close it when done.
func NewPool(workers int) *Pool {
	return &Pool{p: engine.NewPool(workers)}
}

// Run executes the plan on the shared pool, blocking until the result is
// complete. WithWorkers caps how many pool workers serve this request at
// once; WithWeight sets its fair-share weight. Worker indexes seen by
// WithWorkerCallback and WithGroupCallback range over [0, Workers()) — the
// pool's size, not the request's cap.
func (pl *Pool) Run(p *Plan, opts ...Option) Result {
	var eo engine.Options
	for _, o := range opts {
		o(&eo)
	}
	return wrapResult(pl.p.Submit(p.core, eo))
}

// Workers returns the pool's worker count.
func (pl *Pool) Workers() int { return pl.p.Workers() }

// Stats returns a snapshot of the pool's scheduler counters.
func (pl *Pool) Stats() PoolStats { return pl.p.Stats() }

// Close stops the pool's workers after draining in-flight requests. Run
// calls after Close are refused with Result.Err = ErrShuttingDown — a
// draining process must not serve new work on ad-hoc workers its drain
// never waits for.
func (pl *Pool) Close() { pl.p.Close() }

// ShardedGraph is a data hypergraph partitioned across N shards by
// signature-partition hash — cluster mode, stage 1 (intra-process). Each
// shard is a self-contained DeltaBuffer over its owned hyperedge tables;
// ingest through the ShardedGraph routes each record to its owning shard
// while a mirror buffer keeps the solo-identical union view that
// Pool.RunSharded matches against. See internal/shard and the "Sharded
// serving" section of docs/ARCHITECTURE.md.
type ShardedGraph = shard.Graph

// ShardStat reports one shard's resident volume (ShardedGraph.Stats).
type ShardStat = shard.Stat

// NewShardedGraph partitions h across n shards (n >= 1).
func NewShardedGraph(h *Hypergraph, n int) (*ShardedGraph, error) {
	return shard.New(h, n)
}

// RunSharded scatters the plan across g's shards on the shared pool and
// gathers one merged result, semantically equivalent to a solo Run against
// g.Live().Snapshot(): counts, counters and groups match exactly, and with
// a callback (WithCallback, WithWorkerCallback, WithGroupCallback — the last
// in groups of one) or WithLimit the merged embedding stream
// is delivered in a deterministic order that is identical for every shard
// count. The plan must be compiled against a snapshot of g.Live().
func (pl *Pool) RunSharded(p *Plan, g *ShardedGraph, opts ...Option) Result {
	var eo engine.Options
	for _, o := range opts {
		o(&eo)
	}
	return wrapResult(shard.Scatter(pl.p, g, p.core, eo))
}

// Match compiles and runs in one call: it finds all subhypergraph
// embeddings of query in data.
func Match(query, data *Hypergraph, opts ...Option) (Result, error) {
	p, err := Compile(query, data)
	if err != nil {
		return Result{}, err
	}
	return p.Run(opts...), nil
}

// Count is Match returning only the embedding count.
func Count(query, data *Hypergraph, opts ...Option) (uint64, error) {
	r, err := Match(query, data, opts...)
	return r.Embeddings, err
}

// VerifyEmbedding checks an (order-aligned) edge tuple against the formal
// Definition III.3 by exhaustive search; useful in tests of downstream
// code, never needed in normal operation.
func VerifyEmbedding(query, data *Hypergraph, order, m []EdgeID) bool {
	return core.VerifyEmbedding(query, data, order, m)
}

// VertexMapping assigns a data vertex to every query vertex of an
// embedding; VertexMapping[u] = f(u).
type VertexMapping = core.VertexMapping

// VertexMappings reconstructs the vertex-level mappings behind an
// edge-tuple embedding (HGMatch enumerates hyperedge tuples and never
// materialises vertex mappings internally; applications that need to know
// "which entity plays query variable u" call this per result). Vertices
// with identical profiles are interchangeable, so one embedding can have
// several mappings; limit bounds how many are returned (0 = all).
func VertexMappings(query, data *Hypergraph, order, m []EdgeID, limit int) []VertexMapping {
	return core.VertexMappings(query, data, order, m, limit)
}

// OneVertexMapping returns a single vertex mapping for an embedding, or
// nil when the tuple is not a valid embedding.
func OneVertexMapping(query, data *Hypergraph, order, m []EdgeID) VertexMapping {
	return core.OneVertexMapping(query, data, order, m)
}

// QueryKey returns a deterministic cache key for a query hypergraph: two
// queries built from the same vertex sequence and hyperedge set (in any
// edge order) share a key. It is what a plan cache should key on — see
// cmd/hgserve, which caches Compile output per (data graph, QueryKey). The
// key is form-canonical, not isomorphism-canonical; when the query and
// data were loaded from separate files, align the query's label IDs to the
// data's dictionary first (as Match itself requires) so equal-looking
// queries key equally.
func QueryKey(query *Hypergraph) string { return hypergraph.CanonicalKey(query) }

// AlignLabels rebuilds query so its numeric label IDs agree with data's,
// resolving labels by dictionary name. Required whenever query and data
// were loaded from separate files, since each file interns label names in
// its own first-appearance order. Graphs built programmatically with
// shared numeric labels need no alignment; AlignLabels returns ErrNoDicts
// if either graph lacks a dictionary.
func AlignLabels(query, data *Hypergraph) (*Hypergraph, error) {
	return hgio.AlignLabels(query, data)
}

// ErrNoDicts is returned by AlignLabels when either graph lacks a label
// dictionary, so names cannot mediate between the two ID spaces. Callers
// matching dictionary-less graphs compare raw numeric labels instead.
var ErrNoDicts = hgio.ErrNoDicts

// Fault-containment sentinels, re-exported for errors.Is against
// Result.Err. See the engine package for the containment semantics.
var (
	// ErrRequestPoisoned: a worker panic was recovered and contained to
	// this request; other requests on the same pool were unaffected and
	// all of the request's blocks were returned (LeakedBlocks 0).
	ErrRequestPoisoned = engine.ErrRequestPoisoned
	// ErrBudgetExceeded: the run crossed its WithMaxMemory budget and was
	// aborted cooperatively with lower-bound counts.
	ErrBudgetExceeded = engine.ErrBudgetExceeded
	// ErrShuttingDown: the request was refused because the serving stack
	// (pool or registry) is draining for shutdown.
	ErrShuttingDown = hgio.ErrShuttingDown
)

// Version identifies this reproduction release.
const Version = "1.10.0"
