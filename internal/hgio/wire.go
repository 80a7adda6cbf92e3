package hgio

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"

	"hgmatch/internal/hypergraph"
)

// This file defines the HTTP wire format of the hgserve match service
// (internal/server, cmd/hgserve). Query hypergraphs travel inside JSON
// request bodies as strings in the same line-oriented text format this
// package already reads from files, so every existing .hg file can be
// pasted into a request verbatim.

// MatchRequest is the JSON body of POST /match and POST /count.
type MatchRequest struct {
	// Graph names the data hypergraph to match against (one of the graphs
	// the server loaded at startup; see GET /graphs).
	Graph string `json:"graph"`
	// Query is the query hypergraph in hgio text format ("v <label>" /
	// "e <v1> <v2> ..." lines, '#' comments). Its label names are aligned
	// to the data graph's dictionary by name before matching; against a
	// dictionary-less data graph (built programmatically, or loaded from
	// a dict-less binary file) labels instead compare by raw numeric ID,
	// with the query's labels interned in first-appearance order.
	Query string `json:"query"`
	// Workers sets the engine thread-pool size (0 = server default).
	Workers int `json:"workers,omitempty"`
	// Limit stops the run after this many embeddings (0 = all).
	Limit uint64 `json:"limit,omitempty"`
	// TimeoutMs aborts the run after this many milliseconds (0 = server
	// default). Aborted runs report timed_out with lower-bound counts.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// Validate checks the request fields that must be present.
func (r *MatchRequest) Validate() error {
	if r.Graph == "" {
		return fmt.Errorf("hgio: match request: missing \"graph\"")
	}
	if strings.TrimSpace(r.Query) == "" {
		return fmt.Errorf("hgio: match request: missing \"query\"")
	}
	if r.Workers < 0 {
		return fmt.Errorf("hgio: match request: negative \"workers\"")
	}
	if r.TimeoutMs < 0 {
		return fmt.Errorf("hgio: match request: negative \"timeout_ms\"")
	}
	return nil
}

// ParseQuery parses the request's query text into a hypergraph.
func (r *MatchRequest) ParseQuery() (*hypergraph.Hypergraph, error) {
	return Read(strings.NewReader(r.Query))
}

// EmbeddingRecord is one NDJSON line of a streaming POST /match response:
// the data hyperedge ID matched to each query hyperedge, aligned with the
// plan's matching order (the "order" field of the closing MatchSummary).
type EmbeddingRecord struct {
	Embedding []uint32 `json:"embedding"`
}

// AppendEmbeddingRecord appends m's NDJSON line to dst: byte for byte
// json.Marshal(EmbeddingRecord{Embedding: m}) plus "\n", without reflection
// or allocation once dst has grown. It is AppendEmbeddingPrefix over all but
// m's last ID, then AppendEmbeddingLast.
func AppendEmbeddingRecord(dst []byte, m []uint32) []byte {
	switch {
	case m == nil:
		return append(dst, `{"embedding":null}`+"\n"...)
	case len(m) == 0:
		return append(dst, `{"embedding":[]}`+"\n"...)
	}
	return AppendEmbeddingLast(AppendEmbeddingPrefix(dst, m[:len(m)-1]), m[len(m)-1])
}

// AppendEmbeddingPrefix appends the part of an EmbeddingRecord line that
// every embedding extending prefix shares — `{"embedding":[p0,p1,` — so a
// streamer holding a (partial embedding, candidate run) group encodes it once
// and copies it per row.
func AppendEmbeddingPrefix(dst []byte, prefix []uint32) []byte {
	dst = append(dst, `{"embedding":[`...)
	for _, e := range prefix {
		var b [numberRoom + 1]byte
		w := putUint32(b[:], e)
		b[w] = ','
		dst = append(dst, b[:w+1]...)
	}
	return dst
}

// AppendEmbeddingLast completes a line begun by AppendEmbeddingPrefix with
// the embedding's last hyperedge ID and the closing `]}` and newline. It is
// the per-row step, so the digits are stored straight into dst's spare
// capacity; the `]}\n` after them covers what the number's first 4-byte
// store left past its digits, so nothing past the returned length changes.
func AppendEmbeddingLast(dst []byte, last uint32) []byte {
	n := len(dst)
	if cap(dst)-n < numberRoom+3 {
		dst = slices.Grow(dst, numberRoom+3)
	}
	w := putUint32(dst[n:cap(dst)], last)
	return append(dst[:n+w], "]}\n"...)
}

// numberRoom is the most bytes putUint32 touches: a 10-digit ID is a lead
// group of at most 2 digits and two full groups.
const numberRoom = 10

// digits4 holds the four ASCII digits of every n < 10000, zero-padded and
// packed little-endian (the thousands digit in the low byte), so one table
// read and one 4-byte store write a group of four digits. It is 40 KB,
// shared by every graph and request.
var digits4 = func() (t [10000]uint32) {
	for n := range t {
		t[n] = uint32('0'+n/1000) | uint32('0'+n/100%10)<<8 | uint32('0'+n/10%10)<<16 | uint32('0'+n%10)<<24
	}
	return t
}()

// putUint32 writes v's decimal digits at the start of b with 4-byte stores
// and returns how many there are: the one number formatter of the embedding
// encoder. It touches up to numberRoom bytes, so b needs that much room. Only
// the first store can reach past the digits, by at most 3 bytes: a leading
// group of fewer than 4 digits still takes a whole store, and every later
// store is a full group.
func putUint32(b []byte, v uint32) int {
	if v < 10000 {
		return putLead(b, v)
	}
	if v < 100000000 {
		w := putLead(b, v/10000)
		binary.LittleEndian.PutUint32(b[w:], digits4[v%10000])
		return w + 4
	}
	w := putLead(b, v/100000000)
	binary.LittleEndian.PutUint32(b[w:], digits4[v/10000%10000])
	binary.LittleEndian.PutUint32(b[w+4:], digits4[v%10000])
	return w + 8
}

// putLead writes v < 10000 without leading zeros as one 4-byte store of its
// digit group shifted down past the zeros, and returns its width.
func putLead(b []byte, v uint32) int {
	w := 4
	switch {
	case v < 10:
		w = 1
	case v < 100:
		w = 2
	case v < 1000:
		w = 3
	}
	binary.LittleEndian.PutUint32(b, digits4[v]>>(8*(4-w)))
	return w
}

// MatchSummary is the final NDJSON line of POST /match and the whole body
// of POST /count. Done distinguishes it from EmbeddingRecords on the same
// stream. When a run fails after the 200 header has been sent (memory
// budget exceeded, recovered worker panic, shutdown mid-stream), the
// summary doubles as the machine-readable error trailer: Error carries the
// message and ErrorCode one of the errors.go codes, with the counts as
// lower bounds over what was streamed before the failure.
type MatchSummary struct {
	Done       bool     `json:"done"`
	Embeddings uint64   `json:"embeddings"`
	Candidates uint64   `json:"candidates"`
	Filtered   uint64   `json:"filtered"`
	Valid      uint64   `json:"valid"`
	ElapsedUs  int64    `json:"elapsed_us"`
	TimedOut   bool     `json:"timed_out,omitempty"`
	PlanCached bool     `json:"plan_cached"`
	Order      []uint32 `json:"order,omitempty"`
	// Error/ErrorCode form the mid-stream error trailer (empty on
	// success). A client that sees them must treat the stream as
	// truncated, not complete.
	Error     string `json:"error,omitempty"`
	ErrorCode string `json:"error_code,omitempty"`
}

// GraphInfo describes one loaded data hypergraph (GET /graphs and
// GET /graphs/{name}/stats). The stat fields are the paper's Table II
// columns as computed by hypergraph.ComputeStats, plus the storage-layer
// index shape: interned signature count, CSR inverted-index footprint
// (index_bytes) and the signature hash table's footprint. For graphs
// receiving online updates, delta_edges/dead_edges report the uncompacted
// append-side and tombstoned volume of the current snapshot (num_edges
// already excludes tombstones).
type GraphInfo struct {
	Name          string  `json:"name"`
	NumVertices   int     `json:"num_vertices"`
	NumEdges      int     `json:"num_edges"`
	NumLabels     int     `json:"num_labels"`
	MaxArity      int     `json:"max_arity"`
	AvgArity      float64 `json:"avg_arity"`
	Partitions    int     `json:"partitions"`
	Signatures    int     `json:"num_signatures"`
	IndexBytes    int     `json:"index_bytes"`
	GraphBytes    int     `json:"graph_bytes"`
	SigTableBytes int     `json:"sig_table_bytes"`
	// BitmapVertices/BitmapBytes report the bitmap posting-container
	// sidecar: how many dense vertices carry a word-parallel container and
	// what the sidecar costs on top of index_bytes — the number memory
	// sizing adds per graph (see docs/OPERATIONS.md).
	BitmapVertices int `json:"bitmap_vertices"`
	BitmapBytes    int `json:"bitmap_bytes"`
	DeltaEdges     int `json:"delta_edges,omitempty"`
	DeadEdges      int `json:"dead_edges,omitempty"`
	// Tier reports how the graph is resident right now: "heap" (fully
	// decoded into Go memory) or "mapped" (served zero-copy off an
	// mmap(2)ed binary-v3 file, which it stays until a compaction folds
	// its delta onto the heap). ResidentBytes is the Go-heap footprint the
	// graph pins in that tier — for mapped graphs just slice headers and
	// lookup tables, the arrays stay in the page cache — and FileBytes the
	// on-disk size of the mapped file (0 for a heap graph).
	Tier          string `json:"tier,omitempty"`
	ResidentBytes int64  `json:"resident_bytes"`
	FileBytes     int64  `json:"file_bytes,omitempty"`
	// ReadOnly marks a graph degraded to read-only serving (quarantined
	// WAL segment, unreadable checkpoint, failed append — see
	// docs/OPERATIONS.md); ReadOnlyReason names the root cause. The Wal*
	// fields report the graph's write-ahead log when durability is on:
	// live segment count, on-disk bytes, and the last journaled batch
	// sequence.
	ReadOnly       bool   `json:"read_only,omitempty"`
	ReadOnlyReason string `json:"read_only_reason,omitempty"`
	WalSegments    int    `json:"wal_segments,omitempty"`
	WalBytes       int64  `json:"wal_bytes,omitempty"`
	WalLastSeq     uint64 `json:"wal_last_seq,omitempty"`
}

// GraphInfoFor assembles a GraphInfo from a graph and its registry name.
func GraphInfoFor(name string, h *hypergraph.Hypergraph) GraphInfo {
	s := hypergraph.ComputeStats(h)
	return GraphInfo{
		Name:           name,
		NumVertices:    s.NumVertices,
		NumEdges:       s.NumEdges,
		NumLabels:      s.NumLabels,
		MaxArity:       s.MaxArity,
		AvgArity:       s.AvgArity,
		Partitions:     s.Partitions,
		Signatures:     s.Signatures,
		IndexBytes:     s.IndexBytes,
		GraphBytes:     s.GraphBytes,
		SigTableBytes:  s.SigTableBytes,
		BitmapVertices: s.BitmapVertices,
		BitmapBytes:    s.BitmapBytes,
		DeltaEdges:     s.DeltaEdges,
		DeadEdges:      s.DeadEdges,
		Tier:           "heap",
		ResidentBytes:  int64(s.GraphBytes) + int64(s.IndexBytes) + int64(s.SigTableBytes) + int64(s.BitmapBytes),
	}
}

// IngestRecord is one NDJSON line of a POST /graphs/{name}/edges request
// body. Ops:
//
//	insert      add the hyperedge over Vertices (default when Vertices set)
//	delete      remove the hyperedge with exactly that vertex set
//	add_vertex  append a vertex carrying Label (numeric) or LabelName
//	            (resolved against the graph's dictionary)
//
// EdgeLabel applies to insert/delete of edge-labelled hyperedges (the
// paper's footnote-2 extension); omit it for vertex-labelled graphs.
type IngestRecord struct {
	Op        string   `json:"op,omitempty"`
	Vertices  []uint32 `json:"vertices,omitempty"`
	Label     *uint32  `json:"label,omitempty"`
	LabelName string   `json:"label_name,omitempty"`
	EdgeLabel *uint32  `json:"edge_label,omitempty"`
}

// IngestSummary is the JSON response of POST /graphs/{name}/edges: what
// each line did, plus the published snapshot's version and its pending
// delta volume (the numbers compaction thresholds watch). Ingest is not
// transactional: a failed request reports the same summary with Done
// false and Error set, its counts covering the lines applied (and
// published) before the failing one.
type IngestSummary struct {
	Done          bool   `json:"done"`
	Error         string `json:"error,omitempty"`
	Lines         int    `json:"lines"`
	Inserted      int    `json:"inserted"`
	Duplicates    int    `json:"duplicates"`
	Deleted       int    `json:"deleted"`
	Missing       int    `json:"missing"`
	VerticesAdded int    `json:"vertices_added"`
	PendingEdges  int    `json:"pending_edges"`
	DeadEdges     int    `json:"dead_edges"`
	Version       uint64 `json:"version"`
	Compacting    bool   `json:"compacting,omitempty"`
	ElapsedUs     int64  `json:"elapsed_us"`
	// Durable reports that the batch was journaled to the graph's WAL
	// (and fsynced per the -wal-sync policy) before this response; WalSeq
	// is its sequence number in the log. Absent when durability is off.
	Durable bool   `json:"durable,omitempty"`
	WalSeq  uint64 `json:"wal_seq,omitempty"`
}

// CompactSummary is the JSON response of POST /graphs/{name}/compact.
type CompactSummary struct {
	Done        bool   `json:"done"`
	Edges       int    `json:"edges"`
	FoldedEdges int    `json:"folded_edges"`
	Dropped     int    `json:"dropped_edges"`
	Version     uint64 `json:"version"`
	ElapsedUs   int64  `json:"elapsed_us"`
}

// ErrorResponse is the JSON body of every non-2xx hgserve response. The
// retry fields are set only on 429s from the admission controller: when
// the tenant's cost quota is exhausted, RetryAfterMs hints when to retry
// (the same value travels in the Retry-After header, in seconds) and
// EstimatedCost reports the planner estimate the request was priced at.
type ErrorResponse struct {
	Error string `json:"error"`
	// Code classifies the failure machine-readably (errors.go:
	// shutting_down, budget_exceeded, request_poisoned, ...); empty for
	// plain validation errors where the status says it all.
	Code          string `json:"code,omitempty"`
	RetryAfterMs  int64  `json:"retry_after_ms,omitempty"`
	EstimatedCost uint64 `json:"estimated_cost,omitempty"`
}

// SchedulerStats is the body of GET /stats: the shared morsel pool's
// scheduler counters and the admission controller's accounting.
type SchedulerStats struct {
	// PoolWorkers is the process-wide worker count (-workers); every
	// in-flight request shares these workers under fair scheduling.
	PoolWorkers int `json:"pool_workers"`
	// ActiveRequests counts requests currently registered with the pool.
	ActiveRequests int `json:"active_requests"`
	// Submitted/Completed/Tasks count requests accepted, requests fully
	// drained, and morsel tasks executed since startup.
	Submitted uint64 `json:"submitted"`
	Completed uint64 `json:"completed"`
	Tasks     uint64 `json:"tasks"`
	// PoolYields counts quanta a pool worker cut short because a newer
	// request registered while it held its slot past the engine's slice:
	// how often a concurrent request's arrival preempted running ones.
	PoolYields uint64 `json:"pool_yields,omitempty"`
	// PoolParks counts quanta a pool worker ended because its request was
	// parked: a /match whose frame queue was full, its reader slower than
	// the workers. WriteParked counts the requests parked right now; each
	// holds no pool worker while it waits for its writer.
	PoolParks   uint64 `json:"pool_parks,omitempty"`
	WriteParked int    `json:"write_parked"`

	// AdmissionEnabled mirrors -admission; the remaining fields are zero
	// when it is off.
	AdmissionEnabled bool `json:"admission_enabled"`
	// CheapThreshold is the planner-cost bound under which requests skip
	// admission entirely; TenantQuota is each tenant's in-flight cost
	// budget.
	CheapThreshold uint64 `json:"cheap_threshold,omitempty"`
	TenantQuota    uint64 `json:"tenant_quota,omitempty"`
	// Bypassed counts cheap requests that skipped the controller, Admitted
	// counts expensive requests that acquired cost tokens, Rejected counts
	// 429s. ActiveTenants is the number of tenants holding tokens now.
	Bypassed      uint64 `json:"bypassed"`
	Admitted      uint64 `json:"admitted"`
	Rejected      uint64 `json:"rejected"`
	ActiveTenants int    `json:"active_tenants"`

	// WALEnabled mirrors -wal-dir being set; ReadOnlyGraphs counts graphs
	// degraded to read-only serving (alert when non-zero — see the
	// quarantine runbook in docs/OPERATIONS.md).
	WALEnabled     bool `json:"wal_enabled"`
	ReadOnlyGraphs int  `json:"read_only_graphs"`

	// Fault-containment counters (cumulative since startup; see the
	// "Overload & incident runbook" in docs/OPERATIONS.md). Every
	// occurrence also writes a structured error log line.
	// PanicsRecovered counts worker panics recovered and converted into
	// per-request request_poisoned failures (alert on any increase — a
	// recovered panic is survivable but always a bug). BudgetAborts
	// counts runs aborted for crossing -request-max-bytes.
	// SlowClientAborts counts runs cancelled because their connection
	// missed a write deadline. LeakedBlocks sums Result.LeakedBlocks
	// over all runs; the engine's invariant is that it stays 0 — any
	// non-zero value is a leak bug worth a report.
	PanicsRecovered  uint64 `json:"panics_recovered"`
	BudgetAborts     uint64 `json:"budget_aborts"`
	SlowClientAborts uint64 `json:"slow_client_aborts"`
	LeakedBlocks     int64  `json:"leaked_blocks"`
	// RequestMaxBytes mirrors -request-max-bytes (0 = unlimited).
	RequestMaxBytes int64 `json:"request_max_bytes,omitempty"`

	// StreamWrites counts the guarded writes /match responses made since
	// startup (row frames, tail frames and summary lines alike) and
	// StreamBytes the bytes they carried; StreamBytes/StreamWrites is the
	// mean frame size (see docs/OPERATIONS.md).
	StreamWrites uint64 `json:"stream_writes"`
	StreamBytes  uint64 `json:"stream_bytes"`

	// Residency accounting (zero without mapped HGB3 graphs).
	// GraphsResident counts graphs served off their mapping, and
	// ResidentBytes sums those mappings' file bytes: address space, whose
	// pages the kernel reads in and reclaims (see docs/OPERATIONS.md).
	GraphsResident int   `json:"graphs_resident,omitempty"`
	ResidentBytes  int64 `json:"resident_bytes,omitempty"`
}

// ReadyResponse is the body of GET /readyz: readiness for traffic, as
// distinct from /healthz liveness. Ready is false while the process boots
// (WAL recovery, graph registration) and again once shutdown drain has
// begun; load balancers should route on it. A ready server may still be
// Degraded: ReadOnlyGraphs lists graphs serving read-only (quarantined
// WAL, failed append), which fails writes to them with 503 while reads
// keep working.
type ReadyResponse struct {
	Ready          bool     `json:"ready"`
	Reason         string   `json:"reason,omitempty"` // "booting" | "draining" when not ready
	Degraded       bool     `json:"degraded,omitempty"`
	ReadOnlyGraphs []string `json:"read_only_graphs,omitempty"`
}

// HealthResponse is the body of GET /healthz.
type HealthResponse struct {
	Status  string `json:"status"`
	Version string `json:"version"`
	Graphs  int    `json:"graphs"`
	// PlanCache reports cache effectiveness since startup.
	PlanCacheSize   int    `json:"plan_cache_size"`
	PlanCacheHits   uint64 `json:"plan_cache_hits"`
	PlanCacheMisses uint64 `json:"plan_cache_misses"`
}
