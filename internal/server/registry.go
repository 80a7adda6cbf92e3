package server

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"hgmatch"
	"hgmatch/internal/hgio"
)

// Registry holds the named data hypergraphs a server instance matches
// against. The file a graph is registered from picks its residency tier:
//
//	heap    decoded into Go memory. Add registers here, as does LoadFile
//	        for text and HGB2 files and for every file once durability is
//	        on (a durable graph is its checkpoint plus WAL).
//	cold    an HGB3 file registered by LoadFile and not yet requested:
//	        only its 96-byte header has been read.
//	mapped  a cold graph after its first Acquire, served zero-copy off the
//	        mmap(2)ed file, pages faulted in on demand.
//
// Every attached graph is a DeltaBuffer over its base, so every graph
// takes writes; a written mapped graph stays mapped until a compaction
// folds its delta onto the heap. SetResidentBudget bounds the summed file
// bytes of mapped graphs: crossing it evicts the least-recently-used
// unwritten one back to cold (a written one holds unreplayable writes).
// A mapping lives by its reference count alone: the registry holds one
// while the graph is attached, each request another (see Acquire).
//
// Matching runs on an immutable snapshot obtained through Acquire together
// with its version (the consistent pair plan-cache keys are built from).
type Registry struct {
	mu     sync.RWMutex
	graphs map[string]*graphEntry
	// onPurge fires (outside all locks) when a graph's cached plans must
	// go: the graph was replaced, or its mapping was detached (eviction,
	// a fold off the mapping, Close), so nothing keeps referring into the
	// old state.
	onPurge func(name string)
	// dur, when set (EnableDurability), gives every registered graph a
	// checkpoint + WAL under dur.Dir and routes Add/LoadFile through
	// recovery onto the heap.
	dur *DurabilityConfig

	// closed (guarded by mu) fails new Acquires once Close begins.
	closed bool

	budget    atomic.Int64  // resident-bytes budget for mapped graphs; 0 = unbounded
	resident  atomic.Int64  // mapped file bytes currently attached
	clock     atomic.Int64  // LRU clock, ticked per Acquire
	gens      atomic.Uint64 // last generation drawn, by an install or an activation
	mapVerify atomic.Bool   // verify payload checksums on attach

	activations atomic.Uint64
	evictions   atomic.Uint64
	promotions  atomic.Uint64

	// beforePin, when set by a test, runs in lookup between loading the
	// entry and pinning it; afterSwap runs in install between publishing
	// the new entry and detaching the one it replaced.
	beforePin, afterSwap func()
}

// graphEntry pairs a graph with its generation, its residency
// state, a per-version cache of its Table II statistics (ComputeStats
// walks every edge, so /graphs polling must not recompute it per request
// while the graph is idle), and — with durability on — its WAL attachment
// and degraded-mode state.
type graphEntry struct {
	// live is the graph's buffer: set once for an entry born on the heap;
	// for a file-backed one, nil while cold.
	live atomic.Pointer[hgmatch.DeltaBuffer]
	// gen is the generation the registry drew for this entry at install
	// and draws again at each activation, so no plan outlives its mapping
	// and no two entries ever share one, even a retired entry activated
	// by a reader that loaded it before its replacement landed.
	gen atomic.Uint64

	// HGB3 state. path/peek are immutable (path is "" for an entry born on
	// the heap); tierMu serialises tier transitions and pins the mapping
	// while a reference is taken. mapped is live's base until a fold moves
	// it onto the heap. written marks a graph that took a write (never
	// evicted). retired is set once install or Close tore the entry down:
	// pin never attaches it again.
	path     string
	peek     hgio.GraphPeek
	tierMu   sync.Mutex
	retired  bool
	written  atomic.Bool
	mapped   atomic.Pointer[hgio.MappedGraph]
	lastUsed atomic.Int64

	infoMu      sync.Mutex
	info        hgio.GraphInfo
	infoVersion uint64 // combined version info was computed at; 0 = never

	// ingestMu serialises writers (ingest apply+journal+publish, and
	// compaction+checkpoint+truncate), so WAL order is apply order and a
	// checkpoint can never race the appends it is folding in. Readers
	// never take it.
	ingestMu sync.Mutex

	roMu     sync.Mutex
	roReason string // non-empty = read-only (degraded) serving

	dur *durableState // nil when durability is off
}

// version combines the entry's generation with the snapshot's delta
// publication counter: replacing a graph under a live name, publishing new
// online writes, or re-attaching an evicted graph all move every
// plan-cache key forward.
func (e *graphEntry) version(h *hgmatch.Hypergraph) uint64 {
	return e.gen.Load()<<32 | h.DeltaVersion()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{graphs: make(map[string]*graphEntry)}
}

// SetResidentBudget bounds the summed file bytes of concurrently mapped
// graphs; crossing it evicts least-recently-used mappings. 0 disables the
// bound. The budget is best-effort: the graph a request just activated is
// never evicted to satisfy it, so one graph larger than the budget still
// serves.
func (r *Registry) SetResidentBudget(n int64) { r.budget.Store(n) }

// SetMapVerify makes every mmap attach verify the file's payload checksum
// (reading the whole file once) before serving from it.
func (r *Registry) SetMapVerify(v bool) { r.mapVerify.Store(v) }

// errRegistryClosed rejects Acquire once Close has begun; the server maps
// it to 503 (shutting down), not 404. It wraps the serving stack's single
// shutdown sentinel, hgio.ErrShuttingDown — the same one a closed engine
// pool reports — so handlers classify both with one errors.Is and clients
// see one shutting_down error code for either.
var errRegistryClosed = fmt.Errorf("server: registry closed: %w", hgio.ErrShuttingDown)

// Add registers a graph under name, replacing any previous graph of that
// name (the replacement gets a new generation, invalidating cached plans
// and firing the purge hook). The graph lives on the heap and accepts
// online inserts/deletes. With durability enabled, h is only the seed: a
// graph with recoverable history comes back as its checkpoint plus
// replayed WAL instead (see addDurable).
func (r *Registry) Add(name string, h *hgmatch.Hypergraph) error {
	r.mu.RLock()
	dur := r.dur
	r.mu.RUnlock()
	if dur != nil {
		return r.addDurable(name, *dur, func() (*hgmatch.Hypergraph, error) { return h, nil })
	}
	live, err := hgmatch.NewDeltaBuffer(h)
	if err != nil {
		return fmt.Errorf("server: registering graph %q: %w", name, err)
	}
	e := &graphEntry{}
	e.live.Store(live)
	r.install(name, e)
	return nil
}

// LoadFile registers the graph stored at path under name; the file picks
// the tier. With durability enabled the graph is recovered onto the heap
// (the file is only read when the graph has no checkpoint yet — a
// recovered graph's state is its checkpoint + WAL, not the possibly stale
// seed file). Otherwise an HGB3 file registers cold, from its header
// alone, and is mapped on first Acquire; any other format is read onto
// the heap.
func (r *Registry) LoadFile(name, path string) error {
	r.mu.RLock()
	dur := r.dur
	r.mu.RUnlock()
	if dur != nil {
		return r.addDurable(name, *dur, func() (*hgmatch.Hypergraph, error) { return readGraph(name, path) })
	}
	pk, err := hgio.PeekFile(path)
	if err == nil {
		r.install(name, &graphEntry{path: path, peek: pk})
		return nil
	}
	if !errors.Is(err, hgio.ErrNotV3) {
		return fmt.Errorf("server: registering graph %q: %w", name, err)
	}
	h, err := readGraph(name, path)
	if err != nil {
		return err
	}
	return r.Add(name, h)
}

// readGraph reads the file at path in any format ReadAutoFile sniffs.
func readGraph(name, path string) (*hgmatch.Hypergraph, error) {
	h, err := hgio.ReadAutoFile(path)
	if err != nil {
		return nil, fmt.Errorf("server: loading graph %q from %s: %w", name, path, err)
	}
	return h, nil
}

// install publishes an entry under name with a new generation. A
// previous registration is detached once the new entry is visible: its
// mapping (if any) is released and its plans purged.
func (r *Registry) install(name string, e *graphEntry) {
	e.gen.Store(r.gens.Add(1))
	r.mu.Lock()
	prev := r.graphs[name]
	r.graphs[name] = e
	r.mu.Unlock()
	if r.afterSwap != nil {
		r.afterSwap()
	}
	if prev != nil {
		r.detach(name, prev, detachRetire)
	}
}

// setOnPurge installs the hook fired (outside every registry lock)
// whenever a graph's cached plans must go: the server purges them so the
// replaced graph becomes collectable and a released mapping is referred
// to by nothing.
func (r *Registry) setOnPurge(fn func(name string)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.onPurge = fn
}

// entry returns the live entry registered under name.
func (r *Registry) entry(name string) (*graphEntry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.graphs[name]
	return e, ok
}

// noRelease is the release of a graph registered on the heap, which the
// collector alone keeps alive.
var noRelease = func() {}

// Acquire returns a consistent (snapshot, version) pair for the named
// graph plus a release the caller must invoke exactly once, on every path,
// when it stops using the snapshot: for a file-backed graph it drops the
// request's reference to the mapping. A cold graph is mapped on the way.
// A graph registered on the heap takes no tier mutex and allocates
// nothing. Once Close has begun, Acquire fails with errRegistryClosed.
// It reads the latest published snapshot and never publishes: a batch
// becomes visible at its writer's publication, after its journal append.
func (r *Registry) Acquire(name string) (*hgmatch.Hypergraph, uint64, func(), error) {
	e, live, release, err := r.lookup(name, false)
	if err != nil {
		return nil, 0, nil, err
	}
	h := live.Published()
	return h, e.version(h), release, nil
}

// lookup finds the entry registered under name and holds its buffer, as
// Acquire does for a read and the ingest and compact handlers for a write:
// it fails with errRegistryClosed once Close has begun and with
// errGraphNotFound for an unknown name, and an entry replaced since the
// lookup is retried on its replacement. A write marks a file-backed graph
// written (see ensureLive).
func (r *Registry) lookup(name string, write bool) (*graphEntry, *hgmatch.DeltaBuffer, func(), error) {
	for {
		r.mu.RLock()
		e, ok := r.graphs[name]
		closed := r.closed
		r.mu.RUnlock()
		switch {
		case closed:
			return nil, nil, nil, errRegistryClosed
		case !ok:
			return nil, nil, nil, errGraphNotFound
		}
		live, release, err := r.hold(name, e, write)
		if !errors.Is(err, errEntryRetired) { // else replaced or closed since the lookup
			return e, live, release, err
		}
	}
}

// ensureLive holds a given entry's write buffer, as lookup does, and
// marks a file-backed graph written (counted in promotions): its delta
// grows over the mapping, which is never evicted from then on. The
// background fold uses it to fold the entry it was scheduled for, never a
// replacement.
func (r *Registry) ensureLive(name string, e *graphEntry) (*hgmatch.DeltaBuffer, func(), error) {
	return r.hold(name, e, true)
}

// hold pins the entry's buffer for lookup and ensureLive, then enforces
// the budget around it.
func (r *Registry) hold(name string, e *graphEntry, write bool) (*hgmatch.DeltaBuffer, func(), error) {
	if e.path == "" {
		return e.live.Load(), noRelease, nil
	}
	e.lastUsed.Store(r.clock.Add(1))
	if r.beforePin != nil {
		r.beforePin()
	}
	live, m, err := r.pin(name, e, write)
	if err != nil {
		return nil, nil, err
	}
	r.maybeEvict(e)
	if m == nil {
		return live, noRelease, nil // a fold moved the base onto the heap
	}
	return live, func() { m.Release() }, nil
}

// errEntryRetired tells lookup that the entry it loaded was replaced (or
// closed) before pin could attach it: the retry finds which.
var errEntryRetired = errors.New("server: graph entry retired")

// pin returns a file-backed entry's buffer and, while its base is the
// mapping, the mapping with a reference retained for the caller. A cold
// entry attaches first, under a new generation; a failed attach leaves it
// cold, so the next call retries. tierMu serialises activation and makes
// Retain safe: detach swaps the pointer out under the same mutex.
func (r *Registry) pin(name string, e *graphEntry, write bool) (*hgmatch.DeltaBuffer, *hgio.MappedGraph, error) {
	e.tierMu.Lock()
	defer e.tierMu.Unlock()
	if e.retired {
		return nil, nil, errEntryRetired
	}
	live, m := e.live.Load(), e.mapped.Load()
	if live == nil {
		var err error
		if m, err = hgio.MapFile(e.path, hgio.MapOptions{Verify: r.mapVerify.Load()}); err != nil {
			return nil, nil, fmt.Errorf("server: activating graph %q: %w", name, err)
		}
		if live, err = hgmatch.NewDeltaBuffer(m.Graph()); err != nil {
			m.Release()
			return nil, nil, fmt.Errorf("server: activating graph %q: %w", name, err)
		}
		e.gen.Store(r.gens.Add(1))
		e.mapped.Store(m)
		e.live.Store(live)
		r.resident.Add(int64(m.FileBytes()))
		r.activations.Add(1)
	}
	if write && !e.written.Swap(true) {
		r.promotions.Add(1)
	}
	if m != nil {
		m.Retain()
	}
	return live, m, nil
}

// detachCause says why a mapping leaves its entry.
type detachCause uint8

const (
	detachEvict  detachCause = iota // budget pressure: an unwritten graph returns to cold
	detachRetire                    // install replaced the entry, or Close tore it down
	detachFold                      // a compaction moved a written graph's base onto the heap
)

// detach is the one way a mapping leaves an entry: the swap under tierMu
// stops new references, the bytes leave the budget, the plan purge stops
// cached plans from reaching into the mapping, and the registry drops its
// reference. It purges even when nothing was attached (a replaced heap
// graph's plans go too) and reports whether it released a mapping.
// Eviction refuses a graph written since lruMapped picked it; a fold
// keeps the buffer, whose base is on the heap now.
func (r *Registry) detach(name string, e *graphEntry, cause detachCause) bool {
	e.tierMu.Lock()
	if cause == detachEvict && e.written.Load() {
		e.tierMu.Unlock()
		return false
	}
	e.retired = e.retired || cause == detachRetire
	m := e.mapped.Swap(nil)
	if m != nil {
		r.resident.Add(-int64(m.FileBytes()))
		if cause != detachFold {
			e.live.Store(nil)
		}
	}
	e.tierMu.Unlock()
	r.mu.RLock()
	purge := r.onPurge
	r.mu.RUnlock()
	if purge != nil {
		purge(name)
	}
	if m != nil {
		m.Release()
	}
	return m != nil
}

// maybeEvict detaches least-recently-used unwritten mapped graphs until
// the resident bytes fit the budget, never touching keep (the entry the
// caller just pinned — evicting it would thrash).
func (r *Registry) maybeEvict(keep *graphEntry) {
	budget := r.budget.Load()
	if budget <= 0 {
		return
	}
	for r.resident.Load() > budget {
		name, e := r.lruMapped(keep)
		if e == nil {
			return
		}
		if r.detach(name, e, detachEvict) {
			r.evictions.Add(1)
		}
	}
}

// lruMapped picks the unwritten mapped entry with the oldest last use,
// skipping keep.
func (r *Registry) lruMapped(keep *graphEntry) (string, *graphEntry) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var bestName string
	var best *graphEntry
	var bestUsed int64
	for name, e := range r.graphs {
		if e == keep || e.mapped.Load() == nil || e.written.Load() {
			continue
		}
		if u := e.lastUsed.Load(); best == nil || u < bestUsed {
			bestName, best, bestUsed = name, e, u
		}
	}
	return bestName, best
}

// Info returns the Table II statistics of the named graph, cached per
// (generation, delta version), decorated with its residency tier. Info
// never changes a tier: a mapped graph's mapping is pinned while its
// statistics are computed, and a cold graph is described from its file
// header alone, without faulting a single payload page.
func (r *Registry) Info(name string) (hgio.GraphInfo, bool) {
	e, ok := r.entry(name)
	if !ok {
		return hgio.GraphInfo{}, false
	}
	live := e.live.Load()
	var m *hgio.MappedGraph
	if e.path != "" {
		e.tierMu.Lock()
		if live, m = e.live.Load(), e.mapped.Load(); m != nil {
			m.Retain()
			defer m.Release()
		}
		e.tierMu.Unlock()
	}
	pk := e.peek
	var info hgio.GraphInfo
	switch {
	case m != nil:
		info = e.stats(name, live.Published())
		info.Tier = "mapped"
		info.ResidentBytes = int64(m.HeapOverheadBytes())
		info.FileBytes = int64(m.FileBytes())
	case live != nil:
		info = e.stats(name, live.Published())
		info.FileBytes = pk.FileBytes
	default:
		info = hgio.GraphInfo{
			Name:        name,
			NumVertices: pk.NumVertices,
			NumEdges:    pk.NumEdges,
			NumLabels:   pk.NumLabels,
			MaxArity:    pk.MaxArity,
			Partitions:  pk.Partitions,
			Tier:        "cold",
			FileBytes:   pk.FileBytes,
		}
		if pk.NumEdges > 0 {
			info.AvgArity = float64(pk.TotalArity) / float64(pk.NumEdges)
		}
	}
	// Durability state decorates a copy: it moves without a version bump
	// (a WAL append or degradation changes no snapshot), so it must not be
	// folded into the version-keyed cache.
	if reason, ro := e.readOnly(); ro {
		info.ReadOnly = true
		info.ReadOnlyReason = reason
	}
	if e.dur != nil && e.dur.wal != nil {
		st := e.dur.wal.Stats()
		info.WalSegments = st.Segments
		info.WalBytes = st.Bytes
		info.WalLastSeq = st.LastSeq
	}
	return info, true
}

// stats returns h's statistics from the entry's version-keyed cache.
func (e *graphEntry) stats(name string, h *hgmatch.Hypergraph) hgio.GraphInfo {
	v := e.version(h)
	e.infoMu.Lock()
	defer e.infoMu.Unlock()
	if e.infoVersion != v {
		e.info = hgio.GraphInfoFor(name, h)
		e.infoVersion = v
	}
	return e.info
}

// TierStats summarises the registry's residency state for GET /stats.
type TierStats struct {
	Resident      int // mapped-tier graphs currently attached, written or not
	Cold          int // registered, never (or no longer) attached
	ResidentBytes int64
	Budget        int64
	Activations   uint64
	Evictions     uint64
	Promotions    uint64 // file-backed graphs written for the first time
}

// TierStats returns a snapshot of the residency counters.
func (r *Registry) TierStats() TierStats {
	ts := TierStats{
		ResidentBytes: r.resident.Load(),
		Budget:        r.budget.Load(),
		Activations:   r.activations.Load(),
		Evictions:     r.evictions.Load(),
		Promotions:    r.promotions.Load(),
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, e := range r.graphs {
		switch {
		case e.path == "": // born on the heap
		case e.mapped.Load() != nil:
			ts.Resident++
		case e.live.Load() == nil:
			ts.Cold++
		}
	}
	return ts
}

// Names returns the registered graph names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.graphs))
	for name := range r.graphs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Len returns the number of registered graphs.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.graphs)
}
