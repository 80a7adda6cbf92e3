package server

import (
	"errors"
	"fmt"
	"log"
	"sort"
	"sync"
	"sync/atomic"

	"hgmatch"
	"hgmatch/internal/hgio"
)

// Registry holds the named data hypergraphs a server instance matches
// against. The file a graph is registered from picks its residency tier:
//
//	heap    fully decoded into Go memory, wrapped in a DeltaBuffer:
//	        online-updatable, always resident. Add registers here, as does
//	        LoadFile for text and HGB2 files and for every file once
//	        durability is on (a durable graph is its checkpoint plus WAL).
//	cold    an HGB3 file registered by LoadFile and not yet requested:
//	        nothing attached, only the 96-byte header has been read.
//	mapped  a cold graph after its first Acquire, served zero-copy off the
//	        mmap(2)ed file: near-zero heap, pages faulted in on demand and
//	        reclaimable under memory pressure. The first ingest promotes it
//	        to the heap; a failed attach falls back to the heap.
//
// Mapped residency is budgeted: SetResidentBudget bounds the summed file
// bytes of concurrently attached graphs, and crossing the budget evicts
// the least-recently-used mapped graph back to cold (its mapping is
// released once every in-flight request holding it completes — see
// Acquire). Heap graphs are pinned: they may hold unreplayable online
// writes, so the registry never drops them.
//
// Matching always runs on an immutable snapshot obtained through Acquire
// together with its version (the consistent pair plan-cache keys are built
// from). Only Acquire, ensureLive (the write path), eviction, install and
// Close move a graph between tiers. Snapshot reads are lock-free on the
// heap tier and take one per-entry mutex on the mapped tier (to pin the
// mapping against concurrent eviction).
type Registry struct {
	mu     sync.RWMutex
	graphs map[string]*graphEntry
	// onPurge fires (outside all locks) when a graph's cached plans must
	// go: the graph was replaced, or its mapping was detached (eviction,
	// promotion, Close), so nothing keeps referring into the old state.
	onPurge func(name string)
	// dur, when set (EnableDurability), gives every registered graph a
	// checkpoint + WAL under dur.Dir and routes Add/LoadFile through
	// recovery onto the heap.
	dur *DurabilityConfig

	// inflight counts Acquire references not yet released. Close drains it
	// before dropping the registry's mapped-tier references: a handler
	// holds its reference for the whole engine run, not just for planning,
	// so Close must not pull mappings out from under a run still reading
	// them.
	// closed (guarded by mu) fails new Acquires once Close begins, so the
	// drain can never race a fresh inflight.Add against inflight.Wait
	// (WaitGroup reuse panic) or hand out a mapping Close is about to
	// release.
	inflight sync.WaitGroup
	closed   bool

	budget    atomic.Int64 // resident-bytes budget for mapped graphs; 0 = unbounded
	resident  atomic.Int64 // mapped file bytes currently attached
	clock     atomic.Int64 // LRU clock, ticked per Acquire
	mapVerify atomic.Bool  // verify payload checksums on attach

	activations atomic.Uint64
	evictions   atomic.Uint64
	promotions  atomic.Uint64

	// beforePin, when set by a test, runs in Acquire between loading the
	// entry and pinning it.
	beforePin func()
}

// graphEntry pairs a graph with its replacement generation, its residency
// state, a per-version cache of its Table II statistics (ComputeStats
// walks every edge, so /graphs polling must not recompute it per request
// while the graph is idle), and — with durability on — its WAL attachment
// and degraded-mode state.
type graphEntry struct {
	// live is the heap-tier buffer; nil while the entry is cold or mapped.
	// Atomic because promotion installs it concurrently with lock-free
	// reader loads.
	live atomic.Pointer[hgmatch.DeltaBuffer]
	// gen is the replacement generation (1 for the first registration).
	// Tier transitions — activation of a new mapping, promotion to heap —
	// also bump it: each bump moves every plan-cache key forward, so a
	// plan compiled against one mapping can never be served against its
	// successor.
	gen atomic.Uint64

	// HGB3 state. path/peek are immutable after registration (path is ""
	// for an entry born on the heap); tierMu serialises tier transitions
	// and pins the mapping while a reference is taken. retired (guarded by
	// tierMu) is set once install replaced the entry or Close tore it
	// down: nothing would detach a mapping attached after that, so pin
	// refuses to attach one.
	path     string
	peek     hgio.GraphPeek
	tierMu   sync.Mutex
	retired  bool
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

// version combines the replacement generation with the snapshot's delta
// publication counter: replacing a graph under a live name, publishing new
// online writes, or re-attaching a mapped graph all move every plan-cache
// key forward.
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

// errRegistryClosed rejects Acquire once Close has begun draining; the
// server maps it to 503 (shutting down), not 404. It wraps the serving
// stack's single shutdown sentinel, hgio.ErrShuttingDown — the same one a
// closed engine pool reports — so handlers classify both with one
// errors.Is and clients see one shutting_down error code for either.
var errRegistryClosed = fmt.Errorf("server: registry closed: %w", hgio.ErrShuttingDown)

// track registers one in-flight snapshot reference and wraps its release:
// idempotent (handlers release on every path, sometimes twice under
// defer+explicit), and counted so Close can drain in-flight runs before
// tearing down the mapped tier. The Add happens under the registry lock
// with the closed flag checked: Close flips the flag under the write lock
// before it calls inflight.Wait, so every Add either strictly precedes the
// drain or is refused — a reference can never slip in behind it.
// track does NOT call release on failure; the caller still owns whatever
// the reference pins.
func (r *Registry) track(release func()) (func(), error) {
	r.mu.RLock()
	if r.closed {
		r.mu.RUnlock()
		return nil, errRegistryClosed
	}
	r.inflight.Add(1)
	r.mu.RUnlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			if release != nil {
				release()
			}
			r.inflight.Done()
		})
	}, nil
}

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

// loadHeap reads the file at path into a fresh heap-tier buffer: the
// fallback of a failed attach and the promotion of a mapped graph.
func loadHeap(name, path string) (*hgmatch.DeltaBuffer, error) {
	h, err := readGraph(name, path)
	if err != nil {
		return nil, err
	}
	return hgmatch.NewDeltaBuffer(h)
}

// install publishes an entry under name with the next replacement
// generation. A previous registration is detached once the new entry is
// visible: its mapping (if any) is released and its plans purged.
func (r *Registry) install(name string, e *graphEntry) {
	r.mu.Lock()
	prev := r.graphs[name]
	if prev != nil {
		e.gen.Store(prev.gen.Load() + 1)
	} else {
		e.gen.Store(1)
	}
	r.graphs[name] = e
	r.mu.Unlock()
	if prev != nil {
		r.detach(name, prev, true)
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

// Acquire returns a consistent (snapshot, version) pair for the named
// graph plus a release the caller must invoke once it stops using the
// snapshot (on every path — the release pins a mapped graph's mapping
// against eviction for the request's lifetime). Cold graphs activate on
// the way: the file is mapped, the budget enforced. Heap-tier graphs
// take two registry read-locks and no tier mutex. Once Close has begun,
// Acquire fails with errRegistryClosed instead of handing out references
// the drain would never see.
func (r *Registry) Acquire(name string) (*hgmatch.Hypergraph, uint64, func(), error) {
	e, ok := r.entry(name)
	if !ok {
		return nil, 0, nil, errGraphNotFound
	}
	e.lastUsed.Store(r.clock.Add(1))
	live := e.live.Load()
	var m *hgio.MappedGraph
	if live == nil {
		if r.beforePin != nil {
			r.beforePin()
		}
		var err error
		if live, m, err = r.pin(name, e); errors.Is(err, errEntryRetired) {
			return r.Acquire(name) // replaced since entry: use the current one
		} else if err != nil {
			return nil, 0, nil, err
		}
	}
	if m == nil {
		rel, err := r.track(nil)
		if err != nil {
			return nil, 0, nil, err
		}
		h := live.Snapshot()
		return h, e.version(h), rel, nil
	}
	rel, err := r.track(func() { m.Release() })
	if err != nil {
		m.Release() // drop the request's retain; Close owns the registry's
		return nil, 0, nil, err
	}
	r.maybeEvict(e)
	h := m.Graph()
	return h, e.version(h), rel, nil
}

// errEntryRetired tells Acquire that the entry it loaded was replaced
// before pin could attach it.
var errEntryRetired = errors.New("server: graph entry retired")

// pin resolves an entry that was off the heap at Acquire's lock-free
// check. It returns the heap buffer if the graph was promoted meanwhile,
// and otherwise the mapping — attached first if the graph is cold — with
// one reference retained for the caller. tierMu serialises activation and
// makes Retain safe: detach swaps the pointer out under the same mutex. A
// failed attach falls back to a pinned heap load (a graph that was serving
// before must keep serving). Either activation advances the generation:
// this instance's plans must never collide with a previous attachment's.
func (r *Registry) pin(name string, e *graphEntry) (*hgmatch.DeltaBuffer, *hgio.MappedGraph, error) {
	e.tierMu.Lock()
	defer e.tierMu.Unlock()
	if live := e.live.Load(); live != nil {
		return live, nil, nil
	}
	if e.retired {
		r.mu.RLock()
		closed := r.closed
		r.mu.RUnlock()
		if closed {
			return nil, nil, errRegistryClosed
		}
		return nil, nil, errEntryRetired
	}
	m := e.mapped.Load()
	if m == nil {
		var err error
		if m, err = hgio.MapFile(e.path, hgio.MapOptions{Verify: r.mapVerify.Load()}); err != nil {
			live, lerr := loadHeap(name, e.path)
			if lerr != nil {
				return nil, nil, fmt.Errorf("server: activating graph %q: %v (heap fallback: %w)", name, err, lerr)
			}
			log.Printf("server: graph %q: mmap attach failed (%v); serving from the heap", name, err)
			e.gen.Add(1)
			e.live.Store(live)
			return live, nil, nil
		}
		e.gen.Add(1)
		e.mapped.Store(m)
		r.resident.Add(int64(m.FileBytes()))
		r.activations.Add(1)
	}
	m.Retain()
	return nil, m, nil
}

// ensureLive returns the entry's heap-tier buffer, promoting a cold or
// mapped graph onto the heap first — the write path (ingest, compaction)
// needs a DeltaBuffer over ordinary heap arrays, never over a mapping that
// eviction could unmap under it. Promotion reloads the file, bumps the
// generation, pins the graph in the heap tier for the rest of the process
// and then detaches the mapping (released once in-flight readers drain).
func (r *Registry) ensureLive(name string, e *graphEntry) (*hgmatch.DeltaBuffer, error) {
	if live := e.live.Load(); live != nil {
		return live, nil
	}
	e.tierMu.Lock()
	if live := e.live.Load(); live != nil {
		e.tierMu.Unlock()
		return live, nil
	}
	live, err := loadHeap(name, e.path)
	if err != nil {
		e.tierMu.Unlock()
		return nil, fmt.Errorf("server: promoting graph %q to heap: %w", name, err)
	}
	e.gen.Add(1)
	e.live.Store(live)
	r.promotions.Add(1)
	e.tierMu.Unlock()
	r.detach(name, e, false)
	return live, nil
}

// detach is the one way a mapping leaves an entry: the pointer swap under
// tierMu stops new references, the resident bytes leave the budget, the
// plan purge stops cached plans from reaching into the mapping, and the
// registry's Release unmaps once in-flight requests drain theirs. It
// purges even when nothing was attached (a replaced heap graph's plans go
// too) and reports whether it released a mapping. retire (install and
// Close) also stops pin from ever attaching the entry again; eviction and
// promotion leave it attachable — an evicted graph re-maps on its next
// Acquire.
func (r *Registry) detach(name string, e *graphEntry, retire bool) bool {
	e.tierMu.Lock()
	e.retired = e.retired || retire
	m := e.mapped.Swap(nil)
	if m != nil {
		r.resident.Add(-int64(m.FileBytes()))
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

// maybeEvict detaches least-recently-used mapped graphs until the resident
// bytes fit the budget, never touching keep (the entry the caller just
// activated — evicting it would thrash) or heap-tier graphs.
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
		if r.detach(name, e, false) {
			r.evictions.Add(1)
		}
	}
}

// lruMapped picks the mapped-tier entry with the oldest last use, skipping
// keep.
func (r *Registry) lruMapped(keep *graphEntry) (string, *graphEntry) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var bestName string
	var best *graphEntry
	var bestUsed int64
	for name, e := range r.graphs {
		if e == keep || e.mapped.Load() == nil || e.live.Load() != nil {
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
	if live == nil {
		e.tierMu.Lock()
		if live = e.live.Load(); live == nil {
			if m = e.mapped.Load(); m != nil {
				m.Retain()
				defer m.Release()
			}
		}
		e.tierMu.Unlock()
	}
	pk := e.peek
	var info hgio.GraphInfo
	switch {
	case live != nil:
		info = e.stats(name, live.Snapshot())
		info.FileBytes = pk.FileBytes
	case m != nil:
		info = e.stats(name, m.Graph())
		info.Tier = "mapped"
		info.ResidentBytes = int64(m.HeapOverheadBytes())
		info.FileBytes = int64(m.FileBytes())
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
	Resident      int // mapped-tier graphs currently attached
	Cold          int // registered, never (or no longer) attached
	ResidentBytes int64
	Budget        int64
	Activations   uint64
	Evictions     uint64
	Promotions    uint64
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
		if e.path == "" || e.live.Load() != nil {
			continue
		}
		if e.mapped.Load() != nil {
			ts.Resident++
		} else {
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
