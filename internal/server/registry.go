package server

import (
	"fmt"
	"log"
	"sort"
	"sync"
	"sync/atomic"

	"hgmatch"
	"hgmatch/internal/hgio"
)

// Registry holds the named data hypergraphs a server instance matches
// against. Graphs live in one of three residency tiers:
//
//	heap    fully decoded into Go memory, wrapped in a DeltaBuffer: the
//	        classic tier — online-updatable, always resident. Add and
//	        LoadFile register here.
//	mapped  served zero-copy off an mmap(2)ed binary-v3 file
//	        (RegisterMapped, after first use): near-zero heap, pages
//	        faulted in by the kernel on demand and reclaimable under
//	        memory pressure. Read-mostly; the first ingest promotes the
//	        graph to the heap tier.
//	cold    registered via RegisterMapped but not yet requested: nothing
//	        attached, only the file header has been read.
//
// Mapped residency is budgeted: SetResidentBudget bounds the summed file
// bytes of concurrently attached graphs, and crossing the budget evicts
// the least-recently-used mapped graph (its mapping is released once
// every in-flight request holding it completes — see Acquire). Heap
// graphs are pinned: they may hold unreplayable online writes, so the
// registry never drops them.
//
// Matching always runs on an immutable snapshot obtained here together
// with its version (the consistent pair plan-cache keys are built from).
// The registry map itself is guarded for the (rare) case of graphs being
// added while the server is live; snapshot reads inside an entry are
// lock-free on the heap tier and take one per-entry mutex on the mapped
// tier (to pin the mapping against concurrent eviction).
type Registry struct {
	mu        sync.RWMutex
	graphs    map[string]*graphEntry
	onReplace func(name string)
	// onEvict fires (outside all locks) when a mapped graph's attachment
	// is dropped — eviction or ingest promotion — so the server can purge
	// plans compiled against the now-dying mapping.
	onEvict func(name string)
	// dur, when set (EnableDurability), gives every registered graph a
	// checkpoint + WAL under dur.Dir and routes Add through recovery.
	// Durability and mapped registration are mutually exclusive.
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
}

// graphEntry pairs a graph with its replacement generation, its residency
// state, a per-version cache of its Table II statistics (ComputeStats
// walks every edge, so /graphs polling must not recompute it per request
// while the graph is idle), and — with durability on — its WAL attachment
// and degraded-mode state.
type graphEntry struct {
	// live is the heap-tier buffer; nil while a managed entry is cold or
	// mapped. Atomic because ingest promotion installs it concurrently
	// with lock-free reader loads.
	live atomic.Pointer[hgmatch.DeltaBuffer]
	// gen is the replacement generation (1 for the first registration).
	// Tier transitions — activation of a new mapping, promotion to heap —
	// also bump it: each bump moves every plan-cache key forward, so a
	// plan compiled against one mapping can never be served against its
	// successor.
	gen atomic.Uint64

	// Managed (RegisterMapped) state. path/peek are immutable after
	// registration; tierMu serialises tier transitions and pins the
	// mapping while a reference is taken.
	managed  bool
	path     string
	peek     hgio.GraphPeek
	tierMu   sync.Mutex
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
// and firing the replacement hook). The graph becomes live: it accepts
// online inserts/deletes through Live(name). With durability enabled, h is
// only the seed: a graph with recoverable history comes back as its
// checkpoint plus replayed WAL instead (see addDurable).
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

// RegisterMapped registers a binary-v3 file under name for tiered serving:
// nothing is loaded now (only the 96-byte header is read); the first
// request activates the graph by memory-mapping the file. Mutually
// exclusive with durability — a mapped graph's online writes could not be
// replayed after eviction. Non-v3 files are rejected; use LoadFile for
// those.
func (r *Registry) RegisterMapped(name, path string) error {
	r.mu.RLock()
	dur := r.dur
	r.mu.RUnlock()
	if dur != nil {
		return fmt.Errorf("server: mapped graph %q: tiered residency and durability are mutually exclusive", name)
	}
	pk, err := hgio.PeekFile(path)
	if err != nil {
		return fmt.Errorf("server: registering mapped graph %q: %w", name, err)
	}
	if !pk.Mappable {
		return fmt.Errorf("server: graph %q: %s is %s, not binary v3; rewrite it with hgmatch.SaveBinaryV3File (or hggen -binary -v3) or serve it without -mmap", name, path, pk.Format)
	}
	r.install(name, &graphEntry{managed: true, path: path, peek: pk})
	return nil
}

// install publishes an entry under name, bumping the replacement
// generation and firing the replacement hook when a previous registration
// existed.
func (r *Registry) install(name string, e *graphEntry) {
	r.mu.Lock()
	var prevGen uint64
	var prevMapped *hgio.MappedGraph
	if prev, ok := r.graphs[name]; ok {
		prevGen = prev.gen.Load()
		if prev.managed {
			prev.tierMu.Lock()
			if m := prev.mapped.Load(); m != nil {
				prev.mapped.Store(nil)
				r.resident.Add(-int64(m.FileBytes()))
				prevMapped = m
			}
			prev.tierMu.Unlock()
		}
	}
	e.gen.Store(prevGen + 1)
	r.graphs[name] = e
	hook := r.onReplace
	r.mu.Unlock()
	if prevGen > 0 && hook != nil {
		hook(name)
	}
	if prevMapped != nil {
		prevMapped.Release()
	}
}

// setOnReplace installs a hook fired (outside the registry lock) whenever
// an existing graph is replaced; the server uses it to purge the replaced
// graph's plans so the old hypergraph becomes collectable.
func (r *Registry) setOnReplace(fn func(name string)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.onReplace = fn
}

// setOnEvict installs a hook fired (outside all locks) whenever a mapped
// graph's attachment is dropped — LRU eviction or ingest promotion; the
// server purges the graph's cached plans so nothing keeps referring into
// the released mapping.
func (r *Registry) setOnEvict(fn func(name string)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.onEvict = fn
}

func (r *Registry) evictHook() func(string) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.onEvict
}

// LoadFile reads a hypergraph from path (text or any binary .hg version,
// sniffed) onto the heap and registers it under name. With durability
// enabled the file is only read when the graph has no checkpoint yet — a
// recovered graph's state is its checkpoint + WAL, not the (possibly
// stale) seed file.
func (r *Registry) LoadFile(name, path string) error {
	r.mu.RLock()
	dur := r.dur
	r.mu.RUnlock()
	load := func() (*hgmatch.Hypergraph, error) {
		h, err := hgio.ReadAutoFile(path)
		if err != nil {
			return nil, fmt.Errorf("server: loading graph %q from %s: %w", name, path, err)
		}
		return h, nil
	}
	if dur != nil {
		return r.addDurable(name, *dur, load)
	}
	h, err := load()
	if err != nil {
		return err
	}
	return r.Add(name, h)
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
// return a no-op release. Once Close has begun, Acquire fails with
// errRegistryClosed instead of handing out references the drain would
// never see.
func (r *Registry) Acquire(name string) (*hgmatch.Hypergraph, uint64, func(), error) {
	e, ok := r.entry(name)
	if !ok {
		return nil, 0, nil, errGraphNotFound
	}
	e.lastUsed.Store(r.clock.Add(1))
	if live := e.live.Load(); live != nil {
		rel, err := r.track(nil)
		if err != nil {
			return nil, 0, nil, err
		}
		h := live.Snapshot()
		return h, e.version(h), rel, nil
	}
	// Managed entry, cold or mapped. The tier mutex both serialises
	// activation and makes Retain safe: eviction swaps the pointer out
	// under the same mutex, so a non-nil load here still holds the
	// registry's reference.
	e.tierMu.Lock()
	if live := e.live.Load(); live != nil { // promoted while we waited
		e.tierMu.Unlock()
		rel, err := r.track(nil)
		if err != nil {
			return nil, 0, nil, err
		}
		h := live.Snapshot()
		return h, e.version(h), rel, nil
	}
	m := e.mapped.Load()
	if m == nil {
		var err error
		if m, err = r.activateLocked(name, e); err != nil {
			e.tierMu.Unlock()
			return nil, 0, nil, err
		}
		if m == nil { // mmap unavailable: activateLocked fell back to heap
			live := e.live.Load()
			e.tierMu.Unlock()
			rel, err := r.track(nil)
			if err != nil {
				return nil, 0, nil, err
			}
			h := live.Snapshot()
			return h, e.version(h), rel, nil
		}
	}
	m.Retain()
	e.tierMu.Unlock()
	rel, err := r.track(func() { m.Release() })
	if err != nil {
		m.Release() // drop the request's retain; Close owns the registry's
		return nil, 0, nil, err
	}
	r.maybeEvict(e)
	h := m.Graph()
	return h, e.version(h), rel, nil
}

// activateLocked attaches the entry's file (tierMu held). On mmap/attach
// failure it falls back to a pinned heap load — a graph that was serving
// before must keep serving — and returns (nil, nil); the caller reads
// e.live. Either way the generation advances: this instance's plans must
// never collide with a previous attachment's.
func (r *Registry) activateLocked(name string, e *graphEntry) (*hgio.MappedGraph, error) {
	m, err := hgio.MapFile(e.path, hgio.MapOptions{Verify: r.mapVerify.Load()})
	if err == nil {
		e.gen.Add(1)
		e.mapped.Store(m)
		r.resident.Add(int64(m.FileBytes()))
		r.activations.Add(1)
		return m, nil
	}
	h, lerr := hgio.ReadAutoFile(e.path)
	if lerr != nil {
		return nil, fmt.Errorf("server: activating graph %q: %v (heap fallback: %w)", name, err, lerr)
	}
	live, lerr := hgmatch.NewDeltaBuffer(h)
	if lerr != nil {
		return nil, fmt.Errorf("server: activating graph %q: %w", name, lerr)
	}
	log.Printf("server: graph %q: mmap attach failed (%v); serving from the heap", name, err)
	e.gen.Add(1)
	e.live.Store(live)
	return nil, nil
}

// ensureLive returns the entry's heap-tier buffer, promoting a managed
// mapped/cold graph onto the heap first — the write path (ingest,
// compaction) needs a DeltaBuffer over ordinary heap arrays, never over a
// mapping that eviction could unmap under it. Promotion reloads the file,
// drops the mapping (once in-flight readers drain), bumps the generation
// and pins the graph in the heap tier for the rest of the process.
func (r *Registry) ensureLive(name string, e *graphEntry) (*hgmatch.DeltaBuffer, error) {
	if live := e.live.Load(); live != nil {
		return live, nil
	}
	e.tierMu.Lock()
	if live := e.live.Load(); live != nil {
		e.tierMu.Unlock()
		return live, nil
	}
	h, err := hgio.ReadAutoFile(e.path)
	if err != nil {
		e.tierMu.Unlock()
		return nil, fmt.Errorf("server: promoting graph %q to heap: %w", name, err)
	}
	live, err := hgmatch.NewDeltaBuffer(h)
	if err != nil {
		e.tierMu.Unlock()
		return nil, fmt.Errorf("server: promoting graph %q to heap: %w", name, err)
	}
	m := e.mapped.Load()
	if m != nil {
		e.mapped.Store(nil)
		r.resident.Add(-int64(m.FileBytes()))
	}
	e.gen.Add(1)
	e.live.Store(live)
	r.promotions.Add(1)
	e.tierMu.Unlock()
	if hook := r.evictHook(); hook != nil {
		hook(name) // purge plans compiled against the mapping
	}
	if m != nil {
		m.Release()
	}
	return live, nil
}

// maybeEvict drops least-recently-used mapped graphs until the resident
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
		r.evictMapped(name, e)
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
		if e == keep || !e.managed || e.mapped.Load() == nil || e.live.Load() != nil {
			continue
		}
		if u := e.lastUsed.Load(); best == nil || u < bestUsed {
			bestName, best, bestUsed = name, e, u
		}
	}
	return bestName, best
}

// evictMapped detaches one mapped graph: the pointer swap under tierMu
// stops new references, the plan purge stops cached plans from reaching
// into the mapping, and the final Release (registry's reference) unmaps
// once in-flight requests drain theirs. Returns false if someone else
// detached it first.
func (r *Registry) evictMapped(name string, e *graphEntry) bool {
	e.tierMu.Lock()
	m := e.mapped.Load()
	if m == nil {
		e.tierMu.Unlock()
		return false
	}
	e.mapped.Store(nil)
	r.resident.Add(-int64(m.FileBytes()))
	r.evictions.Add(1)
	e.tierMu.Unlock()
	if hook := r.evictHook(); hook != nil {
		hook(name)
	}
	m.Release()
	return true
}

// Get returns the current snapshot of the graph registered under name.
// For managed (mapped-tier) graphs this PROMOTES the graph to the heap:
// the caller gets no release handle, so only a heap snapshot — whose
// lifetime the garbage collector manages — is safe to hand out. Request
// paths use Acquire instead.
func (r *Registry) Get(name string) (*hgmatch.Hypergraph, bool) {
	h, _, ok := r.GetVersioned(name)
	return h, ok
}

// GetVersioned returns the current snapshot of the named graph together
// with its version — a single consistent pair: the version is derived from
// the snapshot itself, so a concurrent ingest can never pair an old
// snapshot with a new version (which would poison a plan cache). Promotes
// managed graphs to the heap tier (see Get); request paths use Acquire.
func (r *Registry) GetVersioned(name string) (*hgmatch.Hypergraph, uint64, bool) {
	e, ok := r.entry(name)
	if !ok {
		return nil, 0, false
	}
	live, err := r.ensureLive(name, e)
	if err != nil {
		return nil, 0, false
	}
	h := live.Snapshot()
	return h, e.version(h), true
}

// Live returns the named graph's online-update buffer, the write surface
// behind POST /graphs/{name}/edges and /compact, promoting managed graphs
// to the heap tier first.
func (r *Registry) Live(name string) (*hgmatch.DeltaBuffer, bool) {
	e, ok := r.entry(name)
	if !ok {
		return nil, false
	}
	live, err := r.ensureLive(name, e)
	if err != nil {
		return nil, false
	}
	return live, true
}

// Version returns the cache-key version of the named graph FOR the given
// snapshot. Handlers that already hold a specific snapshot use this
// instead of GetVersioned so the (snapshot, version) pair they report
// stays consistent under concurrent ingest.
func (r *Registry) Version(name string, h *hgmatch.Hypergraph) (uint64, bool) {
	e, ok := r.entry(name)
	if !ok {
		return 0, false
	}
	return e.version(h), true
}

// Info returns the Table II statistics of the named graph, cached per
// (generation, delta version), decorated with its residency tier. Cold
// graphs are described from their file header alone — Info never activates
// a graph.
func (r *Registry) Info(name string) (hgio.GraphInfo, bool) {
	e, ok := r.entry(name)
	if !ok {
		return hgio.GraphInfo{}, false
	}
	if e.managed && e.live.Load() == nil {
		return r.infoManaged(name, e), true
	}
	live := e.live.Load()
	if live == nil {
		return hgio.GraphInfo{}, false
	}
	h := live.Snapshot()
	v := e.version(h)
	e.infoMu.Lock()
	if e.infoVersion != v {
		e.info = hgio.GraphInfoFor(name, h)
		e.infoVersion = v
	}
	info := e.info
	e.infoMu.Unlock()
	if e.managed {
		info.FileBytes = e.peek.FileBytes
	}
	// Durability state decorates a copy: it moves without a version bump
	// (a WAL append or degradation changes no snapshot), so it must not be
	// folded into the version-keyed cache above.
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

// infoManaged describes a cold or mapped graph. The mapping (if any) is
// pinned while its statistics are computed; a cold graph's row is
// synthesised from the header peek without faulting a single payload page.
func (r *Registry) infoManaged(name string, e *graphEntry) hgio.GraphInfo {
	e.tierMu.Lock()
	m := e.mapped.Load()
	if m != nil {
		m.Retain()
	}
	e.tierMu.Unlock()
	if m == nil {
		pk := e.peek
		info := hgio.GraphInfo{
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
		return info
	}
	defer m.Release()
	h := m.Graph()
	v := e.version(h)
	e.infoMu.Lock()
	if e.infoVersion != v {
		e.info = hgio.GraphInfoFor(name, h)
		e.infoVersion = v
	}
	info := e.info
	e.infoMu.Unlock()
	info.Tier = "mapped"
	info.ResidentBytes = int64(m.HeapOverheadBytes())
	info.FileBytes = int64(m.FileBytes())
	return info
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
		if !e.managed || e.live.Load() != nil {
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
