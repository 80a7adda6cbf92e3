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
//	mapped  an HGB3 file, mmap(2)ed by LoadFile and served zero-copy off
//	        the mapping, pages faulted in on demand.
//
// Every graph is a DeltaBuffer over its base, so every graph takes
// writes. A mapped graph keeps its mapping until a compaction folds its
// delta onto the heap, install replaces the graph or Close retires it.
// A mapping lives by its reference count alone: the registry holds one
// while the graph is registered, each request another (see Acquire).
//
// Matching runs on an immutable snapshot obtained through Acquire together
// with its version (the consistent pair plan-cache keys are built from).
type Registry struct {
	mu     sync.RWMutex
	graphs map[string]*graphEntry
	// onPurge fires (outside all locks) when a graph's cached plans must
	// go: the graph was replaced, or its mapping was detached (a fold off
	// the mapping, Close), so nothing keeps referring into the old state.
	onPurge func(name string)
	// dur, when set (EnableDurability), gives every registered graph a
	// checkpoint + WAL under dur.Dir and routes Add/LoadFile through
	// recovery onto the heap.
	dur *DurabilityConfig

	// closed (guarded by mu) fails new Acquires once Close begins.
	closed bool

	resident  atomic.Int64  // file bytes of the mappings registered entries hold
	gens      atomic.Uint64 // last generation drawn by an install
	mapVerify atomic.Bool   // verify payload checksums when LoadFile maps

	// beforePin, when set by a test, runs in hold before it pins a mapped
	// entry.
	beforePin func()
}

// graphEntry pairs a graph with its generation, its mapping, a
// per-version cache of its Table II statistics (ComputeStats reads array
// lengths and counters, never an array, so Info faults no payload page of
// a mapped graph; the cache spares /graphs polling even that while the
// graph is idle), and — with durability on — its WAL attachment and
// degraded-mode state.
type graphEntry struct {
	// live is the graph's buffer and gen the generation the registry drew
	// for the entry at install; both are set before install publishes the
	// entry and never change, so no two entries ever share a generation.
	live *hgmatch.DeltaBuffer
	gen  uint64

	// file marks an entry registered off an HGB3 file's mapping. mapped
	// is live's base until a fold moves it onto the heap or a retirement
	// releases it. tierMu serialises those detaches with the pins that
	// retain the mapping for a reader. retired is set once install or
	// Close tore the entry down: hold never pins it again.
	file    bool
	tierMu  sync.Mutex
	retired bool
	mapped  atomic.Pointer[hgio.MappedGraph]

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
// publication counter: replacing a graph under a live name or publishing
// new online writes moves every plan-cache key forward.
func (e *graphEntry) version(h *hgmatch.Hypergraph) uint64 {
	return e.gen<<32 | h.DeltaVersion()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{graphs: make(map[string]*graphEntry)}
}

// SetMapVerify makes LoadFile verify each HGB3 file's payload checksum
// (reading the whole file once) before it registers the mapping.
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
	r.install(name, &graphEntry{live: live})
	return nil
}

// LoadFile registers the graph stored at path under name; the file picks
// the tier. With durability enabled the graph is recovered onto the heap
// (the file is only read when the graph has no checkpoint yet — a
// recovered graph's state is its checkpoint + WAL, not the possibly stale
// seed file). Otherwise an HGB3 file is mapped here, and a file it fails
// to map (truncated, corrupt) registers nothing; any other format is read
// onto the heap.
func (r *Registry) LoadFile(name, path string) error {
	r.mu.RLock()
	dur := r.dur
	r.mu.RUnlock()
	if dur != nil {
		return r.addDurable(name, *dur, func() (*hgmatch.Hypergraph, error) { return readGraph(name, path) })
	}
	m, err := hgio.MapFile(path, hgio.MapOptions{Verify: r.mapVerify.Load()})
	if errors.Is(err, hgio.ErrNotV3) {
		h, err := readGraph(name, path)
		if err != nil {
			return err
		}
		return r.Add(name, h)
	}
	if err != nil {
		return fmt.Errorf("server: registering graph %q: %w", name, err)
	}
	live, err := hgmatch.NewDeltaBuffer(m.Graph())
	if err != nil {
		m.Release()
		return fmt.Errorf("server: registering graph %q: %w", name, err)
	}
	e := &graphEntry{live: live, file: true}
	e.mapped.Store(m)
	r.resident.Add(int64(m.FileBytes()))
	r.install(name, e)
	return nil
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
// previous registration is retired once the new entry is visible: its
// mapping (if any) is released and its plans purged.
func (r *Registry) install(name string, e *graphEntry) {
	e.gen = r.gens.Add(1)
	r.mu.Lock()
	prev := r.graphs[name]
	r.graphs[name] = e
	r.mu.Unlock()
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
// when it stops using the snapshot: for a mapped graph it drops the
// request's reference to the mapping. A graph registered on the heap
// takes no tier mutex and allocates nothing. Once Close has begun,
// Acquire fails with errRegistryClosed. It reads the latest published
// snapshot and never publishes: a batch becomes visible at its writer's
// publication, after its journal append.
func (r *Registry) Acquire(name string) (*hgmatch.Hypergraph, uint64, func(), error) {
	e, live, release, err := r.lookup(name)
	if err != nil {
		return nil, 0, nil, err
	}
	h := live.Published()
	return h, e.version(h), release, nil
}

// lookup finds the entry registered under name and holds its buffer, as
// Acquire and Info do for a read and the ingest and compact handlers for
// a write: it fails with errRegistryClosed once Close has begun and with
// errGraphNotFound for an unknown name, and an entry replaced since the
// lookup is retried on its replacement.
func (r *Registry) lookup(name string) (*graphEntry, *hgmatch.DeltaBuffer, func(), error) {
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
		live, release, err := r.hold(e)
		if !errors.Is(err, errEntryRetired) { // else replaced or closed since the lookup
			return e, live, release, err
		}
	}
}

// errEntryRetired tells lookup that the entry it loaded was replaced (or
// closed) before hold could pin it: the retry finds which.
var errEntryRetired = errors.New("server: graph entry retired")

// hold returns a given entry's buffer and its release, as lookup does;
// the background fold calls it to fold the entry it was scheduled for,
// never a replacement. While a file entry's base is its mapping, the
// caller gets a reference to it; tierMu makes the Retain safe, since
// detach swaps the mapping out under the same mutex.
func (r *Registry) hold(e *graphEntry) (*hgmatch.DeltaBuffer, func(), error) {
	if !e.file {
		return e.live, noRelease, nil
	}
	if r.beforePin != nil {
		r.beforePin()
	}
	e.tierMu.Lock()
	defer e.tierMu.Unlock()
	if e.retired {
		return nil, nil, errEntryRetired
	}
	m := e.mapped.Load()
	if m == nil {
		return e.live, noRelease, nil // a fold moved the base onto the heap
	}
	m.Retain()
	return e.live, func() { m.Release() }, nil
}

// detachCause says why a mapping leaves its entry.
type detachCause uint8

const (
	detachRetire detachCause = iota // install replaced the entry, or Close tore it down
	detachFold                      // a compaction moved the graph's base onto the heap
)

// detach is the one way a mapping leaves an entry: the swap under tierMu
// stops new references, the bytes leave the resident count, the plan
// purge stops cached plans from reaching into the mapping, and the
// registry drops its reference. It purges even when nothing was mapped (a
// replaced heap graph's plans go too). A fold keeps the buffer, whose
// base is on the heap now.
func (r *Registry) detach(name string, e *graphEntry, cause detachCause) {
	e.tierMu.Lock()
	e.retired = e.retired || cause == detachRetire
	m := e.mapped.Swap(nil)
	e.tierMu.Unlock()
	if m != nil {
		r.resident.Add(-int64(m.FileBytes()))
	}
	r.mu.RLock()
	purge := r.onPurge
	r.mu.RUnlock()
	if purge != nil {
		purge(name)
	}
	if m != nil {
		m.Release()
	}
}

// Info returns the Table II statistics of the named graph, cached per
// (generation, delta version), decorated with its residency tier. It
// holds the graph as Acquire does, so a mapped graph's mapping stays
// attached while its statistics are read, and fails once Close has
// begun.
func (r *Registry) Info(name string) (hgio.GraphInfo, bool) {
	e, live, release, err := r.lookup(name)
	if err != nil {
		return hgio.GraphInfo{}, false
	}
	defer release()
	info := e.stats(name, live.Published())
	// Non-nil only while the reference hold took is still the base's.
	if m := e.mapped.Load(); m != nil {
		info.Tier = "mapped"
		info.ResidentBytes = int64(m.HeapOverheadBytes())
		info.FileBytes = int64(m.FileBytes())
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
	Resident      int   // graphs served off their mapping
	ResidentBytes int64 // the file bytes of those mappings
}

// TierStats returns a snapshot of the residency counters.
func (r *Registry) TierStats() TierStats {
	ts := TierStats{ResidentBytes: r.resident.Load()}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, e := range r.graphs {
		if e.mapped.Load() != nil {
			ts.Resident++
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
