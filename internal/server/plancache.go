package server

import (
	"container/list"
	"fmt"
	"strings"
	"sync"

	"hgmatch"
)

// PlanCache is a thread-safe LRU cache of compiled execution plans keyed by
// (data graph, canonical query key). Plans are immutable and safe to share
// across goroutines (see hgmatch.Plan), so concurrent requests for the same
// query reuse one plan with no copying.
//
// Compilation (matching-order search plus per-step candidate/validation
// tables) is the fixed per-request cost that dominates small-query latency;
// a service fielding repeated queries — the workload the paper's "match
// engine behind an application" framing implies — should pay it once.
type PlanCache struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List // front = most recently used
	items   map[string]*list.Element
	flights map[string]*flight

	// dropEpoch increments on every DropPrefix/Reset; a flight that
	// started before a purge must not re-insert its plan afterwards (it
	// could pin a replaced graph in memory).
	dropEpoch uint64

	hits   uint64
	misses uint64
}

type cacheEntry struct {
	key  string
	plan *hgmatch.Plan
}

// flight is one in-progress compilation; concurrent requests for the same
// key join it instead of compiling again (single-flight).
type flight struct {
	done chan struct{}
	plan *hgmatch.Plan
	err  error
}

// NewPlanCache returns an LRU plan cache holding up to capacity plans.
// Capacity <= 0 disables caching: Get always misses and Put is a no-op
// (GetOrCompute still collapses concurrent compiles of the same key).
func NewPlanCache(capacity int) *PlanCache {
	return &PlanCache{
		cap:     capacity,
		ll:      list.New(),
		items:   make(map[string]*list.Element),
		flights: make(map[string]*flight),
	}
}

// Key builds the cache key for a query against one version of a named
// data graph. The graph name is length-prefixed so (name, querykey) pairs
// cannot collide across graphs whatever bytes the names contain; the
// version keeps plans compiled against a replaced graph from ever being
// served for its successor (see Registry.GetVersioned).
func Key(graph string, version uint64, queryKey string) string {
	b := make([]byte, 0, 12+len(graph)+len(queryKey))
	b = append(b, GraphPrefix(graph)...)
	for shift := 56; shift >= 0; shift -= 8 {
		b = append(b, byte(version>>shift))
	}
	b = append(b, queryKey...)
	return string(b)
}

// GraphPrefix returns the prefix shared by every cache key of the named
// graph (any version); DropPrefix with it purges the graph's plans.
func GraphPrefix(graph string) string {
	b := make([]byte, 0, 4+len(graph))
	b = append(b, byte(len(graph)>>24), byte(len(graph)>>16), byte(len(graph)>>8), byte(len(graph)))
	b = append(b, graph...)
	return string(b)
}

// Get returns the cached plan for key, marking it most recently used.
func (c *PlanCache) Get(key string) (*hgmatch.Plan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).plan, true
}

// Put inserts a plan, evicting the least recently used entry when full.
func (c *PlanCache) Put(key string, plan *hgmatch.Plan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.putLocked(key, plan)
}

func (c *PlanCache) putLocked(key string, plan *hgmatch.Plan) {
	if c.cap <= 0 {
		return
	}
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry).plan = plan
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, plan: plan})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
	}
}

// GetOrCompute returns the cached plan for key, or runs compile and caches
// its result. Concurrent callers with the same key share ONE compile run
// (single-flight): a burst of an uncached popular query costs one
// compilation, not one per request. The bool reports a cache hit; joiners
// of an in-progress flight report false, since the plan was not yet
// cached when they arrived.
func (c *PlanCache) GetOrCompute(key string, compile func() (*hgmatch.Plan, error)) (*hgmatch.Plan, bool, error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.hits++
		c.ll.MoveToFront(el)
		p := el.Value.(*cacheEntry).plan
		c.mu.Unlock()
		return p, true, nil
	}
	c.misses++
	if f, ok := c.flights[key]; ok {
		c.mu.Unlock()
		<-f.done
		return f.plan, false, f.err
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	epoch := c.dropEpoch
	c.mu.Unlock()

	func() {
		// A panicking compile must not strand the flight: joiners block
		// on done forever and the key can never be retried. Convert the
		// panic to an error every waiter receives.
		defer func() {
			if r := recover(); r != nil {
				f.plan, f.err = nil, fmt.Errorf("server: plan compilation panicked: %v", r)
			}
		}()
		f.plan, f.err = compile()
	}()
	close(f.done)

	c.mu.Lock()
	delete(c.flights, key)
	// Skip caching when a purge ran mid-flight: the key may belong to a
	// just-replaced graph, and inserting it would undo DropPrefix's work.
	// (Conservative — a purge of an unrelated graph also skips — but
	// replacement is rare and the cost is one extra future compile.)
	if f.err == nil && c.dropEpoch == epoch {
		c.putLocked(key, f.plan)
	}
	c.mu.Unlock()
	return f.plan, false, f.err
}

// DropPrefix removes every cached plan whose key starts with prefix (used
// with GraphPrefix when a graph is replaced, so the old graph's plans —
// which pin the old hypergraph in memory — become collectable).
func (c *PlanCache) DropPrefix(prefix string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dropEpoch++
	for key, el := range c.items {
		if strings.HasPrefix(key, prefix) {
			c.ll.Remove(el)
			delete(c.items, key)
		}
	}
}

// Reset drops every cached plan and zeroes the hit/miss counters.
func (c *PlanCache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dropEpoch++
	c.ll.Init()
	c.items = make(map[string]*list.Element)
	c.hits, c.misses = 0, 0
}

// Stats returns the cache's current size and lifetime hit/miss counts.
func (c *PlanCache) Stats() (size int, hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len(), c.hits, c.misses
}
