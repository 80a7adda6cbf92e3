package server

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"hgmatch"
	"hgmatch/internal/hgtest"
)

func testPlan(t *testing.T) *hgmatch.Plan {
	t.Helper()
	p, err := hgmatch.Compile(hgtest.Fig1Query(), hgtest.Fig1Data())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPlanCacheLRU(t *testing.T) {
	c := NewPlanCache(2)
	p := testPlan(t)
	c.Put("a", p)
	c.Put("b", p)
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a should be cached")
	}
	c.Put("c", p) // evicts b: a was touched more recently
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted as least recently used")
	}
	for _, key := range []string{"a", "c"} {
		if _, ok := c.Get(key); !ok {
			t.Fatalf("%s should have survived eviction", key)
		}
	}
	if size, hits, misses := c.Stats(); size != 2 || hits != 3 || misses != 1 {
		t.Fatalf("stats = (size %d, hits %d, misses %d), want (2, 3, 1)", size, hits, misses)
	}
}

func TestPlanCacheDisabled(t *testing.T) {
	c := NewPlanCache(-1)
	c.Put("a", testPlan(t))
	if _, ok := c.Get("a"); ok {
		t.Fatal("disabled cache must never hit")
	}
	if size, _, _ := c.Stats(); size != 0 {
		t.Fatal("disabled cache must stay empty")
	}
}

func TestPlanCacheReset(t *testing.T) {
	c := NewPlanCache(4)
	c.Put("a", testPlan(t))
	c.Get("a")
	c.Get("missing")
	c.Reset()
	if size, hits, misses := c.Stats(); size != 0 || hits != 0 || misses != 0 {
		t.Fatalf("stats after reset = (%d, %d, %d), want zeros", size, hits, misses)
	}
}

func TestKeyUnambiguous(t *testing.T) {
	// The length prefix must keep (graph, querykey) splits apart even when
	// their concatenations collide.
	if Key("ab", 1, "c") == Key("a", 1, "bc") {
		t.Fatal("key collision across graph-name boundary")
	}
	if Key("g", 1, "q") != Key("g", 1, "q") {
		t.Fatal("key not deterministic")
	}
	if Key("g", 1, "q") == Key("g", 2, "q") {
		t.Fatal("graph version must separate cache keys")
	}
}

func TestPlanCacheSingleFlight(t *testing.T) {
	c := NewPlanCache(8)
	p := testPlan(t)
	var compiles int32
	gate := make(chan struct{})
	const callers = 16
	results := make(chan *hgmatch.Plan, callers)
	for i := 0; i < callers; i++ {
		go func() {
			got, _, err := c.GetOrCompute("k", func() (*hgmatch.Plan, error) {
				atomic.AddInt32(&compiles, 1)
				<-gate // hold the flight open until all callers have joined
				return p, nil
			})
			if err != nil {
				t.Error(err)
			}
			results <- got
		}()
	}
	// Let every goroutine reach Get-or-join before releasing the compile.
	time.Sleep(50 * time.Millisecond)
	close(gate)
	for i := 0; i < callers; i++ {
		if got := <-results; got != p {
			t.Fatal("joined caller received a different plan")
		}
	}
	if n := atomic.LoadInt32(&compiles); n != 1 {
		t.Fatalf("compile ran %d times for %d concurrent callers, want 1", n, callers)
	}
	if _, hit, _ := c.GetOrCompute("k", func() (*hgmatch.Plan, error) {
		t.Fatal("cached key must not recompile")
		return nil, nil
	}); !hit {
		t.Fatal("plan was not cached after the flight")
	}
}

// TestPlanCachePanicRecovery guards the flight cleanup: a panicking
// compile must surface as an error and leave the key retryable, not hang
// every future caller on a never-closed flight.
func TestPlanCachePanicRecovery(t *testing.T) {
	c := NewPlanCache(8)
	_, _, err := c.GetOrCompute("k", func() (*hgmatch.Plan, error) {
		panic("boom")
	})
	if err == nil {
		t.Fatal("panicking compile must return an error")
	}
	p := testPlan(t)
	retry := make(chan error, 1)
	go func() {
		got, _, err := c.GetOrCompute("k", func() (*hgmatch.Plan, error) { return p, nil })
		if err == nil && got != p {
			err = fmt.Errorf("wrong plan after retry")
		}
		retry <- err
	}()
	select {
	case err := <-retry:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("retry after panic hung — flight was not cleaned up")
	}
}

// TestPlanCacheMidFlightPurge guards the dropEpoch check: a compile that
// was in flight when DropPrefix ran must not re-insert its (potentially
// replaced-graph) plan into the cache.
func TestPlanCacheMidFlightPurge(t *testing.T) {
	c := NewPlanCache(8)
	p := testPlan(t)
	gate := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		got, _, err := c.GetOrCompute("stale", func() (*hgmatch.Plan, error) {
			<-gate
			return p, nil
		})
		if err != nil || got != p {
			t.Errorf("flight result = (%v, %v)", got, err)
		}
	}()
	time.Sleep(20 * time.Millisecond) // let the flight start
	c.DropPrefix("st")                // purge while the compile is running
	close(gate)
	<-done
	if _, ok := c.Get("stale"); ok {
		t.Fatal("mid-flight purge: completed compile re-inserted its plan")
	}
}

func TestPlanCacheDropPrefix(t *testing.T) {
	c := NewPlanCache(8)
	p := testPlan(t)
	c.Put(Key("g1", 1, "qa"), p)
	c.Put(Key("g1", 2, "qb"), p)
	c.Put(Key("g2", 1, "qa"), p)
	c.DropPrefix(GraphPrefix("g1"))
	if _, ok := c.Get(Key("g1", 1, "qa")); ok {
		t.Fatal("g1 v1 plan survived DropPrefix")
	}
	if _, ok := c.Get(Key("g1", 2, "qb")); ok {
		t.Fatal("g1 v2 plan survived DropPrefix")
	}
	if _, ok := c.Get(Key("g2", 1, "qa")); !ok {
		t.Fatal("g2 plan was wrongly dropped")
	}
}

func TestPlanCacheConcurrent(t *testing.T) {
	c := NewPlanCache(8)
	p := testPlan(t)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", (g+i)%16)
				if i%3 == 0 {
					c.Put(key, p)
				} else {
					c.Get(key)
				}
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if size, _, _ := c.Stats(); size > 8 {
		t.Fatalf("cache overflowed capacity: %d", size)
	}
}
