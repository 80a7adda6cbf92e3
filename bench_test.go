// Benchmarks regenerating the paper's tables and figures (one benchmark
// per artifact) plus ablation benches for the design choices called out in
// docs/ARCHITECTURE.md ("Planning and matching", "Execution engine").
// `go test -bench=. -benchmem` runs the whole evaluation at a small dataset
// scale; `cmd/hgbench` prints the full paper-style rows.
//
// Absolute numbers differ from the paper (synthetic scaled datasets, one
// machine); the *shapes* — who wins, the candidate-filtering funnel, the
// memory gap between schedulers — are the reproduction targets (README,
// "Performance notes").
package hgmatch_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"hgmatch"
	"hgmatch/internal/baseline"
	"hgmatch/internal/bipartite"
	"hgmatch/internal/core"
	"hgmatch/internal/datagen"
	"hgmatch/internal/engine"
	"hgmatch/internal/experiments"
	"hgmatch/internal/hgio"
	"hgmatch/internal/hypergraph"
	"hgmatch/internal/querygen"
	"hgmatch/internal/setops"
	"hgmatch/internal/shard"
)

// benchCfg is the shared small-scale configuration for figure benches.
func benchCfg() experiments.Config {
	return experiments.Config{
		Scale:             0.005,
		Seed:              1,
		QueriesPerSetting: 5,
		Timeout:           500 * time.Millisecond,
		Workers:           4,
		MaxEmbeddings:     500_000,
		Settings:          []string{"q2", "q3"},
	}
}

var (
	suiteOnce sync.Once
	suite     *experiments.Suite
)

func benchSuite() *experiments.Suite {
	suiteOnce.Do(func() { suite = experiments.NewSuite(benchCfg()) })
	return suite
}

// workload returns a cached medium dataset and one q3 query for kernel
// benches.
var (
	wlOnce  sync.Once
	wlData  *hypergraph.Hypergraph
	wlQuery *hypergraph.Hypergraph
)

func workload() (*hypergraph.Hypergraph, *hypergraph.Hypergraph) {
	wlOnce.Do(func() {
		// SB (senate bills) has two labels and mid-size arities, so q3
		// queries produce large result sets — enough work to exercise the
		// scheduler, stealing and memory behaviour.
		p, _ := datagen.ProfileByName("SB")
		wlData = datagen.Generate(p.Scaled(0.05), 3)
		s, _ := querygen.SettingByName("q3")
		rng := rand.New(rand.NewSource(5))
		var best *hypergraph.Hypergraph
		var bestN uint64
		for i := 0; i < 8; i++ {
			q := querygen.Sample(rng, wlData, s)
			if q == nil {
				continue
			}
			pl, err := core.NewPlan(q, wlData)
			if err != nil {
				continue
			}
			n := engine.Run(pl, engine.Options{Workers: 2, Limit: 300_000}).Embeddings
			if best == nil || n > bestN {
				best, bestN = q, n
			}
		}
		wlQuery = best
	})
	return wlData, wlQuery
}

// kernelWorkload returns a larger SB dataset and its best q3 query
// (~100k embeddings) for the steady-state enumeration kernel benchmarks:
// big enough that per-run setup (scratch areas, worker stats, initial
// block arenas) is noise against per-embedding costs.
var (
	kwOnce  sync.Once
	kwData  *hypergraph.Hypergraph
	kwQuery *hypergraph.Hypergraph
)

func kernelWorkload() (*hypergraph.Hypergraph, *hypergraph.Hypergraph) {
	kwOnce.Do(func() {
		p, _ := datagen.ProfileByName("SB")
		kwData = datagen.Generate(p.Scaled(0.4), 3)
		s, _ := querygen.SettingByName("q3")
		rng := rand.New(rand.NewSource(5))
		var best *hypergraph.Hypergraph
		var bestN uint64
		for i := 0; i < 8; i++ {
			q := querygen.Sample(rng, kwData, s)
			if q == nil {
				continue
			}
			pl, err := core.NewPlan(q, kwData)
			if err != nil {
				continue
			}
			n := engine.Run(pl, engine.Options{Workers: 4, Limit: 2_000_000}).Embeddings
			if best == nil || n > bestN {
				best, bestN = q, n
			}
		}
		kwQuery = best
	})
	return kwData, kwQuery
}

// BenchmarkKernelQ3 measures the steady-state enumeration kernel on the q3
// workload: one full Count per op, with an explicit allocs-per-embedding
// metric. The morsel scheduler's acceptance target is ~0 allocs/emb — every
// partial embedding lives in a recycled block, so the only allocations left
// are per-run setup amortised over the ~100k results.
func BenchmarkKernelQ3(b *testing.B) {
	h, q := kernelWorkload()
	p, err := core.NewPlan(q, h)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		workers := workers
		b.Run(bName("t", workers), func(b *testing.B) {
			var emb uint64
			b.ReportAllocs()
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				emb = engine.Run(p, engine.Options{Workers: workers}).Embeddings
			}
			b.StopTimer()
			runtime.ReadMemStats(&ms1)
			if emb == 0 {
				b.Fatal("kernel workload found nothing")
			}
			allocs := float64(ms1.Mallocs-ms0.Mallocs) / float64(b.N)
			b.ReportMetric(allocs/float64(emb), "allocs/emb")
			b.ReportMetric(float64(emb), "embeddings")
		})
	}
}

// BenchmarkKernelQ4Count measures the validation kernel on the shape hgload's
// count_heavy workload serves: the full SB graph and one of that workload's
// fixed q4 queries (q4#25, 1.1·10⁶ embeddings out of 1.6·10⁶ candidates),
// counted with no callback — so the last step runs the count-only leaf — on
// one worker and on GOMAXPROCS workers. ns/candidate is the kernel's unit
// cost (hgload's core.expand_ns_per_candidate, here with the engine around
// it); allocs/emb must stay ~0.
func BenchmarkKernelQ4Count(b *testing.B) {
	prof, _ := datagen.ProfileByName("SB")
	h := datagen.Generate(prof, 3)
	s, _ := querygen.SettingByName("q4")
	// hgload's pool: the 64 queries sampled at seed 11+|E(q)|, picked by index.
	q := querygen.SampleMany(rand.New(rand.NewSource(11+int64(s.NumEdges))), h, s, 64)[25]
	p, err := core.NewPlan(q, h)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(bName("t", workers), func(b *testing.B) {
			var res engine.Result
			b.ReportAllocs()
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res = engine.Run(p, engine.Options{Workers: workers})
			}
			b.StopTimer()
			runtime.ReadMemStats(&ms1)
			if res.Embeddings == 0 {
				b.Fatal("kernel workload found nothing")
			}
			allocs := float64(ms1.Mallocs-ms0.Mallocs) / float64(b.N)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(res.Counters.Candidates), "ns/candidate")
			b.ReportMetric(allocs/float64(res.Embeddings), "allocs/emb")
			b.ReportMetric(float64(res.Embeddings), "embeddings")
		})
	}
}

// BenchmarkSharedPoolQ3 measures the shared morsel pool (the hgserve
// serving shape since PR 6) on the q3 kernel workload. "solo" is one
// request at a time on a pool of 4 workers — comparable against
// BenchmarkKernelQ3/t=4's per-request engine to bound the pool's overhead.
// "shared8" runs 8 concurrent requests on that same 4-worker pool under
// weighted fair scheduling; "perreq8" runs the same 8 requests the
// pre-pool way, each spawning its own 4-worker engine (8x oversubscribed
// goroutines contending for the same cores). One op completes all 8
// requests, so the shared8-vs-perreq8 ns/op ratio is the aggregate
// throughput ratio; emb/s reports it directly.
func BenchmarkSharedPoolQ3(b *testing.B) {
	h, q := kernelWorkload()
	p, err := core.NewPlan(q, h)
	if err != nil {
		b.Fatal(err)
	}
	const workers = 4
	const clients = 8
	run8 := func(b *testing.B, one func() uint64) {
		var total uint64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			embs := make([]uint64, clients)
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					embs[c] = one()
				}(c)
			}
			wg.Wait()
			for _, e := range embs {
				total += e
			}
		}
		b.StopTimer()
		if total == 0 {
			b.Fatal("kernel workload found nothing")
		}
		b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "emb/s")
		b.ReportMetric(float64(total)/float64(b.N)/clients, "embeddings")
	}
	b.Run("solo", func(b *testing.B) {
		pool := engine.NewPool(workers)
		defer pool.Close()
		var emb uint64
		b.ReportAllocs()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			emb = pool.Submit(p, engine.Options{Workers: workers}).Embeddings
		}
		b.StopTimer()
		runtime.ReadMemStats(&ms1)
		if emb == 0 {
			b.Fatal("kernel workload found nothing")
		}
		allocs := float64(ms1.Mallocs-ms0.Mallocs) / float64(b.N)
		b.ReportMetric(allocs/float64(emb), "allocs/emb")
		b.ReportMetric(float64(emb), "embeddings")
	})
	b.Run("shared8", func(b *testing.B) {
		pool := engine.NewPool(workers)
		defer pool.Close()
		run8(b, func() uint64 {
			return pool.Submit(p, engine.Options{Workers: workers}).Embeddings
		})
	})
	b.Run("perreq8", func(b *testing.B) {
		run8(b, func() uint64 {
			return engine.Run(p, engine.Options{Workers: workers}).Embeddings
		})
	})
}

// BenchmarkOnlineIngest measures the online-update subsystem on the q3
// workload graph. "ingest100" is the amortised unit hgserve pays per bulk
// ingest request: a 100-edge insert batch plus one snapshot publication
// (copy-on-write partition merge, O(|V|+|E|) header copies). "compact"
// folds a ~400-edge delta into a fresh fully-indexed base — the background
// job the compaction threshold schedules. "match-on-delta" reruns the q3
// kernel against a delta-carrying snapshot, pinning the read-side price of
// merge-on-read postings.
// BenchmarkShardedScatterQ3 measures the cost of scatter-gather serving
// (cluster mode stage 1, internal/shard) against a solo pool submit of the
// same q3 plan: the coordinator splits the SCAN into units, fans them out
// as sub-runs (plus one empty sub-run per non-owning shard) and sums the
// streamed counts. The delta over solo is the scatter overhead an operator
// buys with -shards before any cross-process scaling exists.
func BenchmarkShardedScatterQ3(b *testing.B) {
	h, q := kernelWorkload()
	p, err := core.NewPlan(q, h)
	if err != nil {
		b.Fatal(err)
	}
	const workers = 4
	b.Run("solo", func(b *testing.B) {
		pool := engine.NewPool(workers)
		defer pool.Close()
		var emb uint64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			emb = pool.Submit(p, engine.Options{Workers: workers}).Embeddings
		}
		b.StopTimer()
		if emb == 0 {
			b.Fatal("kernel workload found nothing")
		}
		b.ReportMetric(float64(emb), "embeddings")
	})
	for _, n := range []int{1, 2, 4} {
		n := n
		b.Run(bName("shards", n), func(b *testing.B) {
			g, err := shard.New(h, n)
			if err != nil {
				b.Fatal(err)
			}
			pool := engine.NewPool(workers)
			defer pool.Close()
			var emb uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				emb = shard.Scatter(pool, g, p, engine.Options{Workers: workers}).Embeddings
			}
			b.StopTimer()
			if emb == 0 {
				b.Fatal("scattered workload found nothing")
			}
			b.ReportMetric(float64(emb), "embeddings")
		})
	}
}

func BenchmarkOnlineIngest(b *testing.B) {
	h, q := kernelWorkload()
	const batch = 100
	rng := rand.New(rand.NewSource(99))
	nv := uint32(h.NumVertices())
	edges := make([][]uint32, batch*4)
	for i := range edges {
		edges[i] = []uint32{rng.Uint32() % nv, rng.Uint32() % nv, rng.Uint32() % nv}
	}
	b.Run("ingest100", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d, err := hypergraph.NewDeltaBuffer(h)
			if err != nil {
				b.Fatal(err)
			}
			for _, vs := range edges[:batch] {
				if _, _, err := d.Insert(vs...); err != nil {
					b.Fatal(err)
				}
			}
			if s := d.Snapshot(); !s.HasDelta() {
				b.Fatal("no delta published")
			}
		}
	})
	b.Run("compact", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			d, err := hypergraph.NewDeltaBuffer(h)
			if err != nil {
				b.Fatal(err)
			}
			for _, vs := range edges {
				d.Insert(vs...)
			}
			d.Snapshot()
			b.StartTimer()
			if _, err := d.Compact(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("match-on-delta", func(b *testing.B) {
		d, err := hypergraph.NewDeltaBuffer(h)
		if err != nil {
			b.Fatal(err)
		}
		for _, vs := range edges {
			d.Insert(vs...)
		}
		s := d.Snapshot()
		p, err := core.NewPlan(q, s)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		var emb uint64
		for i := 0; i < b.N; i++ {
			emb = engine.Run(p, engine.Options{Workers: 4}).Embeddings
		}
		if emb == 0 {
			b.Fatal("kernel workload found nothing on the delta snapshot")
		}
		b.ReportMetric(float64(emb), "embeddings")
	})
}

// BenchmarkCompile measures cold plan compilation: matching-order search
// (Algorithm 3) plus per-step table compilation, the path every plan-cache
// miss pays (the ~30x cold-vs-cache gap measured in PR 1 is exactly this
// cost). The interned-signature index targets this number: signature
// lookups are ID probes instead of per-call key-byte allocations.
func BenchmarkCompile(b *testing.B) {
	h, q := kernelWorkload()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := core.NewPlan(q, h)
		if err != nil {
			b.Fatal(err)
		}
		if p.Empty {
			b.Fatal("workload plan is empty")
		}
	}
}

// BenchmarkLoadFile measures loading a binary data graph from disk: v1
// replays the full offline build (sort, dedup hashing, partitioning,
// posting-list inversion), v2 assembles the persisted CSR index from flat
// arrays with linear validation — the hgserve startup and graph-reload
// path.
func BenchmarkLoadFile(b *testing.B) {
	h, _ := kernelWorkload()
	dir := b.TempDir()
	v1 := filepath.Join(dir, "wl.v1.hgb")
	v2 := filepath.Join(dir, "wl.v2.hgb")
	f, err := os.Create(v1)
	if err != nil {
		b.Fatal(err)
	}
	if err := hgio.WriteBinaryV1(f, h); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	if err := hgio.WriteBinaryFile(v2, h); err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name, path string
	}{{"V1Rebuild", v1}, {"V2Assembled", v2}} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g, err := hgmatch.LoadFile(tc.path)
				if err != nil {
					b.Fatal(err)
				}
				if g.NumEdges() != h.NumEdges() || g.NumPartitions() != h.NumPartitions() {
					b.Fatal("loaded graph differs from source")
				}
			}
		})
	}
}

// BenchmarkMappedOpen measures the binary-v3 zero-copy open path against
// heap loading on the same workload graph. MmapAttach is the tiered
// registry's activation cost (validate directory + structural tables,
// point the CSR views into the mapping — no payload copy); HeapLoadV3 is
// the same file decoded onto the heap; ColdFirstMatch adds a plan compile
// and a full q3 run on a freshly attached mapping, so it includes the
// page faults the attach deferred. SteadyStateHeap reports the live heap
// bytes a mapped graph costs while idle versus its heap twin — the number
// -resident-bytes budgets against.
func BenchmarkMappedOpen(b *testing.B) {
	h, q := kernelWorkload()
	v3 := filepath.Join(b.TempDir(), "wl.v3.hgb")
	if err := hgmatch.SaveBinaryV3File(v3, h); err != nil {
		b.Fatal(err)
	}
	b.Run("MmapAttach", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m, err := hgmatch.MapFile(v3, hgmatch.MapOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if m.Graph().NumEdges() != h.NumEdges() {
				b.Fatal("mapped graph differs from source")
			}
			// Release per iteration: thousands of concurrent mappings would
			// exhaust vm.max_map_count and measure the wrong thing.
			if err := m.Release(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("HeapLoadV3", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g, err := hgmatch.LoadFile(v3)
			if err != nil {
				b.Fatal(err)
			}
			if g.NumEdges() != h.NumEdges() {
				b.Fatal("loaded graph differs from source")
			}
		}
	})
	b.Run("ColdFirstMatch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m, err := hgmatch.MapFile(v3, hgmatch.MapOptions{})
			if err != nil {
				b.Fatal(err)
			}
			p, err := core.NewPlan(q, m.Graph())
			if err != nil {
				b.Fatal(err)
			}
			if engine.Run(p, engine.Options{Workers: 4}).Embeddings == 0 {
				b.Fatal("cold first match found nothing")
			}
			if err := m.Release(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("SteadyStateHeap", func(b *testing.B) {
		liveBytes := func(open func() (any, func(), error)) uint64 {
			var ms0, ms1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&ms0)
			obj, done, err := open()
			if err != nil {
				b.Fatal(err)
			}
			runtime.GC()
			runtime.ReadMemStats(&ms1)
			runtime.KeepAlive(obj)
			done()
			if ms1.HeapAlloc <= ms0.HeapAlloc {
				return 0
			}
			return ms1.HeapAlloc - ms0.HeapAlloc
		}
		heapCost := liveBytes(func() (any, func(), error) {
			g, err := hgmatch.LoadFile(v3)
			return g, func() {}, err
		})
		mappedCost := liveBytes(func() (any, func(), error) {
			m, err := hgmatch.MapFile(v3, hgmatch.MapOptions{})
			if err != nil {
				return nil, nil, err
			}
			return m, func() { m.Release() }, nil
		})
		for i := 0; i < b.N; i++ {
			// The measurement above is per-run, not per-iteration; the loop
			// only satisfies the benchmark contract.
		}
		b.ReportMetric(float64(heapCost), "heap-B")
		b.ReportMetric(float64(mappedCost), "mapped-B")
		if mappedCost > 0 {
			b.ReportMetric(float64(heapCost)/float64(mappedCost), "heap/mapped")
		}
	})
}

// BenchmarkTable2DatasetStats regenerates Table II (dataset statistics,
// including index sizes) per iteration.
func BenchmarkTable2DatasetStats(b *testing.B) {
	s := benchSuite()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, _ := s.Table2()
		if len(rows) != 10 {
			b.Fatal("bad table2")
		}
	}
}

// BenchmarkFig6EmbeddingDistributions regenerates the embedding-count
// distributions of Fig. 6 on two representative datasets.
func BenchmarkFig6EmbeddingDistributions(b *testing.B) {
	cfg := benchCfg()
	cfg.Datasets = []string{"HC", "CH"}
	s := experiments.NewSuite(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, _ := s.Fig6()
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkFig7IndexBuild measures Exp-1: offline preprocessing (table
// partitioning + inverted hyperedge index construction).
func BenchmarkFig7IndexBuild(b *testing.B) {
	h, _ := workload()
	labels := append([]hypergraph.Label(nil), h.Labels()...)
	edges := make([][]uint32, h.NumEdges())
	for e := 0; e < h.NumEdges(); e++ {
		edges[e] = append([]uint32(nil), h.Edge(uint32(e))...)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rebuilt, err := hypergraph.FromEdges(labels, edges)
		if err != nil {
			b.Fatal(err)
		}
		if rebuilt.NumPartitions() == 0 {
			b.Fatal("no partitions")
		}
	}
}

// BenchmarkFig8SingleThread measures Exp-2: each method answering the same
// query single-threaded. The per-op gap between the HGMatch sub-bench and
// the others is the paper's Fig. 8 headline.
func BenchmarkFig8SingleThread(b *testing.B) {
	h, q := workload()
	limit := uint64(200_000)
	b.Run("HGMatch", func(b *testing.B) {
		p, err := core.NewPlan(q, h)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			engine.Run(p, engine.Options{Workers: 1, Limit: limit})
		}
	})
	for _, alg := range []baseline.Algorithm{baseline.CFLH, baseline.DAFH, baseline.CECIH} {
		alg := alg
		b.Run(alg.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				baseline.Match(q, h, baseline.Options{Algorithm: alg, Limit: limit, Timeout: 2 * time.Second})
			}
		})
	}
	b.Run("RapidMatch", func(b *testing.B) {
		qg, dg := bipartite.Convert(q), bipartite.Convert(h)
		for i := 0; i < b.N; i++ {
			bipartite.Match(q, qg, dg, bipartite.Options{Limit: limit, Timeout: 2 * time.Second})
		}
	})
}

// BenchmarkTable4CompletionRatio runs the full Fig. 8 / Table IV sweep
// (all methods × queries with timeouts) on one dataset.
func BenchmarkTable4CompletionRatio(b *testing.B) {
	cfg := benchCfg()
	cfg.Datasets = []string{"CH"}
	cfg.Settings = []string{"q2"}
	cfg.QueriesPerSetting = 3
	s := experiments.NewSuite(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cells, _, _ := s.Fig8()
		if len(cells) == 0 {
			b.Fatal("no cells")
		}
	}
}

// BenchmarkFig9CandidateFiltering measures Exp-3: the instrumented
// candidate funnel (Candidates -> Filtered -> Embeddings) per query run.
func BenchmarkFig9CandidateFiltering(b *testing.B) {
	h, q := workload()
	p, err := core.NewPlan(q, h)
	if err != nil {
		b.Fatal(err)
	}
	var last engine.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		last = engine.Run(p, engine.Options{Workers: 1, Limit: 500_000})
	}
	b.ReportMetric(float64(last.Counters.Candidates), "candidates")
	b.ReportMetric(float64(last.Counters.Filtered), "filtered")
	b.ReportMetric(float64(last.Embeddings), "embeddings")
}

// BenchmarkFig10Scalability measures Exp-4: the same plan under growing
// worker counts. On a single-core machine the wall clock stays flat; the
// reported steals/op and balance metrics still demonstrate scheduling
// behaviour (docs/ARCHITECTURE.md, "Execution").
func BenchmarkFig10Scalability(b *testing.B) {
	h, q := workload()
	p, err := core.NewPlan(q, h)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8, 16} {
		workers := workers
		b.Run(bName("t", workers), func(b *testing.B) {
			var steals uint64
			for i := 0; i < b.N; i++ {
				res := engine.Run(p, engine.Options{Workers: workers, Limit: 500_000})
				steals = 0
				for _, w := range res.Workers {
					steals += w.Steals
				}
			}
			b.ReportMetric(float64(steals), "steals/op")
		})
	}
}

// BenchmarkFig11Scheduling measures Exp-5: task scheduler vs BFS
// scheduling; the peak-bytes metric is the figure's y-axis. Caveat at this
// tiny scale (~70 results): block tasks are accounted at full arena
// capacity, so the task scheduler's peak sits on its granularity floor of
// a few blocks and can exceed BFS here — the bounded-vs-materialised gap
// the figure is about only opens up with workload size (see
// TestPeakBlockAccounting, which pins BFS >> blocks at 10k+ results).
func BenchmarkFig11Scheduling(b *testing.B) {
	h, q := workload()
	p, err := core.NewPlan(q, h)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name  string
		sched engine.Scheduler
	}{{"Task", engine.SchedulerTask}, {"BFS", engine.SchedulerBFS}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			var peak int64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := engine.Run(p, engine.Options{Workers: 4, Scheduler: mode.sched, Limit: 500_000})
				peak = res.PeakTaskBytes
			}
			b.ReportMetric(float64(peak), "peak-bytes")
		})
	}
}

// BenchmarkFig12WorkStealing measures Exp-6: dynamic stealing vs static
// assignment; the balance metric is max/mean per-worker busy time (1.0 =
// the figure's dashed "perfect balance" line).
func BenchmarkFig12WorkStealing(b *testing.B) {
	h, q := workload()
	p, err := core.NewPlan(q, h)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name    string
		nosteal bool
	}{{"HGMatch", false}, {"HGMatch-NOSTL", true}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			var bal float64
			for i := 0; i < b.N; i++ {
				res := engine.Run(p, engine.Options{Workers: 8, DisableStealing: mode.nosteal, Limit: 500_000})
				bal = busyBalance(res.Workers)
			}
			b.ReportMetric(bal, "max/mean-busy")
		})
	}
}

func busyBalance(ws []engine.WorkerStats) float64 {
	var sum, maxv float64
	n := 0
	for _, w := range ws {
		s := w.BusyTime.Seconds()
		sum += s
		if s > maxv {
			maxv = s
		}
		if w.Tasks > 0 {
			n++
		}
	}
	if n == 0 || sum == 0 {
		return 1
	}
	return maxv / (sum / float64(len(ws)))
}

// BenchmarkFig13CaseStudy measures the §VII-D knowledge-base queries.
func BenchmarkFig13CaseStudy(b *testing.B) {
	kb := datagen.GenerateKB(datagen.DefaultKBConfig(), 1)
	q1, q2 := kb.Query1(), kb.Query2()
	p1, err := core.NewPlan(q1, kb.Graph)
	if err != nil {
		b.Fatal(err)
	}
	p2, err := core.NewPlan(q2, kb.Graph)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var n1, n2 uint64
	for i := 0; i < b.N; i++ {
		n1 = engine.Run(p1, engine.Options{Workers: 2}).Embeddings
		n2 = engine.Run(p2, engine.Options{Workers: 2}).Embeddings
	}
	b.ReportMetric(float64(n1), "q1-answers")
	b.ReportMetric(float64(n2), "q2-answers")
}

// --- Ablation benches (design choices described in docs/ARCHITECTURE.md) ---

// BenchmarkAblationIntersect compares the merge and galloping intersection
// kernels on skewed posting lists (design choice: set-operation candidate
// generation, paper §V-B).
func BenchmarkAblationIntersect(b *testing.B) {
	small := make([]uint32, 32)
	big := make([]uint32, 200_000)
	for i := range small {
		small[i] = uint32(i * 6000)
	}
	for i := range big {
		big[i] = uint32(i)
	}
	b.Run("Gallop", func(b *testing.B) {
		var dst []uint32
		for i := 0; i < b.N; i++ {
			dst = setops.Intersect(dst[:0], small, big) // ratio triggers galloping
		}
	})
	b.Run("MergeOnly", func(b *testing.B) {
		// Force the linear merge by balancing lengths: replicate small to
		// defeat the ratio heuristic — measures the kernel HGMatch would
		// use without galloping.
		smallish := make([]uint32, len(big)/16)
		for i := range smallish {
			smallish[i] = uint32(i * 16)
		}
		var dst []uint32
		for i := 0; i < b.N; i++ {
			dst = setops.Intersect(dst[:0], smallish, big)
		}
	})
}

// BenchmarkAblationSetops isolates the posting-container choice behind the
// hybrid set kernels (PR 5): the same k-way union + intersection workload
// over posting lists of one table, in three configurations —
//
//	array:  the pre-hybrid kernels (pairwise union chain, pairwise
//	        smallest-first intersection), every input an array
//	hybrid: production shape — inputs above the setops.Dense threshold are
//	        bitmap containers, the rest arrays, through UnionK/IntersectK
//	bitmap: every input a bitmap container (the all-dense extreme)
//
// Sub-benchmarks sweep k (inputs per union) and per-list density over a
// 4096-member table, locating the crossover the adaptive threshold
// exploits: arrays win when lists are tiny, word-parallel wins as density
// grows — 64 elements per word op versus one per merge branch.
func BenchmarkAblationSetops(b *testing.B) {
	const nMembers = 4096
	members := make([]uint32, nMembers)
	for i := range members {
		members[i] = uint32(i*4 + i%3) // spread global IDs, strictly increasing
	}
	rank := setops.BuildRankTable(members)
	rng := rand.New(rand.NewSource(42))
	gen := func(density float64) []uint32 {
		var s []uint32
		for _, m := range members {
			if rng.Float64() < density {
				s = append(s, m)
			}
		}
		return s
	}
	for _, k := range []int{4, 16} {
		for _, density := range []float64{0.005, 0.05, 0.25} {
			lists := make([][]uint32, k)
			arrViews := make([]setops.View, k)
			hybViews := make([]setops.View, k)
			bmViews := make([]setops.View, k)
			for i := range lists {
				lists[i] = gen(density)
				arrViews[i] = setops.View{Arr: lists[i]}
				bm := setops.FromSorted(nil, nMembers)
				bm.AddRanked(lists[i], rank)
				bm.Count()
				bmViews[i] = setops.View{Bits: bm}
				if setops.Dense(len(lists[i]), nMembers) {
					hybViews[i] = bmViews[i]
				} else {
					hybViews[i] = arrViews[i]
				}
			}
			// Intersection inputs: k/2 unions of pairs, so the intersect
			// stage sees realistic post-union sets.
			name := fmt.Sprintf("k=%d/density=%g", k, density)
			b.Run(name+"/array", func(b *testing.B) {
				var acc, tmp, inter []uint32
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					acc = append(acc[:0], lists[0]...)
					for _, l := range lists[1:] {
						tmp = setops.Union(tmp[:0], acc, l)
						acc, tmp = tmp, acc
					}
					inter = setops.Intersect(inter[:0], lists[0], lists[1])
					for _, l := range lists[2:max(2, k/2)] {
						tmp = setops.Intersect(tmp[:0], inter, l)
						inter, tmp = tmp, inter
					}
					sinkLen = len(acc) + len(inter)
				}
			})
			run := func(name string, views []setops.View) {
				b.Run(name, func(b *testing.B) {
					var ks setops.KScratch
					var bm setops.Bitmap
					bm.Reuse(make([]uint64, setops.WordsFor(nMembers)), nMembers)
					var dst, inter []uint32
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						u := setops.UnionK(dst[:0], &bm, nMembers, rank, views, &ks)
						if u.Arr != nil {
							dst = u.Arr
						}
						inter = setops.IntersectK(inter[:0], views[:max(2, k/2)], rank, members, &ks)
						sinkLen = u.Len() + len(inter)
					}
				})
			}
			run(name+"/hybrid", hybViews)
			run(name+"/bitmap", bmViews)
		}
	}
}

var sinkLen int

// BenchmarkAblationValidation compares HGMatch's O(a_q·|E(q)|) vertex-
// profile validation against verifying each result by backtracking vertex
// mapping (what a match-by-vertex finisher would pay).
func BenchmarkAblationValidation(b *testing.B) {
	h, q := workload()
	p, err := core.NewPlan(q, h)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("ProfileValidation", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			engine.Run(p, engine.Options{Workers: 1, Limit: 20_000})
		}
	})
	b.Run("PlusBacktrackVerify", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			engine.Run(p, engine.Options{Workers: 1, Limit: 20_000,
				OnEmbedding: func(m []hypergraph.EdgeID) {
					if !core.VerifyEmbedding(q, h, p.Order, m) {
						b.Fatal("invalid embedding")
					}
				}})
		}
	})
}

// BenchmarkAblationMatchingOrder compares Algorithm 3's cardinality order
// against the worst connected order (largest-cardinality start).
func BenchmarkAblationMatchingOrder(b *testing.B) {
	h, q := workload()
	good, err := core.NewPlan(q, h)
	if err != nil {
		b.Fatal(err)
	}
	worst := worstConnectedOrder(q, h)
	bad, err := core.NewPlanWithOrder(q, h, worst)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("CardinalityOrder", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			engine.Run(good, engine.Options{Workers: 1, Limit: 200_000})
		}
	})
	b.Run("WorstConnectedOrder", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			engine.Run(bad, engine.Options{Workers: 1, Limit: 200_000})
		}
	})
}

// worstConnectedOrder greedily picks the connected edge with the LARGEST
// cardinality at each step.
func worstConnectedOrder(q, h *hypergraph.Hypergraph) []hypergraph.EdgeID {
	n := q.NumEdges()
	card := func(e int) int {
		return h.Cardinality(hypergraph.SignatureOf(q.Edge(uint32(e)), q.Labels()))
	}
	start := 0
	for e := 1; e < n; e++ {
		if card(e) > card(start) {
			start = e
		}
	}
	order := []hypergraph.EdgeID{hypergraph.EdgeID(start)}
	used := map[int]bool{start: true}
	var vphi []uint32
	vphi = append(vphi, q.Edge(uint32(start))...)
	for len(order) < n {
		best := -1
		for e := 0; e < n; e++ {
			if used[e] {
				continue
			}
			if !setops.ContainsAny(vphi, q.Edge(uint32(e))) {
				continue
			}
			if best < 0 || card(e) > card(best) {
				best = e
			}
		}
		if best < 0 {
			break
		}
		used[best] = true
		order = append(order, hypergraph.EdgeID(best))
		vphi = setops.Union(vphi[:0:0], vphi, q.Edge(uint32(best)))
	}
	return order
}

// BenchmarkAblationPartitioning compares signature-partitioned first-edge
// matching (a table lookup) against scanning every data hyperedge (what a
// non-partitioned store would do for SCAN).
func BenchmarkAblationPartitioning(b *testing.B) {
	h, q := workload()
	p, err := core.NewPlan(q, h)
	if err != nil {
		b.Fatal(err)
	}
	sig := p.StepSignature(0)
	b.Run("PartitionLookup", func(b *testing.B) {
		var n int
		for i := 0; i < b.N; i++ {
			n = len(p.InitialCandidates())
		}
		b.ReportMetric(float64(n), "matches")
	})
	b.Run("FullScan", func(b *testing.B) {
		var n int
		for i := 0; i < b.N; i++ {
			n = 0
			for e := 0; e < h.NumEdges(); e++ {
				if hypergraph.SignatureOf(h.Edge(uint32(e)), h.Labels()).Equal(sig) {
					n++
				}
			}
		}
		b.ReportMetric(float64(n), "matches")
	})
}

// BenchmarkAblationDeque compares the mutex-guarded steal-half deque
// against the lock-free Chase-Lev steal-one deque (paper citation [17];
// docs/ARCHITECTURE.md, "§VI-B scheduler, morsel-driven variant") on the
// same parallel workload.
func BenchmarkAblationDeque(b *testing.B) {
	h, q := workload()
	p, err := core.NewPlan(q, h)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("StealHalfMutex", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			engine.Run(p, engine.Options{Workers: 8, Limit: 200_000})
		}
	})
	b.Run("ChaseLevStealOne", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			engine.Run(p, engine.Options{Workers: 8, StealOne: true, Limit: 200_000})
		}
	})
}

// BenchmarkPublicAPI measures the end-to-end facade path (compile + run)
// on the paper's Fig. 1 example — the README quickstart cost.
func BenchmarkPublicAPI(b *testing.B) {
	data, err := hgmatch.FromEdges(
		[]hgmatch.Label{0, 2, 0, 0, 1, 2, 0},
		[][]uint32{{2, 4}, {4, 6}, {0, 1, 2}, {3, 5, 6}, {0, 1, 4, 6}, {2, 3, 4, 5}},
	)
	if err != nil {
		b.Fatal(err)
	}
	query, err := hgmatch.FromEdges(
		[]hgmatch.Label{0, 2, 0, 0, 1},
		[][]uint32{{2, 4}, {0, 1, 2}, {0, 1, 3, 4}},
	)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := hgmatch.Count(query, data, hgmatch.WithWorkers(1))
		if err != nil || n != 2 {
			b.Fatalf("n=%d err=%v", n, err)
		}
	}
}

func bName(prefix string, n int) string {
	return prefix + "=" + strconv.Itoa(n)
}
