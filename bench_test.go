// Micro-benchmarks for what hgload's ladder (bench/) does not time: the
// design ablations called out in docs/ARCHITECTURE.md ("Planning and
// matching", "Execution engine"), the count-only kernel at one worker and
// at GOMAXPROCS on count_heavy's shape, and a first match on a freshly
// mapped HGB3 file beside the heap a mapping keeps while idle. The ladder
// times every layer a workload serves, as the per-layer metrics of
// BENCHMARK.json (bench/README.md); cmd/hgbench prints the paper's tables
// and figures, and internal/experiments' tests run each of them.
package hgmatch_test

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"hgmatch"
	"hgmatch/internal/core"
	"hgmatch/internal/datagen"
	"hgmatch/internal/engine"
	"hgmatch/internal/hgtest"
	"hgmatch/internal/hypergraph"
	"hgmatch/internal/querygen"
	"hgmatch/internal/setops"
)

// workload returns a cached medium dataset and one q3 query for the
// ablation benches.
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
// (~100k embeddings) for the mapped-open benches: big enough that the
// mapping's page faults and its idle heap show.
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

// BenchmarkMappedOpen measures what the ladder's hgio.map_v3_s leaves out
// on a binary-v3 file, since no workload serves one. ColdFirstMatch is a
// plan compile and a full q3 run on a freshly attached mapping, so it
// includes the page faults the attach deferred. SteadyStateHeap reports the
// live heap bytes a mapped graph costs while idle versus its heap twin —
// what a registered mapped graph keeps on the heap.
func BenchmarkMappedOpen(b *testing.B) {
	h, q := kernelWorkload()
	v3 := filepath.Join(b.TempDir(), "wl.v3.hgb")
	if err := hgmatch.SaveBinaryV3File(v3, h); err != nil {
		b.Fatal(err)
	}
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
				OnGroup: hgtest.SerialRowsOf(func(m []hypergraph.EdgeID) {
					if !core.VerifyEmbedding(q, h, p.Order, m) {
						b.Fatal("invalid embedding")
					}
				})})
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
	sig := hypergraph.SignatureOf(q.Edge(p.Order[0]), q.Labels())
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

func bName(prefix string, n int) string {
	return prefix + "=" + strconv.Itoa(n)
}
