package engine_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"hgmatch/internal/core"
	"hgmatch/internal/engine"
	"hgmatch/internal/hgtest"
	"hgmatch/internal/hypergraph"
)

func fig1Plan(t *testing.T) *core.Plan {
	t.Helper()
	p, err := core.NewPlan(hgtest.Fig1Query(), hgtest.Fig1Data())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestFig1Parallel(t *testing.T) {
	p := fig1Plan(t)
	for _, workers := range []int{1, 2, 4, 8} {
		res := engine.Run(p, engine.Options{Workers: workers})
		if res.Embeddings != 2 {
			t.Errorf("workers=%d: embeddings = %d, want 2", workers, res.Embeddings)
		}
		if res.TimedOut {
			t.Errorf("workers=%d: spurious timeout", workers)
		}
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := hgtest.RandomHypergraph(rng, hgtest.RandomConfig{
			NumVertices: 25, NumEdges: 60, NumLabels: 2, MaxArity: 4,
		})
		nq := 2 + int(seed%3)
		q := hgtest.ConnectedQueryFromWalk(rng, h, nq)
		if q == nil {
			continue
		}
		p, err := core.NewPlan(q, h)
		if err != nil {
			t.Fatal(err)
		}
		want, wantCt := p.CountSequential()
		for _, workers := range []int{1, 3, 7} {
			res := engine.Run(p, engine.Options{Workers: workers})
			if res.Embeddings != want {
				t.Fatalf("seed %d workers %d: got %d want %d", seed, workers, res.Embeddings, want)
			}
			// Instrumentation counters are deterministic too: the same
			// expansions happen regardless of scheduling.
			if res.Counters.Candidates != wantCt.Candidates ||
				res.Counters.Filtered != wantCt.Filtered ||
				res.Counters.Valid != wantCt.Valid {
				t.Fatalf("seed %d workers %d: counters %+v want %+v", seed, workers, res.Counters, wantCt)
			}
			nost := engine.Run(p, engine.Options{Workers: workers, DisableStealing: true})
			if nost.Embeddings != want {
				t.Fatalf("seed %d workers %d NOSTL: got %d want %d", seed, workers, nost.Embeddings, want)
			}
		}
	}
}

func TestCollectedEmbeddingsIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	h := hgtest.RandomHypergraph(rng, hgtest.RandomConfig{
		NumVertices: 20, NumEdges: 50, NumLabels: 2, MaxArity: 4,
	})
	q := hgtest.ConnectedQueryFromWalk(rng, h, 3)
	if q == nil {
		t.Skip("no query")
	}
	p, err := core.NewPlan(q, h)
	if err != nil {
		t.Fatal(err)
	}
	collect := func(workers int) []string {
		var out []string
		engine.Run(p, engine.Options{
			Workers: workers,
			OnGroup: hgtest.SerialRowsOf(func(m []hypergraph.EdgeID) {
				out = append(out, fmt.Sprint(m))
			}),
		})
		sort.Strings(out)
		return out
	}
	want := collect(1)
	for _, workers := range []int{2, 5} {
		got := collect(workers)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d embeddings, want %d", workers, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: embedding sets differ at %d", workers, i)
			}
		}
	}
	// Soundness of collected results.
	engine.Run(p, engine.Options{Workers: 3, OnGroup: hgtest.SerialRowsOf(func(m []hypergraph.EdgeID) {
		if !core.VerifyEmbedding(q, h, p.Order, m) {
			t.Fatalf("engine emitted invalid embedding %v", m)
		}
	})})
}

func TestLimit(t *testing.T) {
	p := fig1Plan(t)
	res := engine.Run(p, engine.Options{Workers: 2, Limit: 1})
	if res.Embeddings != 1 {
		t.Errorf("limit run found %d embeddings, want exactly 1", res.Embeddings)
	}
}

func TestTimeoutReported(t *testing.T) {
	// A large self-join style workload with an immediate deadline must
	// stop early and say so.
	rng := rand.New(rand.NewSource(11))
	h := hgtest.RandomHypergraph(rng, hgtest.RandomConfig{
		NumVertices: 60, NumEdges: 500, NumLabels: 1, MaxArity: 3,
	})
	q := hgtest.ConnectedQueryFromWalk(rng, h, 4)
	if q == nil {
		t.Skip("no query")
	}
	p, err := core.NewPlan(q, h)
	if err != nil {
		t.Fatal(err)
	}
	res := engine.Run(p, engine.Options{Workers: 2, Timeout: time.Nanosecond})
	if !res.TimedOut {
		// The workload may legitimately finish if tiny; only fail when it
		// also claims full completion with a huge count.
		full := engine.Run(p, engine.Options{Workers: 2})
		if full.Embeddings > 100000 {
			t.Errorf("run with 1ns timeout did not report TimedOut (full count %d)", full.Embeddings)
		}
	}
}

func TestFilterOperator(t *testing.T) {
	p := fig1Plan(t)
	// Keep only embeddings containing data edge e3 (ID 2).
	res := engine.Run(p, engine.Options{
		Workers: 2,
		Filter: func(m []hypergraph.EdgeID) bool {
			for _, e := range m {
				if e == 2 {
					return true
				}
			}
			return false
		},
	})
	if res.Embeddings != 1 {
		t.Errorf("filtered embeddings = %d, want 1", res.Embeddings)
	}
}

func TestAggregateOperator(t *testing.T) {
	p := fig1Plan(t)
	res := engine.Run(p, engine.Options{
		Workers: 2,
		Aggregate: func(m []hypergraph.EdgeID) string {
			if m[0]%2 == 0 {
				return "even-first"
			}
			return "odd-first"
		},
	})
	if res.Groups == nil {
		t.Fatal("no groups")
	}
	total := uint64(0)
	for _, c := range res.Groups {
		total += c
	}
	if total != res.Embeddings || res.Embeddings != 2 {
		t.Errorf("groups %v, embeddings %d", res.Groups, res.Embeddings)
	}
}

func TestWorkerStatsConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	h := hgtest.RandomHypergraph(rng, hgtest.RandomConfig{
		NumVertices: 30, NumEdges: 120, NumLabels: 2, MaxArity: 4,
	})
	q := hgtest.ConnectedQueryFromWalk(rng, h, 3)
	if q == nil {
		t.Skip("no query")
	}
	p, err := core.NewPlan(q, h)
	if err != nil {
		t.Fatal(err)
	}
	res := engine.Run(p, engine.Options{Workers: 4})
	var tasks, spawned uint64
	for _, ws := range res.Workers {
		tasks += ws.Tasks
		spawned += ws.Spawned
	}
	// Task conservation: every task executed was either an initial scan
	// task or spawned by another; no task executes twice and none is lost.
	initial := uint64(0)
	n := len(p.InitialCandidates())
	w := 4
	for i := 0; i < w; i++ {
		lo := i * n / w
		hi := (i + 1) * n / w
		if lo < hi {
			initial++
		}
	}
	if tasks != spawned+initial {
		t.Errorf("task conservation violated: executed %d, spawned %d + initial %d", tasks, spawned, initial)
	}
	if res.PeakTasks <= 0 || res.PeakTaskBytes < res.PeakTasks {
		t.Errorf("peak accounting wrong: %d tasks, %d bytes", res.PeakTasks, res.PeakTaskBytes)
	}
}

func TestEmptyPlanRun(t *testing.T) {
	qb := hypergraph.NewBuilder()
	v0 := qb.AddVertex(77)
	v1 := qb.AddVertex(77)
	qb.AddEdge(v0, v1)
	q := qb.MustBuild()
	p, err := core.NewPlan(q, hgtest.Fig1Data())
	if err != nil {
		t.Fatal(err)
	}
	res := engine.Run(p, engine.Options{Workers: 4})
	if res.Embeddings != 0 {
		t.Errorf("empty plan found %d embeddings", res.Embeddings)
	}
}

func TestSingleEdgeQueryParallel(t *testing.T) {
	h := hgtest.Fig1Data()
	qb := hypergraph.NewBuilder()
	a := qb.AddVertex(hgtest.A)
	c := qb.AddVertex(hgtest.C)
	a2 := qb.AddVertex(hgtest.A)
	qb.AddEdge(a, c, a2)
	q := qb.MustBuild()
	p, err := core.NewPlan(q, h)
	if err != nil {
		t.Fatal(err)
	}
	res := engine.Run(p, engine.Options{Workers: 3})
	if res.Embeddings != 2 { // e3, e4 have signature {A,A,C}
		t.Errorf("%d embeddings, want 2", res.Embeddings)
	}
}
