package experiments_test

import (
	"math/rand"
	"testing"

	"hgmatch/internal/core"
	"hgmatch/internal/engine"
	"hgmatch/internal/experiments"
	"hgmatch/internal/hgtest"
)

// bfsPlan builds a dense single-label workload whose levels fan out.
func bfsPlan(t *testing.T, seed int64, vertices, edges int) *core.Plan {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	h := hgtest.RandomHypergraph(rng, hgtest.RandomConfig{
		NumVertices: vertices, NumEdges: edges, NumLabels: 1, MaxArity: 3,
	})
	q := hgtest.ConnectedQueryFromWalk(rng, h, 3)
	if q == nil {
		t.Skip("no query")
	}
	p, err := core.NewPlan(q, h)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestBFSMaterialisesLevels: the contrast side of Exp-5 — on a workload
// with a wide final level, BFS peak grows with the result count while the
// task scheduler's stays near the Theorem VI.1 bound and far below BFS.
func TestBFSMaterialisesLevels(t *testing.T) {
	p := bfsPlan(t, 5, 25, 250)
	want, _ := p.CountSequential()
	task := engine.Run(p, engine.Options{Workers: 2})
	bfs := experiments.RunBFS(p, 0)
	if task.Embeddings != bfs.Embeddings || bfs.Embeddings != want {
		t.Fatalf("task %d, BFS %d, sequential %d embeddings", task.Embeddings, bfs.Embeddings, want)
	}
	if task.Embeddings < 1000 {
		t.Skipf("workload too small (%d embeddings) to contrast schedulers", task.Embeddings)
	}
	if bfs.PeakLevel <= task.PeakTasks {
		t.Errorf("BFS peak %d not above task scheduler peak %d on a %d-result workload",
			bfs.PeakLevel, task.PeakTasks, task.Embeddings)
	}
}

// TestBFSBytesAboveBlockPeak: Fig. 11's contrast in bytes. Blocks are
// accounted at full arena capacity, so on toy workloads BFS can sit below
// the block scheduler's granularity floor; from ~10⁴ results up its
// materialised levels must dwarf the bounded live set.
func TestBFSBytesAboveBlockPeak(t *testing.T) {
	p := bfsPlan(t, 9, 30, 300)
	task := engine.Run(p, engine.Options{Workers: 2})
	bfs := experiments.RunBFS(p, 0)
	if task.Embeddings != bfs.Embeddings {
		t.Fatalf("task %d, BFS %d embeddings", task.Embeddings, bfs.Embeddings)
	}
	if task.Embeddings < 10_000 {
		t.Skipf("workload too small: %d", task.Embeddings)
	}
	if bfs.PeakBytes <= task.PeakTaskBytes {
		t.Errorf("BFS peak %dB not above block scheduler peak %dB on %d results",
			bfs.PeakBytes, task.PeakTaskBytes, task.Embeddings)
	}
}

// TestBFSPeakAtLeastResultCount: BFS materialises the last level, so its
// peak covers every embedding, and its bytes are that level at the plan's
// per-embedding task size.
func TestBFSPeakAtLeastResultCount(t *testing.T) {
	p := bfsPlan(t, 9, 40, 300)
	bfs := experiments.RunBFS(p, 0)
	if bfs.Embeddings > 0 && bfs.PeakLevel < int64(bfs.Embeddings) {
		t.Errorf("BFS peak %d < embeddings %d", bfs.PeakLevel, bfs.Embeddings)
	}
	if bfs.PeakBytes != bfs.PeakLevel*int64(p.TaskBytes()) {
		t.Errorf("BFS bytes %d != %d rows × %d", bfs.PeakBytes, bfs.PeakLevel, p.TaskBytes())
	}
}
