package engine_test

import (
	"context"
	"math/rand"
	"testing"

	"hgmatch/internal/core"
	"hgmatch/internal/engine"
	"hgmatch/internal/hgtest"
)

func TestContextCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	h := hgtest.RandomHypergraph(rng, hgtest.RandomConfig{
		NumVertices: 40, NumEdges: 500, NumLabels: 1, MaxArity: 3,
	})
	q := hgtest.ConnectedQueryFromWalk(rng, h, 4)
	if q == nil {
		t.Skip("no query")
	}
	p, err := core.NewPlan(q, h)
	if err != nil {
		t.Fatal(err)
	}

	// Pre-cancelled context: the run must stop early and report it.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := engine.Run(p, engine.Options{Workers: 2, Context: ctx})
	if !res.TimedOut {
		// Tiny workloads may finish before the first check; require that
		// heavy ones do not.
		if res.Embeddings > 100_000 {
			t.Errorf("cancelled run completed fully (%d embeddings)", res.Embeddings)
		}
	}

	// Live context: run completes normally.
	res = engine.Run(p, engine.Options{Workers: 2, Context: context.Background(), Limit: 10_000})
	if res.Embeddings == 0 {
		t.Error("live-context run found nothing")
	}
}
