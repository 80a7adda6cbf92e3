package main

import (
	"fmt"
	"time"

	"hgmatch/internal/core"
	"hgmatch/internal/datagen"
	"hgmatch/internal/engine"
	"hgmatch/internal/hypergraph"
)

// probeCap bounds a probed count: beyond it a query is too big for any pool.
const probeCap = 50_000_000

// probe prints, for every sampled query of a dataset, its embedding count
// and parallel run time. It is how the fixed pools in specs were chosen:
// run it, pick indices whose count lies in the workload's range, and write
// them into the spec.
func probe(profile string) error {
	p, ok := datagen.ProfileByName(profile)
	if !ok {
		return fmt.Errorf("unknown datagen profile %q", profile)
	}
	start := time.Now()
	h := datagen.Generate(p, datasetSeed)
	st := hypergraph.ComputeStats(h)
	fmt.Printf("# %s seed %d: V=%d E=%d labels=%d avg_arity=%.1f signatures=%d bitmap_vertices=%d generated in %s\n",
		profile, datasetSeed, st.NumVertices, st.NumEdges, st.NumLabels, st.AvgArity, st.Signatures, st.BitmapVertices,
		time.Since(start).Round(time.Millisecond))
	for _, setting := range []string{"q2", "q3", "q4"} {
		qs, err := sampleSetting(h, setting)
		if err != nil {
			return err
		}
		for i, q := range qs {
			if q == nil {
				continue
			}
			plan, err := core.NewPlan(q, h)
			if err != nil {
				return err
			}
			res := engine.Run(plan, engine.Options{Limit: probeCap})
			capped := ""
			if res.Embeddings >= probeCap {
				capped = "+"
			}
			fmt.Printf("%s %s#%d embeddings=%d%s run_ms=%.2f seeds=%d candidates=%d cost=%d\n", profile, setting, i, res.Embeddings, capped,
				float64(res.Elapsed.Microseconds())/1000, len(plan.InitialCandidates()), res.Counters.Candidates, plan.EstimateCost())
		}
	}
	return nil
}
