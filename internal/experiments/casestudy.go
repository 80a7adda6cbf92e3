package experiments

import (
	"fmt"
	"strings"
	"sync"

	"hgmatch/internal/core"
	"hgmatch/internal/datagen"
	"hgmatch/internal/engine"
	"hgmatch/internal/hypergraph"
)

// CaseStudyResult reports the §VII-D knowledge-base case study.
type CaseStudyResult struct {
	KBVertices, KBEdges  int
	Query1Count          uint64
	Query2Count          uint64
	SampleQ1, SampleQ2   []string
	PlantedQ1, PlantedQ2 int
}

// Fig13 reproduces the JF17K question-answering case study: query 1
// ("players who represented different teams in different matches") and
// query 2 ("actors who played the same character in a TV show on different
// seasons") over the synthetic typed knowledge base.
func (s *Suite) Fig13() (CaseStudyResult, string) {
	cfg := datagen.DefaultKBConfig()
	kb := datagen.GenerateKB(cfg, s.Cfg.Seed)
	res := CaseStudyResult{
		KBVertices: kb.Graph.NumVertices(),
		KBEdges:    kb.Graph.NumEdges(),
		PlantedQ1:  cfg.PlantedTransfers,
		PlantedQ2:  cfg.PlantedRecasts,
	}

	run := func(q *hypergraph.Hypergraph, samples int) (uint64, []string) {
		p, err := core.NewPlan(q, kb.Graph)
		if err != nil {
			return 0, nil
		}
		var mu sync.Mutex
		var rendered []string
		r := engine.Run(p, engine.Options{
			Workers: s.Cfg.Workers,
			OnGroup: func(_ int, prefix, last []hypergraph.EdgeID) {
				mu.Lock()
				defer mu.Unlock()
				for _, c := range last[:min(len(last), samples-len(rendered))] {
					rendered = append(rendered, renderFacts(kb, append(prefix[:len(prefix):len(prefix)], c)))
				}
			},
		})
		return r.Embeddings, rendered
	}
	res.Query1Count, res.SampleQ1 = run(kb.Query1(), 3)
	res.Query2Count, res.SampleQ2 = run(kb.Query2(), 3)

	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 13 — §VII-D case study on a synthetic JF17K-style knowledge base\n")
	fmt.Fprintf(&b, "KB: %d entities, %d facts\n", res.KBVertices, res.KBEdges)
	fmt.Fprintf(&b, "Query 1 (player, two teams, two matches): %d embeddings (planted %d transfer players)\n",
		res.Query1Count, res.PlantedQ1)
	for _, s := range res.SampleQ1 {
		fmt.Fprintf(&b, "  e.g. %s\n", s)
	}
	fmt.Fprintf(&b, "Query 2 (character/show recast across seasons): %d embeddings (planted %d recasts)\n",
		res.Query2Count, res.PlantedQ2)
	for _, s := range res.SampleQ2 {
		fmt.Fprintf(&b, "  e.g. %s\n", s)
	}
	return res, b.String()
}

// renderFacts pretty-prints one embedding as its list of typed facts.
func renderFacts(kb *datagen.KB, m []hypergraph.EdgeID) string {
	var parts []string
	for _, e := range m {
		var fact []string
		for _, v := range kb.Graph.Edge(e) {
			fact = append(fact, fmt.Sprintf("%s#%d", kb.Dict.Name(kb.Graph.Label(v)), v))
		}
		parts = append(parts, "("+strings.Join(fact, ", ")+")")
	}
	return strings.Join(parts, " + ")
}
