package hgtest

import (
	"fmt"
	"math/rand"
	"slices"

	"hgmatch/internal/baseline"
	"hgmatch/internal/core"
	"hgmatch/internal/hypergraph"
)

// OracleQuery is a query with its answer from the match-by-vertex
// framework of internal/baseline: an oracle that reaches the embedding set
// by a different route from the match-by-hyperedge engine.
type OracleQuery struct {
	Query *hypergraph.Hypergraph
	// Tuples are the distinct embeddings over the set's Cold edge IDs,
	// indexed by query hyperedge, ascending.
	Tuples [][]hypergraph.EdgeID
}

// OracleSet is a logical edge set with oracle answers: Cold is a heap
// build of a served graph's live edges, in served ID order, and every
// storage of those edges must answer Queries alike.
type OracleSet struct {
	Cold    *hypergraph.Hypergraph
	Queries []OracleQuery
}

// oracleMaxMappings bounds the vertex mappings the oracle may enumerate for
// one sampled query; a query needing more is dropped.
const oracleMaxMappings = 10_000

// NewOracleSet builds the logical edge set snap serves, with up to two
// random-walk queries of each size 1-4 having at most maxRows embeddings,
// the first two-edge one followed by its reversed-edge twin, and a
// one-edge query on every table of snap that tombstones emptied (its
// answer is empty). It fails if fewer than seven queries were sampled.
func NewOracleSet(snap *hypergraph.Hypergraph, seed int64, maxRows uint64) (*OracleSet, error) {
	b := hypergraph.NewBuilder()
	for v := range snap.NumVertices() {
		b.AddVertex(snap.Label(uint32(v)))
	}
	for e := range hypergraph.EdgeID(snap.NumEdges()) {
		if !snap.IsDeadEdge(e) {
			b.AddEdge(snap.Edge(e)...)
		}
	}
	s := &OracleSet{Cold: b.MustBuild()}
	add := func(q *hypergraph.Hypergraph) bool {
		res, tuples := baseline.Tuples(q, s.Cold, baseline.Options{Limit: oracleMaxMappings})
		if res.Mappings >= oracleMaxMappings || uint64(len(tuples)) > maxRows {
			return false
		}
		s.Queries = append(s.Queries, OracleQuery{q, tuples})
		return true
	}
	// The engine's count only picks the queries cheap enough for the
	// oracle; the oracle's answer is what gets checked against.
	small := func(q *hypergraph.Hypergraph) bool {
		p, err := core.NewPlan(q, s.Cold)
		if err != nil {
			return false
		}
		n, _ := p.CountSequential()
		return n <= maxRows
	}
	rng := rand.New(rand.NewSource(seed))
	for nq := 1; nq <= 4; nq++ {
		kept := 0
		for try := 0; try < 30 && kept < 2; try++ {
			if q := ConnectedQueryFromWalk(rng, s.Cold, nq); q != nil && small(q) && add(q) {
				if kept++; nq == 2 && kept == 1 {
					add(hypergraph.MustFromEdges(q.Labels(), [][]uint32{q.Edge(1), q.Edge(0)}))
				}
			}
		}
	}
	if len(s.Queries) < 7 {
		return nil, fmt.Errorf("hgtest: only %d oracle queries sampled", len(s.Queries))
	}
	for pi := range snap.NumPartitions() {
		if p := snap.Partition(pi); p.Len() == 0 {
			vs := make([]uint32, len(p.Sig))
			for j := range vs {
				vs[j] = uint32(j)
			}
			add(hypergraph.MustFromEdges(p.Sig, [][]uint32{vs}))
		}
	}
	return s, nil
}

// ServedIDs returns the ID in h of each of Cold's edges. h must serve
// exactly Cold's edges as its live ones, however stored and numbered.
func (s *OracleSet) ServedIDs(h *hypergraph.Hypergraph) ([]hypergraph.EdgeID, error) {
	served := map[string]hypergraph.EdgeID{}
	for e := range hypergraph.EdgeID(h.NumEdges()) {
		if !h.IsDeadEdge(e) {
			served[fmt.Sprint(h.Edge(e))] = e
		}
	}
	ids := make([]hypergraph.EdgeID, s.Cold.NumEdges())
	for e := range ids {
		id, ok := served[fmt.Sprint(s.Cold.Edge(hypergraph.EdgeID(e)))]
		if !ok || len(served) != len(ids) {
			return nil, fmt.Errorf("hgtest: %d live edges served, not the %d of the edge set", len(served), len(ids))
		}
		ids[e] = id
	}
	return ids, nil
}

// Rows returns q's answer on a graph serving Cold's edges under ids, as
// rows aligned with a plan's matching order, ascending: the sequential
// order, of which a capped run keeps a prefix.
func (q OracleQuery) Rows(ids, order []hypergraph.EdgeID) [][]hypergraph.EdgeID {
	rows := make([][]hypergraph.EdgeID, len(q.Tuples))
	for i, tuple := range q.Tuples {
		rows[i] = make([]hypergraph.EdgeID, len(order))
		for j, qe := range order {
			rows[i][j] = ids[tuple[qe]]
		}
	}
	slices.SortFunc(rows, slices.Compare)
	return rows
}
