// Package bipartite implements the strawman hypergraph-to-bipartite-graph
// conversion of the paper's Fig. 2 and a conventional subgraph matcher over
// the converted graphs, which together form the RapidMatch baseline of the
// evaluation (§VII-A: "we directly convert the query and data hypergraph to
// bipartite graphs in RapidMatch").
//
// In the converted graph every original vertex becomes a vertex-node
// keeping its label, every hyperedge becomes an edge-node labelled by its
// arity, and incidences become edges. The conversion inflates the graph —
// a hyperedge of arity k becomes k edges — which is exactly the penalty the
// paper's introduction quantifies.
package bipartite

import (
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"hgmatch/internal/hypergraph"
	"hgmatch/internal/setops"
)

// Graph is a labelled undirected pairwise graph in adjacency-list form.
type Graph struct {
	Labels []uint32   // node -> label
	Adj    [][]uint32 // node -> sorted neighbours

	// NumVertexNodes: nodes [0, NumVertexNodes) are vertex-nodes; nodes
	// [NumVertexNodes, len(Labels)) are edge-nodes (hyperedge i maps to
	// node NumVertexNodes+i).
	NumVertexNodes int
}

// edge-node labels share a namespace with vertex labels; offset them far
// above any vertex label (vertex labels are dense small ints in practice).
const edgeLabelBase = 1 << 30

// Convert builds the bipartite representation of h (paper Fig. 2).
// Edge-nodes are labelled edgeLabelBase+arity so that only same-arity
// hyperedges can match each other, which conventional label-based filters
// then exploit.
func Convert(h *hypergraph.Hypergraph) *Graph {
	nv, ne := h.NumVertices(), h.NumEdges()
	g := &Graph{
		Labels:         make([]uint32, nv+ne),
		Adj:            make([][]uint32, nv+ne),
		NumVertexNodes: nv,
	}
	for v := 0; v < nv; v++ {
		g.Labels[v] = h.Label(uint32(v))
		inc := h.Incident(uint32(v))
		nb := make([]uint32, len(inc))
		for i, e := range inc {
			nb[i] = uint32(nv) + e
		}
		g.Adj[v] = nb // incident edge IDs are sorted, so neighbours are too
	}
	for e := 0; e < ne; e++ {
		node := nv + e
		g.Labels[node] = edgeLabelBase + uint32(h.Arity(uint32(e)))
		g.Adj[node] = append([]uint32(nil), h.Edge(uint32(e))...)
	}
	return g
}

// numNodes returns the total node count (|V| + |E| of the hypergraph).
func (g *Graph) numNodes() int { return len(g.Labels) }

// NumEdges returns the pairwise edge count (= Σ_e a(e) of the hypergraph).
func (g *Graph) NumEdges() int {
	n := 0
	for _, a := range g.Adj {
		n += len(a)
	}
	return n / 2
}

// Degree returns a node's degree.
func (g *Graph) Degree(n uint32) int { return len(g.Adj[n]) }

// Options configures a Match run over converted graphs.
type Options struct {
	Timeout time.Duration
	Limit   uint64 // max vertex mappings (0 = unlimited)
}

// Result reports a bipartite baseline run; fields mirror baseline.Result.
type Result struct {
	Embeddings uint64 // distinct hyperedge tuples (comparable with HGMatch)
	Mappings   uint64
	Recursions uint64
	Elapsed    time.Duration
	TimedOut   bool
}

// Match enumerates subgraph-isomorphism embeddings of query qg in data dg,
// where both are conversions of hypergraphs, and counts distinct hyperedge
// tuples. qh is the original query hypergraph (needed only to size the
// tuple key); qg/dg must come from Convert.
func Match(qh *hypergraph.Hypergraph, qg, dg *Graph, opts Options) (res Result) {
	start := time.Now()
	defer func() { res.Elapsed = time.Since(start) }()

	n := qg.numNodes()
	if n == 0 {
		return res
	}
	// Label-and-degree candidate filter (the standard LDF used by the
	// RapidMatch study's preprocessing).
	byLabel := make(map[uint32][]uint32)
	for v := 0; v < dg.numNodes(); v++ {
		byLabel[dg.Labels[v]] = append(byLabel[dg.Labels[v]], uint32(v))
	}
	cands := make([][]uint32, n)
	for u := 0; u < n; u++ {
		for _, v := range byLabel[qg.Labels[u]] {
			if dg.Degree(v) >= qg.Degree(uint32(u)) {
				cands[u] = append(cands[u], v)
			}
		}
		if len(cands[u]) == 0 {
			return res
		}
	}

	order := matchOrder(qg, cands)
	// Backward neighbours: for order position i, the earlier positions
	// adjacent to order[i]; data candidates must be adjacent to their
	// images (edge-compatibility constraint of pairwise matching).
	pos := make([]int, n)
	for i, u := range order {
		pos[u] = i
	}
	backNbrs := make([][]uint32, n)
	for i, u := range order {
		for _, w := range qg.Adj[u] {
			if pos[w] < i {
				backNbrs[i] = append(backNbrs[i], w)
			}
		}
	}

	st := &bpState{
		qg: qg, dg: dg, qh: qh,
		order: order, cands: cands, backNbrs: backNbrs,
		f:      make([]uint32, n),
		used:   make(map[uint32]bool, n),
		limit:  opts.Limit,
		tuples: make(map[string]struct{}),
	}
	if opts.Timeout > 0 {
		st.deadline = start.Add(opts.Timeout)
		st.hasDL = true
	}
	st.enumerate(0)

	res.Mappings = st.mappings
	res.Recursions = st.recursions
	res.Embeddings = uint64(len(st.tuples))
	res.TimedOut = st.stopped && st.hasDL
	return res
}

// MatchHypergraphs converts both hypergraphs and matches them.
func MatchHypergraphs(q, h *hypergraph.Hypergraph, opts Options) Result {
	return Match(q, Convert(q), Convert(h), opts)
}

type bpState struct {
	qg, dg   *Graph
	qh       *hypergraph.Hypergraph
	order    []uint32
	cands    [][]uint32
	backNbrs [][]uint32
	f        []uint32
	used     map[uint32]bool

	mappings   uint64
	recursions uint64
	limit      uint64
	deadline   time.Time
	hasDL      bool
	stopped    bool
	tuples     map[string]struct{}
}

func (st *bpState) enumerate(i int) {
	st.recursions++
	if st.stopped {
		return
	}
	if st.hasDL && st.recursions&0xFFF == 0 && !time.Now().Before(st.deadline) {
		st.stopped = true
		return
	}
	if i == len(st.order) {
		st.record()
		return
	}
	u := st.order[i]
candidates:
	for _, v := range st.cands[u] {
		if st.used[v] {
			continue
		}
		for _, w := range st.backNbrs[i] {
			if !setops.Contains(st.dg.Adj[v], st.f[w]) {
				continue candidates
			}
		}
		st.f[u] = v
		st.used[v] = true
		st.enumerate(i + 1)
		delete(st.used, v)
		if st.stopped {
			return
		}
	}
}

// record keys the mapping by the images of the query's edge-nodes: two
// mappings hitting the same data hyperedges are the same subhypergraph
// embedding.
func (st *bpState) record() {
	st.mappings++
	if st.limit > 0 && st.mappings >= st.limit {
		st.stopped = true
	}
	nq := st.qg.numNodes() - st.qg.NumVertexNodes
	key := make([]byte, 0, 4*nq)
	var tmp [4]byte
	for e := 0; e < nq; e++ {
		node := uint32(st.qg.NumVertexNodes + e)
		img := st.f[node] - uint32(st.dg.NumVertexNodes) // data hyperedge ID
		binary.BigEndian.PutUint32(tmp[:], img)
		key = append(key, tmp[:]...)
	}
	st.tuples[string(key)] = struct{}{}
}

// matchOrder: connected order preferring small candidate sets, starting at
// the globally rarest node — the common GQL-style ordering the RapidMatch
// study uses for its left-deep join plans.
func matchOrder(qg *Graph, cands [][]uint32) []uint32 {
	n := qg.numNodes()
	order := make([]uint32, 0, n)
	inOrder := make([]bool, n)
	frontier := make([]bool, n)
	better := func(a, b int) bool {
		if len(cands[a]) != len(cands[b]) {
			return len(cands[a]) < len(cands[b])
		}
		if qg.Degree(uint32(a)) != qg.Degree(uint32(b)) {
			return qg.Degree(uint32(a)) > qg.Degree(uint32(b))
		}
		return a < b
	}
	add := func(u int) {
		order = append(order, uint32(u))
		inOrder[u] = true
		frontier[u] = false
		for _, w := range qg.Adj[u] {
			if !inOrder[w] {
				frontier[w] = true
			}
		}
	}
	start := 0
	for u := 1; u < n; u++ {
		if better(u, start) {
			start = u
		}
	}
	add(start)
	for len(order) < n {
		best := -1
		for u := 0; u < n; u++ {
			if frontier[u] && (best < 0 || better(u, best)) {
				best = u
			}
		}
		if best < 0 {
			for u := 0; u < n; u++ {
				if !inOrder[u] && (best < 0 || better(u, best)) {
					best = u
				}
			}
		}
		add(best)
	}
	return order
}

// Validate checks adjacency-list invariants (sortedness, symmetry,
// bipartiteness between vertex- and edge-nodes).
func (g *Graph) Validate() error {
	for u, nb := range g.Adj {
		if !sort.SliceIsSorted(nb, func(i, j int) bool { return nb[i] < nb[j] }) {
			return fmt.Errorf("bipartite: adjacency of node %d not sorted", u)
		}
		uIsVertex := u < g.NumVertexNodes
		for _, w := range nb {
			wIsVertex := int(w) < g.NumVertexNodes
			if uIsVertex == wIsVertex {
				return fmt.Errorf("bipartite: edge %d-%d within one side", u, w)
			}
			if !setops.Contains(g.Adj[w], uint32(u)) {
				return fmt.Errorf("bipartite: edge %d-%d not symmetric", u, w)
			}
		}
	}
	return nil
}
