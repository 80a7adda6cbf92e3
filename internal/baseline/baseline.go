// Package baseline implements the paper's comparison systems: the generic
// match-by-vertex backtracking framework extended to hypergraphs
// (Algorithm 1 with the Theorem III.2 subhypergraph matching constraint),
// the IHS candidate filter of [30], and the matching-order strategies that
// characterise the extended state-of-the-art algorithms CFL-H, DAF-H and
// CECI-H (paper §III-B, §VII-A). The RapidMatch baseline runs on bipartite
// conversions and lives in internal/bipartite.
//
// These baselines intentionally follow the match-by-vertex design the paper
// argues against: hyperedges are used only as verification conditions, so
// hyperedge verification is delayed and the search space is the product of
// per-vertex candidate sets. The orders-of-magnitude gap against HGMatch in
// the Fig. 8 experiments comes from exactly this framework difference.
package baseline

import (
	"encoding/binary"
	"slices"
	"time"

	"hgmatch/internal/hypergraph"
)

// Algorithm selects the matching-order strategy emulating one of the
// extended state-of-the-art algorithms.
type Algorithm int

const (
	// CFLH orders vertices core-forest-leaf (CFL [9] extended).
	CFLH Algorithm = iota
	// DAFH orders vertices along a candidate-size-weighted DAG (DAF [31]
	// extended).
	DAFH
	// CECIH orders vertices in BFS-tree order from a minimum-candidate
	// root (CECI [8] extended).
	CECIH
)

func (a Algorithm) String() string {
	switch a {
	case CFLH:
		return "CFL-H"
	case DAFH:
		return "DAF-H"
	case CECIH:
		return "CECI-H"
	default:
		return "baseline"
	}
}

// Options configures a baseline run.
type Options struct {
	Algorithm Algorithm
	// Timeout aborts the enumeration (0 = none); timed-out runs report
	// TimedOut and lower-bound counts, mirroring the paper's 1-hour cap.
	Timeout time.Duration
	// Limit stops after this many vertex mappings (0 = unlimited).
	Limit uint64
}

// Result reports a baseline run.
type Result struct {
	// Embeddings counts distinct subhypergraph embeddings (distinct data
	// hyperedge tuples), the unit HGMatch counts, so results are directly
	// comparable.
	Embeddings uint64
	// Mappings counts enumerated injective vertex mappings; automorphic
	// mappings onto the same subhypergraph each count once here.
	Mappings uint64
	// Recursions counts Enumerate invocations (search-tree nodes).
	Recursions uint64
	// CandidateSizes is Σ_u |C(u)| after IHS filtering.
	CandidateSizes int
	Elapsed        time.Duration
	TimedOut       bool
}

// Match runs the extended match-by-vertex framework.
func Match(q, h *hypergraph.Hypergraph, opts Options) Result {
	res, _ := match(q, h, opts)
	return res
}

// Tuples runs Match and also returns the distinct embeddings it found, each
// a data-hyperedge tuple indexed by query hyperedge, in ascending tuple
// order. It is the answer an independent oracle hands to a test.
func Tuples(q, h *hypergraph.Hypergraph, opts Options) (Result, [][]hypergraph.EdgeID) {
	res, st := match(q, h, opts)
	if st == nil {
		return res, nil
	}
	out := make([][]hypergraph.EdgeID, 0, len(st.tuples))
	for key := range st.tuples {
		m := make([]hypergraph.EdgeID, len(key)/4)
		for i := range m {
			m[i] = binary.BigEndian.Uint32([]byte(key[4*i : 4*i+4]))
		}
		out = append(out, m)
	}
	slices.SortFunc(out, slices.Compare)
	return res, out
}

// match runs the framework and returns its search state, nil when the
// search never started.
func match(q, h *hypergraph.Hypergraph, opts Options) (res Result, st *btState) {
	start := time.Now()
	defer func() { res.Elapsed = time.Since(start) }()

	n := q.NumVertices()
	if n == 0 || q.NumEdges() == 0 {
		return res, nil
	}

	// Line 1 of Algorithm 1: candidate vertex sets via the IHS filter.
	cands := BuildCandidates(q, h)
	for _, c := range cands {
		res.CandidateSizes += len(c)
		if len(c) == 0 {
			return res, nil
		}
	}

	// Line 2: matching order per emulated algorithm.
	order := VertexOrder(q, cands, opts.Algorithm)

	// Precompute, for each order position i, the query hyperedges whose
	// vertex sets become fully mapped exactly when order[i] is assigned
	// (the Theorem III.2 constraint checks).
	pos := make([]int, n)
	for i, u := range order {
		pos[u] = i
	}
	completedAt := make([][]hypergraph.EdgeID, n)
	for e := 0; e < q.NumEdges(); e++ {
		last := 0
		for _, u := range q.Edge(uint32(e)) {
			if pos[u] > last {
				last = pos[u]
			}
		}
		completedAt[last] = append(completedAt[last], hypergraph.EdgeID(e))
	}

	st = &btState{
		q: q, h: h,
		order:       order,
		cands:       cands,
		completedAt: completedAt,
		f:           make([]uint32, n),
		used:        make([]bool, h.NumVertices()),
		limit:       opts.Limit,
		tuples:      make(map[string]struct{}),
		imgBuf:      make([]uint32, 0, q.MaxArity()),
		image:       make([]hypergraph.EdgeID, q.NumEdges()),
		key:         make([]byte, 4*q.NumEdges()),
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
	return res, st
}

type btState struct {
	q, h        *hypergraph.Hypergraph
	order       []uint32
	cands       [][]uint32
	completedAt [][]hypergraph.EdgeID
	f           []uint32 // query vertex -> data vertex
	used        []bool   // data vertex -> in the image of f

	mappings   uint64
	recursions uint64
	limit      uint64
	deadline   time.Time
	hasDL      bool
	stopped    bool

	tuples map[string]struct{} // distinct data-edge tuples
	imgBuf []uint32
	image  []hypergraph.EdgeID // query edge -> the data edge it maps onto
	key    []byte              // record's tuple key, reused across mappings
}

// enumerate is the recursive Enumerate procedure of Algorithm 1; the
// validity test at line 10 is the Theorem III.2 constraint: every query
// hyperedge completed by this assignment must have its image present in
// E(H). This is precisely the "delayed hyperedge verification" the paper
// identifies: an edge of arity k is verified only after all k member
// vertices are mapped.
func (st *btState) enumerate(i int) {
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
		st.f[u] = v
		// Theorem III.2 check for hyperedges completed at this position.
		for _, qe := range st.completedAt[i] {
			if !st.imageEdgeExists(qe) {
				continue candidates
			}
		}
		st.used[v] = true
		st.enumerate(i + 1)
		st.used[v] = false
		if st.stopped {
			return
		}
	}
}

// imageEdgeExists checks {f(u') : u' ∈ eq} ∈ E(H) and notes the image's
// edge ID for record: it stays current while the search is below the
// position that completed eq.
func (st *btState) imageEdgeExists(qe hypergraph.EdgeID) bool {
	st.imgBuf = st.imgBuf[:0]
	for _, u := range st.q.Edge(qe) {
		st.imgBuf = append(st.imgBuf, st.f[u])
	}
	slices.Sort(st.imgBuf)
	id, ok := st.h.FindEdge(st.imgBuf)
	st.image[qe] = id
	return ok
}

// record registers a complete vertex mapping: it derives the data-edge
// tuple (the subhypergraph embedding in the paper's Definition III.3
// sense) and deduplicates automorphic mappings.
func (st *btState) record() {
	st.mappings++
	if st.limit > 0 && st.mappings >= st.limit {
		st.stopped = true
	}
	for e, id := range st.image {
		binary.BigEndian.PutUint32(st.key[4*e:], id)
	}
	// The lookup converts without allocating; only a new tuple is copied.
	if _, ok := st.tuples[string(st.key)]; !ok {
		st.tuples[string(st.key)] = struct{}{}
	}
}
