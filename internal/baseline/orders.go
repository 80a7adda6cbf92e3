package baseline

import (
	"sort"
)

// VertexOrder computes the match-by-vertex matching order characterising
// the emulated algorithm. All three strategies produce connected orders on
// connected queries (each vertex after the first is primal-adjacent to an
// earlier one), which is required for the Theorem III.2 constraint to prune
// effectively.
//
// The emulations capture each algorithm's defining order policy over a
// shared IHS-filtered candidate space (a substitution: the original CFL, DAF
// and CECI systems are not reimplemented, only their order policies):
//
//   - CFL-H: core-forest-leaf decomposition — 2-core vertices first, then
//     forest vertices, leaves last (CFL's "postponing Cartesian products").
//   - DAF-H: DAG order from a min(|C(u)|/d(u)) root, always extending with
//     the frontier vertex of smallest candidate set (DAF's adaptive
//     candidate-size order).
//   - CECI-H: plain BFS-tree order from a min(|C(u)|) root (CECI's
//     BFS-based embedding-cluster construction order).
func VertexOrder(q interface {
	NumVertices() int
	AdjacentVertices(uint32) []uint32
	Degree(uint32) int
}, cands [][]uint32, alg Algorithm) []uint32 {
	n := q.NumVertices()
	if n == 0 {
		return nil
	}
	adj := make([][]uint32, n)
	for u := 0; u < n; u++ {
		adj[u] = q.AdjacentVertices(uint32(u))
	}
	switch alg {
	case CFLH:
		return cflOrder(n, adj, cands)
	case DAFH:
		return dafOrder(n, adj, cands)
	default:
		return ceciOrder(n, adj, cands)
	}
}

// tier classifies query vertices for the core-forest-leaf decomposition:
// 0 = core (2-core of the primal graph), 1 = forest, 2 = leaf (primal
// degree 1).
func coreForestLeaf(n int, adj [][]uint32) []int {
	deg := make([]int, n)
	for u := range adj {
		deg[u] = len(adj[u])
	}
	// Peel degree-<2 vertices repeatedly: survivors form the 2-core.
	inCore := make([]bool, n)
	work := append([]int(nil), deg...)
	removed := make([]bool, n)
	changed := true
	for changed {
		changed = false
		for u := 0; u < n; u++ {
			if !removed[u] && work[u] < 2 {
				removed[u] = true
				changed = true
				for _, w := range adj[u] {
					if !removed[w] {
						work[w]--
					}
				}
			}
		}
	}
	tier := make([]int, n)
	for u := 0; u < n; u++ {
		switch {
		case !removed[u]:
			inCore[u] = true
			tier[u] = 0
		case deg[u] <= 1:
			tier[u] = 2
		default:
			tier[u] = 1
		}
	}
	return tier
}

// cflOrder: start from the core vertex with the smallest candidate set
// (falling back to global minimum when the query has no 2-core), grow
// connected, preferring lower tiers (core before forest before leaves) and
// smaller candidate sets within a tier.
func cflOrder(n int, adj [][]uint32, cands [][]uint32) []uint32 {
	tier := coreForestLeaf(n, adj)
	better := func(a, b int) bool { // is a a better next pick than b
		if tier[a] != tier[b] {
			return tier[a] < tier[b]
		}
		if len(cands[a]) != len(cands[b]) {
			return len(cands[a]) < len(cands[b])
		}
		return a < b
	}
	return growConnected(n, adj, better)
}

// dafOrder: root minimising |C(u)|/d(u); extend with the connected vertex
// of smallest candidate set (DAF's candidate-size DAG order).
func dafOrder(n int, adj [][]uint32, cands [][]uint32) []uint32 {
	root := 0
	score := func(u int) float64 {
		d := len(adj[u])
		if d == 0 {
			d = 1
		}
		return float64(len(cands[u])) / float64(d)
	}
	for u := 1; u < n; u++ {
		if score(u) < score(root) {
			root = u
		}
	}
	better := func(a, b int) bool {
		if len(cands[a]) != len(cands[b]) {
			return len(cands[a]) < len(cands[b])
		}
		return a < b
	}
	return growConnectedFrom(n, adj, root, better)
}

// ceciOrder: plain FIFO BFS from the vertex with the smallest candidate
// set.
func ceciOrder(n int, adj [][]uint32, cands [][]uint32) []uint32 {
	root := 0
	for u := 1; u < n; u++ {
		if len(cands[u]) < len(cands[root]) {
			root = u
		}
	}
	order := make([]uint32, 0, n)
	visited := make([]bool, n)
	queue := []int{root}
	visited[root] = true
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		order = append(order, uint32(u))
		// Deterministic neighbour order.
		nb := append([]uint32(nil), adj[u]...)
		sort.Slice(nb, func(i, j int) bool { return nb[i] < nb[j] })
		for _, w := range nb {
			if !visited[w] {
				visited[w] = true
				queue = append(queue, int(w))
			}
		}
	}
	// Disconnected queries: append remaining vertices (the kernel still
	// enumerates correctly, just without early pruning across components).
	for u := 0; u < n; u++ {
		if !visited[u] {
			order = append(order, uint32(u))
		}
	}
	return order
}

// growConnected grows a connected order choosing the globally best start
// by the same comparator.
func growConnected(n int, adj [][]uint32, better func(a, b int) bool) []uint32 {
	start := 0
	for u := 1; u < n; u++ {
		if better(u, start) {
			start = u
		}
	}
	return growConnectedFrom(n, adj, start, better)
}

// growConnectedFrom grows a connected order from start, repeatedly adding
// the best frontier vertex per the comparator.
func growConnectedFrom(n int, adj [][]uint32, start int, better func(a, b int) bool) []uint32 {
	order := make([]uint32, 0, n)
	inOrder := make([]bool, n)
	frontier := make([]bool, n)
	add := func(u int) {
		order = append(order, uint32(u))
		inOrder[u] = true
		frontier[u] = false
		for _, w := range adj[u] {
			if !inOrder[w] {
				frontier[w] = true
			}
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
			// Disconnected query: jump to the best unvisited vertex.
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
