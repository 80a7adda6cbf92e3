// Package core implements the match-by-hyperedge framework of HGMatch
// (paper §V): the matching-order planner (Algorithm 3), candidate
// generation over posting lists with set operations (Algorithm 4,
// Observations V.1–V.4), and the vertex-profile embedding validation
// (Algorithm 5, Theorem V.2). A compiled Plan is read-only at execution
// time so expansions can run on any number of goroutines without
// synchronisation.
package core

import (
	"errors"
	"fmt"

	"hgmatch/internal/hypergraph"
	"hgmatch/internal/setops"
)

// ErrDisconnectedQuery is returned when the query hypergraph has no
// connected matching order. The paper (like virtually all subgraph-matching
// work) assumes connected queries; disconnected ones should be split and
// joined by Cartesian product by the caller.
var ErrDisconnectedQuery = errors.New("core: query hypergraph is not connected")

// querySigs holds, for every query hyperedge, S(e) and its interned
// data-side SigID. It is computed exactly once per compile — one signature
// build and one allocation-free hash probe per query hyperedge — and then
// threaded through order search and step compilation, which from here on
// deal in integer IDs only.
type querySigs struct {
	sigs []hypergraph.Signature
	ids  []hypergraph.SigID // NoSigID when no data hyperedge carries the signature
}

// computeQuerySigs interns every query hyperedge signature against the
// data graph's signature table. All signatures share one backing array.
func computeQuerySigs(q, h *hypergraph.Hypergraph) querySigs {
	n := q.NumEdges()
	qs := querySigs{
		sigs: make([]hypergraph.Signature, n),
		ids:  make([]hypergraph.SigID, n),
	}
	backing := make(hypergraph.Signature, 0, q.TotalArity())
	for e := 0; e < n; e++ {
		start := len(backing)
		backing = hypergraph.AppendSignature(backing, q.Edge(uint32(e)), q.Labels())
		qs.sigs[e] = backing[start:len(backing):len(backing)]
		if id, ok := h.LookupSig(qs.sigs[e]); ok {
			qs.ids[e] = id
		} else {
			qs.ids[e] = hypergraph.NoSigID
		}
	}
	return qs
}

// partFor resolves the data hyperedge table matching query hyperedge qe,
// honouring edge labels when both graphs carry them (the footnote-2
// extension); the empty table when none matches.
func (qs *querySigs) partFor(q, h *hypergraph.Hypergraph, qe hypergraph.EdgeID) hypergraph.Partition {
	id := qs.ids[qe]
	if id == hypergraph.NoSigID {
		return hypergraph.Partition{}
	}
	if q.EdgeLabelled() && h.EdgeLabelled() {
		return h.PartitionBySigLabelled(q.EdgeLabel(qe), id)
	}
	return h.PartitionBySig(id)
}

// cardinalities returns Card(e, H) per query hyperedge — an O(1)
// table-length fetch per interned SigID (Definition V.2).
func (qs *querySigs) cardinalities(h *hypergraph.Hypergraph) []int {
	card := make([]int, len(qs.ids))
	for e, id := range qs.ids {
		if id != hypergraph.NoSigID {
			card[e] = h.CardinalityBySig(id)
		}
	}
	return card
}

// ComputeMatchingOrder implements Algorithm 3: it returns a permutation ϕ
// of E(q) that starts at the query hyperedge of minimum cardinality in H
// (Definition V.2) and greedily appends the connected hyperedge minimising
// Card(e,H) / |Vϕ ∩ e|, i.e. preferring infrequent and highly connected
// hyperedges early. Cardinality lookups are O(1) table-size fetches via
// the interned signature table.
//
// Ties are broken by smaller edge ID so orders are deterministic.
func ComputeMatchingOrder(q, h *hypergraph.Hypergraph) ([]hypergraph.EdgeID, error) {
	qs := computeQuerySigs(q, h)
	return orderFromCards(q, qs.cardinalities(h))
}

// orderFromCards runs Algorithm 3's greedy search over precomputed
// cardinalities. The produced order is connected by construction.
func orderFromCards(q *hypergraph.Hypergraph, card []int) ([]hypergraph.EdgeID, error) {
	n := q.NumEdges()
	if n == 0 {
		return nil, errors.New("core: empty query")
	}

	// Line 1: starting hyperedge of minimal cardinality.
	start := hypergraph.EdgeID(0)
	for e := 1; e < n; e++ {
		if card[e] < card[start] {
			start = hypergraph.EdgeID(e)
		}
	}
	order := make([]hypergraph.EdgeID, 0, n)
	order = append(order, start)
	inOrder := make([]bool, n)
	inOrder[start] = true

	// Vϕ: vertices covered by the partial order, as a sorted set, with a
	// double buffer so the per-step unions allocate nothing.
	vphi := make([]uint32, 0, q.NumVertices())
	scratch := make([]uint32, 0, q.NumVertices())
	vphi = append(vphi, q.Edge(start)...)

	// Lines 3-5: iteratively add the connected edge with the best
	// cardinality-to-connectivity ratio.
	for len(order) < n {
		bestE := -1
		var bestNum, bestDen int // compare card/overlap as cross products
		for e := 0; e < n; e++ {
			if inOrder[e] {
				continue
			}
			overlap := setops.IntersectCount(vphi, q.Edge(uint32(e)))
			if overlap == 0 {
				continue
			}
			if bestE < 0 || card[e]*bestDen < bestNum*overlap {
				bestE, bestNum, bestDen = e, card[e], overlap
			}
		}
		if bestE < 0 {
			return nil, ErrDisconnectedQuery
		}
		order = append(order, hypergraph.EdgeID(bestE))
		inOrder[bestE] = true
		scratch = setops.Union(scratch[:0], vphi, q.Edge(uint32(bestE)))
		vphi, scratch = scratch, vphi
	}
	return order, nil
}

// ValidateOrder checks that order is a connected permutation of E(q);
// HGMatch can execute any connected matching order (paper §V-A).
func ValidateOrder(q *hypergraph.Hypergraph, order []hypergraph.EdgeID) error {
	if len(order) != q.NumEdges() {
		return fmt.Errorf("core: order has %d edges, query has %d", len(order), q.NumEdges())
	}
	seen := make([]bool, q.NumEdges())
	var vphi []uint32
	for i, e := range order {
		if int(e) >= q.NumEdges() {
			return fmt.Errorf("core: order refers to unknown query edge %d", e)
		}
		if seen[e] {
			return fmt.Errorf("core: order repeats query edge %d", e)
		}
		seen[e] = true
		if i > 0 && !setops.ContainsAny(vphi, q.Edge(e)) {
			return fmt.Errorf("core: order is disconnected at position %d (edge %d)", i, e)
		}
		vphi = setops.Union(vphi[:0:0], vphi, q.Edge(e))
	}
	return nil
}
