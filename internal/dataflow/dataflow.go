// Package dataflow models HGMatch's execution plans as dataflow graphs
// (paper §VI-A): a directed path of operators SCAN → EXPAND* → SINK, where
// SCAN emits the matches of the first query hyperedge, each EXPAND extends
// partial embeddings by one hyperedge, and SINK consumes results by
// counting or collecting.
//
// The paper notes the dataflow design "makes it highly customizable and
// allows it to be easily extended with other functionalities of hypergraph
// databases ... by introducing new dataflow operators. Examples include
// adding extra aggregation and property filtering." This package defines
// the signatures of those two extension operators (Predicate for FILTER,
// KeyFunc for AGGREGATE); the engine applies them at its sink.
package dataflow

import (
	"fmt"
	"strings"

	"hgmatch/internal/core"
	"hgmatch/internal/hypergraph"
)

// OpKind enumerates dataflow operator kinds.
type OpKind int

const (
	// OpScan is the first operator: SCAN(e_q) iterates one hyperedge
	// partition and outputs all data hyperedges with signature S(e_q).
	OpScan OpKind = iota
	// OpExpand extends each input partial embedding by one matched
	// hyperedge (candidate generation + validation).
	OpExpand
	// OpSink consumes the results (count or collect).
	OpSink
)

func (k OpKind) String() string {
	switch k {
	case OpScan:
		return "SCAN"
	case OpExpand:
		return "EXPAND"
	case OpSink:
		return "SINK"
	default:
		return fmt.Sprintf("OP(%d)", int(k))
	}
}

// Predicate decides whether a complete embedding (edge tuple aligned with
// the plan's matching order) passes a FILTER operator. Implementations must
// be safe for concurrent calls and must not retain m.
type Predicate func(m []hypergraph.EdgeID) bool

// KeyFunc maps an embedding to an aggregation key for AGGREGATE.
// Implementations must be safe for concurrent calls and must not retain m.
type KeyFunc func(m []hypergraph.EdgeID) string

// Operator is one vertex of the dataflow graph.
type Operator struct {
	Kind OpKind
	// QueryEdge is the query hyperedge this SCAN/EXPAND matches.
	QueryEdge hypergraph.EdgeID
}

// Graph is a compiled dataflow graph: a directed path of operators over a
// core.Plan.
type Graph struct {
	Plan *core.Plan
	Ops  []Operator
}

// FromPlan builds the canonical HGMatch dataflow graph for a plan:
// SCAN(ϕ[0]) → EXPAND(ϕ[1]) → ... → EXPAND(ϕ[n-1]) → SINK (paper Fig. 5a).
func FromPlan(p *core.Plan) *Graph {
	g := &Graph{Plan: p}
	g.Ops = append(g.Ops, Operator{Kind: OpScan, QueryEdge: p.Order[0]})
	for i := 1; i < p.NumSteps(); i++ {
		g.Ops = append(g.Ops, Operator{Kind: OpExpand, QueryEdge: p.Order[i]})
	}
	g.Ops = append(g.Ops, Operator{Kind: OpSink})
	return g
}

// Explain renders the dataflow graph like the paper's Fig. 5a, e.g.
//
//	SCAN({u2,u4}) -> EXPAND({u0,u1,u2}) -> EXPAND({u0,u1,u3,u4}) -> SINK
func (g *Graph) Explain() string {
	var parts []string
	for _, op := range g.Ops {
		if op.Kind == OpSink {
			parts = append(parts, op.Kind.String())
		} else {
			parts = append(parts, fmt.Sprintf("%s(%s)", op.Kind, formatQueryEdge(g.Plan.Query, op.QueryEdge)))
		}
	}
	return strings.Join(parts, " -> ")
}

func formatQueryEdge(q *hypergraph.Hypergraph, e hypergraph.EdgeID) string {
	var b strings.Builder
	b.WriteByte('{')
	for i, v := range q.Edge(e) {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "u%d", v)
	}
	b.WriteByte('}')
	return b.String()
}
