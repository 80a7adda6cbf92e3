package core

import (
	"reflect"
	"testing"

	"hgmatch/internal/hypergraph"
)

// retainedBytes sums the backing capacity of every slice a Scratch holds,
// nested ones included, and the entries of any map: what the Scratch keeps
// alive between Expand calls.
func retainedBytes(sc *Scratch) int {
	var walk func(v reflect.Value) int
	walk = func(v reflect.Value) int {
		n := 0
		switch v.Kind() {
		case reflect.Slice:
			n += v.Cap() * int(v.Type().Elem().Size())
			for i := 0; i < v.Len(); i++ {
				n += walk(v.Index(i))
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				n += walk(v.Field(i))
			}
		case reflect.Map:
			n += v.Len() * int(v.Type().Key().Size()+v.Type().Elem().Size())
		}
		return n
	}
	return walk(reflect.ValueOf(sc).Elem())
}

// TestScratchSizedByQuery: a Scratch's retained memory after an Expand
// does not depend on how many vertices the data graph has. The same
// graph padded with 10⁵ and with 10⁶ isolated vertices, expanded over the
// same partial embedding at every depth, leaves the same bytes behind.
func TestScratchSizedByQuery(t *testing.T) {
	q, h, order := maskShape(false)
	var got []int
	for _, pad := range []int{100_000, 1_000_000} {
		b := hypergraph.NewBuilder()
		for v := 0; v < h.NumVertices(); v++ {
			b.AddVertex(h.Label(uint32(v)))
		}
		for i := 0; i < pad; i++ {
			b.AddVertex(0)
		}
		for e := 0; e < h.NumEdges(); e++ {
			b.AddEdge(h.Edge(hypergraph.EdgeID(e))...)
		}
		p, err := NewPlanWithOrder(q, b.MustBuild(), order)
		if err != nil {
			t.Fatal(err)
		}
		sc := NewScratch()
		m := make([]hypergraph.EdgeID, len(order))
		m[0] = p.InitialCandidates()[0]
		for depth := 1; depth < len(order); depth++ {
			var next []hypergraph.EdgeID
			p.Expand(depth, m, sc, &Counters{}, func(c hypergraph.EdgeID) { next = append(next, c) })
			if len(next) == 0 {
				t.Fatalf("pad %d: no extension at depth %d", pad, depth)
			}
			m[depth] = next[0]
		}
		got = append(got, retainedBytes(sc))
	}
	if got[0] != got[1] {
		t.Fatalf("a Scratch retains %d B over 10⁵ padding vertices and %d B over 10⁶: its tables follow the graph", got[0], got[1])
	}
	t.Logf("retained %d B either way", got[0])
}
