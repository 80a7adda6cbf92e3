package dataflow_test

import (
	"testing"

	"hgmatch/internal/core"
	"hgmatch/internal/dataflow"
	"hgmatch/internal/hgtest"
)

func fig1Graph(t *testing.T) *dataflow.Graph {
	t.Helper()
	p, err := core.NewPlan(hgtest.Fig1Query(), hgtest.Fig1Data())
	if err != nil {
		t.Fatal(err)
	}
	return dataflow.FromPlan(p)
}

func TestFromPlanShape(t *testing.T) {
	g := fig1Graph(t)
	kinds := []dataflow.OpKind{dataflow.OpScan, dataflow.OpExpand, dataflow.OpExpand, dataflow.OpSink}
	if len(g.Ops) != len(kinds) {
		t.Fatalf("ops = %d, want %d", len(g.Ops), len(kinds))
	}
	for i, k := range kinds {
		if g.Ops[i].Kind != k {
			t.Errorf("op %d = %v, want %v", i, g.Ops[i].Kind, k)
		}
	}
}

// TestExplainMatchesFig5a checks the rendering against the paper's Fig. 5a
// dataflow graph: SCAN({u2,u4}) -> EXPAND({u0,u1,u2}) ->
// EXPAND({u0,u1,u3,u4}) -> SINK.
func TestExplainMatchesFig5a(t *testing.T) {
	g := fig1Graph(t)
	got := g.Explain()
	want := "SCAN({u2,u4}) -> EXPAND({u0,u1,u2}) -> EXPAND({u0,u1,u3,u4}) -> SINK"
	if got != want {
		t.Errorf("Explain:\n got %q\nwant %q", got, want)
	}
}

func TestOpKindString(t *testing.T) {
	names := map[dataflow.OpKind]string{
		dataflow.OpScan:   "SCAN",
		dataflow.OpExpand: "EXPAND",
		dataflow.OpSink:   "SINK",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q", int(k), k.String())
		}
	}
	if dataflow.OpKind(99).String() != "OP(99)" {
		t.Error("unknown kind formatting")
	}
}
