package hgmatch_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"hgmatch"
)

// fig1 builds the paper's Fig. 1 example through the public API.
func fig1(t *testing.T) (q, h *hgmatch.Hypergraph) {
	t.Helper()
	const (
		A hgmatch.Label = 0
		B hgmatch.Label = 1
		C hgmatch.Label = 2
	)
	var err error
	h, err = hgmatch.FromEdges(
		[]hgmatch.Label{A, C, A, A, B, C, A},
		[][]uint32{{2, 4}, {4, 6}, {0, 1, 2}, {3, 5, 6}, {0, 1, 4, 6}, {2, 3, 4, 5}},
	)
	if err != nil {
		t.Fatal(err)
	}
	q, err = hgmatch.FromEdges(
		[]hgmatch.Label{A, C, A, A, B},
		[][]uint32{{2, 4}, {0, 1, 2}, {0, 1, 3, 4}},
	)
	if err != nil {
		t.Fatal(err)
	}
	return q, h
}

func TestMatchFig1(t *testing.T) {
	q, h := fig1(t)
	res, err := hgmatch.Match(q, h, hgmatch.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Embeddings != 2 {
		t.Fatalf("Embeddings = %d, want 2", res.Embeddings)
	}
	if res.Elapsed <= 0 {
		t.Error("Elapsed not set")
	}
	n, err := hgmatch.Count(q, h)
	if err != nil || n != 2 {
		t.Fatalf("Count = %d, %v", n, err)
	}
}

func TestPlanExplainAndOrder(t *testing.T) {
	q, h := fig1(t)
	p, err := hgmatch.Compile(q, h)
	if err != nil {
		t.Fatal(err)
	}
	if p.Empty() {
		t.Error("plan should not be empty")
	}
	ex := p.Explain()
	if !strings.HasPrefix(ex, "SCAN(") || !strings.HasSuffix(ex, "SINK") {
		t.Errorf("Explain = %q", ex)
	}
	if len(p.Order()) != 3 {
		t.Errorf("Order = %v", p.Order())
	}
	// Re-running a plan is allowed and deterministic.
	a := p.Run()
	b := p.Run(hgmatch.WithWorkers(3))
	if a.Embeddings != b.Embeddings {
		t.Error("plan reuse changed results")
	}
}

func TestCompileWithOrder(t *testing.T) {
	q, h := fig1(t)
	p, err := hgmatch.CompileWithOrder(q, h, []hgmatch.EdgeID{2, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if r := p.Run(); r.Embeddings != 2 {
		t.Errorf("custom order embeddings = %d", r.Embeddings)
	}
	if _, err := hgmatch.CompileWithOrder(q, h, []hgmatch.EdgeID{0, 0, 1}); err == nil {
		t.Error("bad order accepted")
	}
}

func TestCallbackAndVerify(t *testing.T) {
	q, h := fig1(t)
	p, err := hgmatch.Compile(q, h)
	if err != nil {
		t.Fatal(err)
	}
	var got [][]hgmatch.EdgeID
	p.Run(hgmatch.WithCallback(func(m []hgmatch.EdgeID) {
		got = append(got, append([]hgmatch.EdgeID(nil), m...))
	}))
	if len(got) != 2 {
		t.Fatalf("callback saw %d embeddings", len(got))
	}
	for _, m := range got {
		if !hgmatch.VerifyEmbedding(q, h, p.Order(), m) {
			t.Errorf("embedding %v fails Definition III.3", m)
		}
	}
}

func TestFilterGroupLimitTimeout(t *testing.T) {
	q, h := fig1(t)
	res, err := hgmatch.Match(q, h, hgmatch.WithFilter(func(m []hgmatch.EdgeID) bool {
		return m[0] == 0 // keep only the (e1,...) embedding
	}))
	if err != nil || res.Embeddings != 1 {
		t.Errorf("filter: %d embeddings, err %v", res.Embeddings, err)
	}

	res, err = hgmatch.Match(q, h, hgmatch.WithGroupBy(func(m []hgmatch.EdgeID) string {
		if m[0] == 0 {
			return "first"
		}
		return "second"
	}))
	if err != nil || len(res.Groups) != 2 {
		t.Errorf("groupby: %v, err %v", res.Groups, err)
	}

	res, _ = hgmatch.Match(q, h, hgmatch.WithLimit(1))
	if res.Embeddings != 1 {
		t.Errorf("limit: %d", res.Embeddings)
	}

	res, _ = hgmatch.Match(q, h, hgmatch.WithTimeout(time.Minute))
	if res.TimedOut {
		t.Error("spurious timeout")
	}
}

func TestSchedulersAndStealingOptions(t *testing.T) {
	q, h := fig1(t)
	for _, opt := range [][]hgmatch.Option{
		{hgmatch.WithWorkers(3)},
		{hgmatch.WithWorkers(1)},
	} {
		res, err := hgmatch.Match(q, h, opt...)
		if err != nil || res.Embeddings != 2 {
			t.Errorf("opts %v: %d embeddings, err %v", opt, res.Embeddings, err)
		}
	}
}

func TestLoadSaveRoundTrip(t *testing.T) {
	_, h := fig1(t)
	var buf bytes.Buffer
	if err := hgmatch.Save(&buf, h); err != nil {
		t.Fatal(err)
	}
	h2, err := hgmatch.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h2.NumEdges() != h.NumEdges() || h2.NumVertices() != h.NumVertices() {
		t.Error("round trip changed the graph")
	}
}

func TestBuilderAPI(t *testing.T) {
	d := hgmatch.NewDict()
	b := hgmatch.NewBuilder().WithDicts(d, nil)
	p := b.AddVertex(d.Intern("Protein"))
	c := b.AddVertex(d.Intern("Complex"))
	b.AddEdge(p, c)
	h, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	st := hgmatch.ComputeStats(h)
	if st.NumVertices != 2 || st.NumEdges != 1 || st.NumLabels != 2 {
		t.Errorf("Stats = %+v", st)
	}
}

func TestDisconnectedQueryError(t *testing.T) {
	_, h := fig1(t)
	q, err := hgmatch.FromEdges([]hgmatch.Label{0, 0, 0, 0}, [][]uint32{{0, 1}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hgmatch.Match(q, h); err == nil {
		t.Error("disconnected query accepted")
	}
}

func TestCounterFunnel(t *testing.T) {
	q, h := fig1(t)
	res, err := hgmatch.Match(q, h)
	if err != nil {
		t.Fatal(err)
	}
	if res.Candidates < res.Filtered || res.Filtered < res.Embeddings {
		t.Errorf("funnel violated: %+v", res)
	}
	if res.PeakTasks <= 0 {
		t.Errorf("PeakTasks = %d", res.PeakTasks)
	}
}

func TestVersion(t *testing.T) {
	if hgmatch.Version == "" {
		t.Error("empty version")
	}
}
