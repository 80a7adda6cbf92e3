package querygen_test

import (
	"math/rand"
	"testing"

	"hgmatch/internal/core"
	"hgmatch/internal/datagen"
	"hgmatch/internal/hgtest"
	"hgmatch/internal/querygen"
)

func TestSettingsMatchTable3(t *testing.T) {
	ss := querygen.Settings()
	want := []querygen.Setting{
		{Name: "q2", NumEdges: 2, MinVertices: 5, MaxVertices: 15},
		{Name: "q3", NumEdges: 3, MinVertices: 10, MaxVertices: 20},
		{Name: "q4", NumEdges: 4, MinVertices: 10, MaxVertices: 30},
		{Name: "q6", NumEdges: 6, MinVertices: 15, MaxVertices: 35},
	}
	if len(ss) != len(want) {
		t.Fatalf("%d settings", len(ss))
	}
	for i := range want {
		if ss[i] != want[i] {
			t.Errorf("setting %d = %+v, want %+v", i, ss[i], want[i])
		}
	}
	if _, ok := querygen.SettingByName("q4"); !ok {
		t.Error("SettingByName(q4) failed")
	}
	if _, ok := querygen.SettingByName("q5"); ok {
		t.Error("SettingByName(q5) succeeded")
	}
}

func TestSampleProperties(t *testing.T) {
	p, _ := datagen.ProfileByName("SB")
	h := datagen.Generate(p.Scaled(0.1), 3)
	rng := rand.New(rand.NewSource(1))
	for _, s := range querygen.Settings() {
		for i := 0; i < 5; i++ {
			q := querygen.Sample(rng, h, s)
			if q == nil {
				t.Fatalf("%s: Sample returned nil", s.Name)
			}
			if q.NumEdges() != s.NumEdges {
				t.Errorf("%s: query has %d edges, want %d", s.Name, q.NumEdges(), s.NumEdges)
			}
			if err := q.Validate(); err != nil {
				t.Fatal(err)
			}
			// Connected (plan computation requires it).
			if _, err := core.NewPlan(q, h); err != nil {
				t.Errorf("%s: sampled query not usable: %v", s.Name, err)
			}
		}
	}
}

// TestSampledQueriesHaveEmbeddings: queries are sampled subhypergraphs, so
// each must match at least once in its data hypergraph (the paper relies on
// this for its workload).
func TestSampledQueriesHaveEmbeddings(t *testing.T) {
	p, _ := datagen.ProfileByName("CH")
	h := datagen.Generate(p.Scaled(0.2), 9)
	rng := rand.New(rand.NewSource(2))
	s, _ := querygen.SettingByName("q3")
	for i := 0; i < 10; i++ {
		q := querygen.Sample(rng, h, s)
		if q == nil {
			t.Fatal("nil query")
		}
		plan, err := core.NewPlan(q, h)
		if err != nil {
			t.Fatal(err)
		}
		n, _ := plan.CountSequential()
		if n == 0 {
			t.Fatalf("sampled query %d has no embedding", i)
		}
	}
}

func TestSampleManyAndVertexRange(t *testing.T) {
	// On the Fig.1 toy graph, q2's vertex range [5,15] may require the
	// relaxation path; the query must still have 2 edges.
	h := hgtest.Fig1Data()
	rng := rand.New(rand.NewSource(3))
	s, _ := querygen.SettingByName("q2")
	qs := querygen.SampleMany(rng, h, s, 5)
	if len(qs) != 5 {
		t.Fatalf("SampleMany returned %d", len(qs))
	}
	for _, q := range qs {
		if q == nil || q.NumEdges() != 2 {
			t.Fatalf("bad sampled query %v", q)
		}
	}
}

func TestSampleImpossible(t *testing.T) {
	// Single-edge hypergraph cannot yield a 3-edge connected query.
	h := hgtest.Fig1Query() // any small graph
	rng := rand.New(rand.NewSource(4))
	q := querygen.Sample(rng, h, querygen.Setting{Name: "x", NumEdges: 99, MinVertices: 1, MaxVertices: 1000})
	if q != nil {
		t.Fatal("expected nil for impossible setting")
	}
}

func TestSampleDeterministicPerSeed(t *testing.T) {
	p, _ := datagen.ProfileByName("CP")
	h := datagen.Generate(p.Scaled(0.1), 5)
	s, _ := querygen.SettingByName("q3")
	q1 := querygen.Sample(rand.New(rand.NewSource(7)), h, s)
	q2 := querygen.Sample(rand.New(rand.NewSource(7)), h, s)
	if q1.NumVertices() != q2.NumVertices() || q1.NumEdges() != q2.NumEdges() {
		t.Fatal("same seed produced different queries")
	}
}
