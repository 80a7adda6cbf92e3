package core_test

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"maps"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"hgmatch/internal/core"
	"hgmatch/internal/datagen"
	"hgmatch/internal/hgio"
	"hgmatch/internal/hypergraph"
	"hgmatch/internal/querygen"
)

// smallTableCutoffs are the small-table cutoffs TestSmallTableScanDifferential
// compares: an index on every table, the default, and every table of up to
// 16 edges scanned.
var smallTableCutoffs = []int{0, hypergraph.SmallTableMax, 16}

// TestSmallTableScanDifferential pins Algorithm 4's member scan on tables
// without an index to the index it replaces. Under each cutoff in
// smallTableCutoffs it builds TC×0.05, HC and SB×0.2, obtains each graph
// by every constructor (Build, heap HGB2, heap HGB3, MapFile) and through
// every publish shape of a DeltaBuffer (inserts into a small table, a
// small table grown past 16 edges online, a delete and its resurrection, a
// table emptied by tombstones, Compacted), and records per query the
// estimated cost, every Expand's candidate set, the Counters and the
// embedding count, plus the base edge the buffer's dedup finds for each
// probe. Every record must be identical under every cutoff.
func TestSmallTableScanDifferential(t *testing.T) {
	var want map[string]string
	for _, k := range smallTableCutoffs {
		got := smallTableRecords(t, k)
		if want == nil {
			want = got
			continue
		}
		for _, key := range slices.Sorted(maps.Keys(want)) {
			if got[key] != want[key] {
				t.Errorf("cutoff %d, %s: %s; with every table indexed: %s", k, key, got[key], want[key])
			}
		}
		if len(got) != len(want) {
			t.Errorf("cutoff %d records %d results, with every table indexed %d", k, len(got), len(want))
		}
	}
}

// smallTableRecords builds everything under cutoff k and returns each
// result keyed by dataset, graph and query.
func smallTableRecords(t *testing.T, k int) map[string]string {
	defer hypergraph.ForceScanMax(k)()
	out := map[string]string{}
	sawScan := false
	for _, ds := range []struct {
		name  string
		scale float64
	}{{"TC", 0.05}, {"HC", 1}, {"SB", 0.2}} {
		p, _ := datagen.ProfileByName(ds.name)
		built := datagen.Generate(p.Scaled(ds.scale), 40)
		rng := rand.New(rand.NewSource(41))
		var queries []*hypergraph.Hypergraph
		for _, name := range []string{"q2", "q3", "q4"} {
			s, _ := querygen.SettingByName(name)
			for _, q := range querygen.SampleMany(rng, built, s, 3) {
				if q != nil {
					queries = append(queries, q)
				}
			}
		}
		record := func(what string, g *hypergraph.Hypergraph, extra ...*hypergraph.Hypergraph) {
			t.Helper()
			if err := g.Validate(); err != nil {
				t.Fatalf("cutoff %d, %s/%s: %v", k, ds.name, what, err)
			}
			for qi, q := range append(slices.Clone(queries), extra...) {
				rec, scanned := expansionRecord(t, q, g, qi >= len(queries))
				sawScan = sawScan || scanned
				out[fmt.Sprintf("%s/%s/query %d", ds.name, what, qi)] = rec
			}
		}
		record("build", built)
		for _, c := range []struct {
			name  string
			write func(*bytes.Buffer, *hypergraph.Hypergraph) error
		}{
			{"heap HGB2", func(b *bytes.Buffer, h *hypergraph.Hypergraph) error { return hgio.WriteBinary(b, h) }},
			{"heap HGB3", func(b *bytes.Buffer, h *hypergraph.Hypergraph) error { return hgio.WriteBinaryV3(b, h) }},
		} {
			var buf bytes.Buffer
			if err := c.write(&buf, built); err != nil {
				t.Fatal(err)
			}
			g, err := hgio.ReadBinary(&buf)
			if err != nil {
				t.Fatalf("cutoff %d, %s/%s: %v", k, ds.name, c.name, err)
			}
			record(c.name, g)
		}
		path := filepath.Join(t.TempDir(), "g.hgb3")
		if err := hgio.WriteBinaryV3File(path, built); err != nil {
			t.Fatal(err)
		}
		m, err := hgio.MapFile(path, hgio.MapOptions{})
		if err != nil {
			t.Fatalf("cutoff %d, %s: MapFile: %v", k, ds.name, err)
		}
		record("MapFile", m.Graph())
		publishShapes(t, built, out, ds.name, record)
		if err := m.Release(); err != nil {
			t.Fatal(err)
		}
	}
	if k > 0 && !sawScan {
		t.Fatalf("cutoff %d: no step scanned a table", k)
	}
	return out
}

// publishShapes drives a DeltaBuffer over base through the publish shapes
// that touch small tables, records each snapshot's answers through
// record, and records what the buffer's dedup finds for every base edge
// and for vertex sets that are no edge. Tables are picked by their size
// alone, so every cutoff walks the same shapes.
func publishShapes(t *testing.T, base *hypergraph.Hypergraph, out map[string]string, ds string, record func(string, *hypergraph.Hypergraph, ...*hypergraph.Hypergraph)) {
	t.Helper()
	buf, err := hypergraph.NewDeltaBuffer(base)
	if err != nil {
		t.Fatal(err)
	}
	out[ds+"/dedup"] = dedupRecord(t, buf, base)

	two, one := tableOfLen(base, 2), tableOfLen(base, 1)
	if two < 0 || one < 0 {
		t.Fatalf("%s has no table of one or of two edges", ds)
	}
	members := func(pi int) []hypergraph.EdgeID {
		p := base.Partition(pi)
		return slices.Clone(p.Edges)
	}
	rng := rand.New(rand.NewSource(42))
	insert := func(like hypergraph.EdgeID) hypergraph.EdgeID {
		t.Helper()
		for {
			vs, ok := sameSignatureSet(rng, buf.Snapshot(), like)
			if !ok {
				t.Fatalf("%s: no fresh edge with the signature of edge %d", ds, like)
			}
			if e, added, err := buf.Insert(vs...); err != nil {
				t.Fatal(err)
			} else if added {
				return e
			}
		}
	}
	// A query {an edge adjacent to e, e}, matched in that order, reads e's
	// table at depth 1.
	probe := func(e hypergraph.EdgeID) *hypergraph.Hypergraph {
		s := buf.Publish()
		if adj := s.AdjacentEdges(e); len(adj) > 0 {
			return edgeQuery(s, adj[0], e)
		}
		return edgeQuery(s, e)
	}

	var added, grown hypergraph.EdgeID
	steps := []struct {
		name string
		do   func() *hypergraph.Hypergraph
	}{
		{"insert into a two-edge table", func() *hypergraph.Hypergraph {
			added = insert(members(two)[0])
			return probe(added)
		}},
		{"grow a one-edge table past 16 edges", func() *hypergraph.Hypergraph {
			for i := 0; i < 17; i++ {
				grown = insert(members(one)[0])
			}
			return probe(members(one)[0])
		}},
		{"delete from the grown table", func() *hypergraph.Hypergraph {
			if ok, err := buf.Delete(base.Edge(members(one)[0])...); err != nil || !ok {
				t.Fatalf("%s: delete: %v %v", ds, ok, err)
			}
			return probe(grown)
		}},
		{"resurrect it", func() *hypergraph.Hypergraph {
			if _, added, err := buf.Insert(base.Edge(members(one)[0])...); err != nil || !added {
				t.Fatalf("%s: resurrect: %v %v", ds, added, err)
			}
			return probe(members(one)[0])
		}},
		{"empty the two-edge table by tombstones", func() *hypergraph.Hypergraph {
			s := buf.Publish()
			for _, e := range append(members(two), added) {
				if ok, err := buf.Delete(s.Edge(e)...); err != nil || !ok {
					t.Fatalf("%s: delete: %v %v", ds, ok, err)
				}
			}
			return probe(members(two)[0])
		}},
	}
	for _, st := range steps {
		q := st.do()
		snap := buf.Publish()
		record(st.name, snap, q)
		out[ds+"/"+st.name+"/dedup"] = dedupRecord(t, buf, base)
	}
	compacted, err := buf.Publish().Compacted()
	if err != nil {
		t.Fatal(err)
	}
	record("Compacted", compacted)
}

// expansionRecord matches q on g — in Algorithm 3's order, or in q's own
// edge order when given — depth first, and renders the estimated cost,
// the Counters, the embedding count and a digest of every Expand's
// candidate set. The walk stops after expansionBudget expansions, at the
// same place under every cutoff. It also reports whether some step scans
// its table's base.
func expansionRecord(t *testing.T, q, g *hypergraph.Hypergraph, inOrder bool) (string, bool) {
	t.Helper()
	var p *core.Plan
	var err error
	if inOrder {
		order := make([]hypergraph.EdgeID, q.NumEdges())
		for i := range order {
			order[i] = hypergraph.EdgeID(i)
		}
		p, err = core.NewPlanWithOrder(q, g, order)
	} else {
		p, err = core.NewPlan(q, g)
	}
	if err != nil {
		t.Fatal(err)
	}
	scanned := false
	for i := 1; i < p.NumSteps(); i++ {
		scanned = scanned || p.StepScansBase(i)
	}
	if p.Empty {
		return fmt.Sprintf("cost %d, empty", p.EstimateCost()), scanned
	}
	digest := fnv.New64a()
	var ct core.Counters
	sc, csc := core.NewScratch(), core.NewScratch()
	m := make([]hypergraph.EdgeID, p.NumSteps())
	var cand []hypergraph.EdgeID
	var count uint64
	budget := expansionBudget
	var visit func(depth int)
	visit = func(depth int) {
		if depth == p.NumSteps() {
			count++
			return
		}
		if budget == 0 {
			return
		}
		budget--
		cand = p.CandidatesInto(cand[:0], depth, m, csc)
		fmt.Fprint(digest, depth, cand)
		var next []hypergraph.EdgeID
		p.Expand(depth, m, sc, &ct, func(c hypergraph.EdgeID) { next = append(next, c) })
		for _, c := range next {
			m[depth] = c
			visit(depth + 1)
		}
	}
	for _, e := range p.InitialCandidates() {
		m[0] = e
		visit(1)
	}
	return fmt.Sprintf("cost %d, %d embeddings, %+v, candidates %x", p.EstimateCost(), count, ct, digest.Sum64()), scanned
}

// expansionBudget bounds the Expand calls expansionRecord makes per query.
const expansionBudget = 1500

// dedupRecord renders what buf's dedup finds: for every live base edge,
// the ID and added flag a re-insert returns (it must find the edge), and
// for vertex sets with a base signature that are no edge, whether a delete
// finds one (it must not).
func dedupRecord(t *testing.T, buf *hypergraph.DeltaBuffer, base *hypergraph.Hypergraph) string {
	t.Helper()
	s := buf.Publish()
	digest := fnv.New64a()
	for e := hypergraph.EdgeID(0); int(e) < base.NumEdges(); e++ {
		if s.IsDeadEdge(e) {
			continue
		}
		id, added, err := buf.Insert(base.Edge(e)...)
		if err != nil || added || id != e {
			t.Fatalf("re-inserting base edge %d: %d %v %v", e, id, added, err)
		}
		fmt.Fprint(digest, id)
	}
	rng := rand.New(rand.NewSource(43))
	misses := 0
	for i := 0; i < 200; i++ {
		vs, ok := sameSignatureSet(rng, s, hypergraph.EdgeID(rng.Intn(base.NumEdges())))
		if _, found := s.FindEdge(vs); !ok || found {
			continue
		}
		if gone, err := buf.Delete(vs...); err != nil || gone {
			t.Fatalf("deleting %v, no edge: %v %v", vs, gone, err)
		}
		misses++
	}
	return fmt.Sprintf("%x, %d misses", digest.Sum64(), misses)
}

// tableOfLen returns the first table of h with exactly n members, or -1.
func tableOfLen(h *hypergraph.Hypergraph, n int) int {
	for pi := 0; pi < h.NumPartitions(); pi++ {
		if p := h.Partition(pi); p.Len() == n {
			return pi
		}
	}
	return -1
}

// sameSignatureSet returns edge like's vertex set with one vertex swapped
// for another of the same label: a set of the same signature.
func sameSignatureSet(rng *rand.Rand, h *hypergraph.Hypergraph, like hypergraph.EdgeID) ([]uint32, bool) {
	vs := slices.Clone(h.Edge(like))
	for try := 0; try < 64; try++ {
		i := rng.Intn(len(vs))
		w := uint32(rng.Intn(h.NumVertices()))
		if h.Label(w) != h.Label(vs[i]) || slices.Contains(vs, w) {
			continue
		}
		vs[i] = w
		slices.Sort(vs)
		return vs, true
	}
	return nil, false
}

// edgeQuery returns the query made of h's edges, in the given order, over
// fresh vertices carrying their data labels.
func edgeQuery(h *hypergraph.Hypergraph, edges ...hypergraph.EdgeID) *hypergraph.Hypergraph {
	b := hypergraph.NewBuilder()
	ids := map[uint32]uint32{}
	for _, e := range edges {
		var qe []uint32
		for _, v := range h.Edge(e) {
			id, ok := ids[v]
			if !ok {
				id = b.AddVertex(h.Label(v))
				ids[v] = id
			}
			qe = append(qe, id)
		}
		b.AddEdge(qe...)
	}
	return b.MustBuild()
}
