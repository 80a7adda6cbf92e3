package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"hgmatch/internal/datagen"
	"hgmatch/internal/hypergraph"
	"hgmatch/internal/querygen"
)

// referencePlan returns a copy of p whose every step validates with the
// sort-based validateStep.
func referencePlan(p *Plan) *Plan {
	r := *p
	r.steps = slices.Clone(p.steps)
	for i := range r.steps {
		r.steps[i].lanes = false
	}
	return &r
}

// validatorDiff walks one plan's embedding tree and checks, at every node it
// visits, that the three validators agree: the compiled lane kernel (p on a
// dense Scratch), the retained validateStep (ref, and p on a map-fallback
// Scratch) and, at the last step, VerifyEmbedding.
type validatorDiff struct {
	t      *testing.T
	q, h   *hypergraph.Hypergraph
	p, ref *Plan

	// Per depth: the Scratches of the three Expand runs plus one for the
	// per-candidate pass (recursion happens between Expand calls, never
	// inside one, but each depth still needs state of its own).
	lane, sorted, mapped, probe []*Scratch

	nodes    int // Expand calls left to visit
	verifies int // VerifyEmbedding calls left; 0 from the start when q makes it backtrack too long

	total    [3]Counters // lane, sorted, mapped: summed over visited nodes
	verified int         // VerifyEmbedding calls made
}

// verifyAffordable reports whether VerifyEmbedding's backtracking is cheap on
// q even for non-embeddings: it may try every permutation inside each class
// of interchangeable query vertices (same label, same incident hyperedges),
// for every combination across classes.
func verifyAffordable(q *hypergraph.Hypergraph) bool {
	type class struct {
		label    hypergraph.Label
		incident string
	}
	sizes := make(map[class]int)
	for v := 0; v < q.NumVertices(); v++ {
		sizes[class{q.Label(uint32(v)), fmt.Sprint(q.Incident(uint32(v)))}]++
	}
	cost := 1
	for _, n := range sizes {
		for ; n > 1 && cost <= 5000; n-- {
			cost *= n
		}
	}
	return cost <= 5000
}

func newValidatorDiff(t *testing.T, q, h *hypergraph.Hypergraph, p *Plan) *validatorDiff {
	d := &validatorDiff{t: t, q: q, h: h, p: p, ref: referencePlan(p), nodes: 400}
	if verifyAffordable(q) {
		d.verifies = 150
	}
	for range p.steps {
		d.lane = append(d.lane, NewScratch())
		d.sorted = append(d.sorted, NewScratch())
		d.mapped = append(d.mapped, &Scratch{forceMap: true})
		d.probe = append(d.probe, NewScratch())
	}
	return d
}

func (d *validatorDiff) run() {
	m := make([]hypergraph.EdgeID, d.p.NumSteps())
	for _, e := range d.p.InitialCandidates() {
		m[0] = e
		d.visit(1, m)
	}
}

func (d *validatorDiff) visit(depth int, m []hypergraph.EdgeID) {
	if depth == len(m) || d.nodes == 0 {
		return
	}
	d.nodes--
	t, p, ref := d.t, d.p, d.ref
	st := &p.steps[depth]

	// The real expand loop, three ways.
	var got [3][]hypergraph.EdgeID
	var ct [3]Counters
	for i, run := range []struct {
		plan *Plan
		sc   *Scratch
	}{{p, d.lane[depth]}, {ref, d.sorted[depth]}, {p, d.mapped[depth]}} {
		run.plan.Expand(depth, m, run.sc, &ct[i], func(c hypergraph.EdgeID) { got[i] = append(got[i], c) })
		d.total[i].Add(ct[i])
	}
	for i, name := range []string{"lane", "sorted", "map-fallback"} {
		if !slices.Equal(got[i], got[0]) || ct[i] != ct[0] {
			t.Fatalf("depth %d m=%v: %s run emitted %v with %+v; lane run emitted %v with %+v",
				depth, m[:depth], name, got[i], ct[i], got[0], ct[0])
		}
	}
	if n := p.CountValid(depth, m, d.probe[depth], &Counters{}); n != uint64(len(got[0])) {
		t.Fatalf("depth %d m=%v: CountValid = %d, Expand emitted %d", depth, m[:depth], n, len(got[0]))
	}

	// Per candidate. d.lane[depth] still describes m[:depth], lane tags
	// included, and d.sorted[depth] holds the same masks untagged.
	cands := p.candidates(st, depth, m, d.probe[depth])
	hmVerts := d.probe[depth].vlen()
	for _, c := range cands {
		if st.reuses(m, c) {
			continue
		}
		var rct Counters
		wantOK := ref.validateStep(&ref.steps[depth], depth, c, hmVerts, d.sorted[depth], &rct)
		wantV5 := rct.Filtered == 1
		if st.lanes {
			acc := d.lane[depth].laneWord(d.h.Edge(c))
			gotV5 := hmVerts+int(acc&laneMask) == st.qVerts
			gotOK := gotV5 && acc == st.wantLanes
			if gotV5 != wantV5 || gotOK != wantOK {
				t.Fatalf("depth %d m=%v candidate %d: lanes say V.5=%v valid=%v (word %#x, want %#x), validateStep says V.5=%v valid=%v",
					depth, m[:depth], c, gotV5, gotOK, acc, st.wantLanes, wantV5, wantOK)
			}
		}
		if depth == len(m)-1 && d.verifies > 0 {
			d.verifies--
			d.verified++
			m[depth] = c
			if VerifyEmbedding(d.q, d.h, p.Order, m) != wantOK {
				t.Fatalf("m=%v: validateStep says %v, VerifyEmbedding disagrees", m, wantOK)
			}
		}
	}

	// Descend into the first few valid children only: breadth comes from
	// the many queries, not from exhausting one.
	for _, c := range got[0][:min(len(got[0]), 3)] {
		m[depth] = c
		d.visit(depth+1, m)
	}
}

// TestValidatorDifferential runs the three validators side by side on random
// querygen queries over a bitmap-carrying dataset (SB) and an array-only one
// (TC), then compares whole-run Counters between the compiled plan and the
// reference plan.
func TestValidatorDifferential(t *testing.T) {
	for _, tc := range []struct {
		profile    string
		scale      float64
		wantBitmap bool
	}{{"SB", 0.2, true}, {"TC", 0.05, false}, {"HC", 1, false}} {
		prof, _ := datagen.ProfileByName(tc.profile)
		h := datagen.Generate(prof.Scaled(tc.scale), 3)
		var laneSteps, sortedSteps, bitmapSteps, candidates uint64
		verified := 0
		for _, setting := range []string{"q2", "q3", "q4", "q6"} {
			s, _ := querygen.SettingByName(setting)
			rng := rand.New(rand.NewSource(int64(s.NumEdges)))
			for _, q := range querygen.SampleMany(rng, h, s, 24) {
				p, err := NewPlan(q, h)
				if err != nil {
					t.Fatal(err)
				}
				for i := 1; i < len(p.steps); i++ {
					if p.steps[i].lanes {
						laneSteps++
					} else {
						sortedSteps++
					}
					if p.steps[i].useBitmaps {
						bitmapSteps++
					}
				}
				d := newValidatorDiff(t, q, h, p)
				d.run()
				candidates += d.total[0].Candidates
				verified += d.verified
			}
		}
		if laneSteps == 0 || candidates == 0 || verified == 0 {
			t.Fatalf("%s: %d compiled steps, %d candidates, %d VerifyEmbedding calls: the battery tested nothing",
				tc.profile, laneSteps, candidates, verified)
		}
		if (bitmapSteps > 0) != tc.wantBitmap {
			t.Fatalf("%s: %d steps on bitmap kernels, want bitmaps=%v", tc.profile, bitmapSteps, tc.wantBitmap)
		}
		t.Logf("%s: %d lane steps, %d sort-based steps, %d bitmap steps, %d candidates, %d verified from first principles",
			tc.profile, laneSteps, sortedSteps, bitmapSteps, candidates, verified)
	}
}

// TestValidatorCountersMatchReference: a whole sequential run reports the
// same count and the same Counters whether the plan validates by lanes or by
// sorting.
func TestValidatorCountersMatchReference(t *testing.T) {
	prof, _ := datagen.ProfileByName("SB")
	h := datagen.Generate(prof.Scaled(0.1), 3)
	s, _ := querygen.SettingByName("q3")
	rng := rand.New(rand.NewSource(7))
	for _, q := range querygen.SampleMany(rng, h, s, 8) {
		p, err := NewPlan(q, h)
		if err != nil {
			t.Fatal(err)
		}
		n, ct := p.CountSequential()
		var enumerated uint64
		ect := p.EnumerateSequential(func([]hypergraph.EdgeID) { enumerated++ })
		rn, rct := referencePlan(p).CountSequential()
		if n != rn || ct != rct || enumerated != n || ect != ct {
			t.Fatalf("compiled count %d %+v, enumerated %d %+v, reference %d %+v", n, ct, enumerated, ect, rn, rct)
		}
	}
}

// maskShape builds a one-label query whose last hyperedge e3 sees one vertex
// per non-empty subset of the three earlier hyperedges — seven (label, mask)
// classes, or six without the vertex all three share — plus one fresh vertex.
// The data graph holds three disjoint copies of the query, each with a decoy
// of e3's signature that swaps the vertex of e0∩e1 for one of e0 alone: the
// vertex count still adds up (Observation V.5 passes), the profiles do not.
func maskShape(withTriple bool) (q, h *hypergraph.Hypergraph, order []hypergraph.EdgeID) {
	build := func(copies int) *hypergraph.Hypergraph {
		b := hypergraph.NewBuilder()
		for c := 0; c < copies; c++ {
			id := make(map[int]uint32) // subset bitmask of {e0,e1,e2} → vertex
			for s := 1; s <= 7; s++ {
				if s == 7 && !withTriple {
					continue
				}
				id[s] = b.AddVertex(0)
			}
			only0, fresh := b.AddVertex(0), b.AddVertex(0)
			var e [4][]uint32
			for s, v := range id {
				for k := 0; k < 3; k++ {
					if s&(1<<k) != 0 {
						e[k] = append(e[k], v)
					}
				}
				e[3] = append(e[3], v)
			}
			e[0] = append(e[0], only0)
			e[3] = append(e[3], fresh)
			for k := range e {
				b.AddEdge(e[k]...)
			}
			if copies > 1 {
				decoy := slices.DeleteFunc(slices.Clone(e[3]), func(v uint32) bool { return v == id[0b011] })
				b.AddEdge(append(decoy, only0)...)
			}
		}
		return b.MustBuild()
	}
	return build(1), build(3), []hypergraph.EdgeID{0, 1, 2, 3}
}

// arityShape builds a one-label two-hyperedge query sharing all but one
// vertex each, of the given arity, over three disjoint copies with a decoy
// per copy that reaches into the neighbouring copy (rejected by V.5).
func arityShape(arity int) (q, h *hypergraph.Hypergraph, order []hypergraph.EdgeID) {
	build := func(copies int) *hypergraph.Hypergraph {
		b := hypergraph.NewBuilder()
		var prev []uint32
		for c := 0; c < copies; c++ {
			var shared []uint32
			for i := 0; i < arity-1; i++ {
				shared = append(shared, b.AddVertex(0))
			}
			b.AddEdge(append(slices.Clone(shared), b.AddVertex(0))...)
			b.AddEdge(append(slices.Clone(shared), b.AddVertex(0))...)
			if prev != nil {
				b.AddEdge(append(slices.Clone(shared[1:]), prev[0], b.AddVertex(0))...)
			}
			prev = shared
		}
		return b.MustBuild()
	}
	return build(1), build(3), []hypergraph.EdgeID{0, 1}
}

// TestValidatorFallbackShapes pins the compile-time rule: a step with more
// seen classes than lanes, or an arity a lane could not count, keeps
// validateStep; the shapes just inside the limits compile; and either way
// the verdicts are VerifyEmbedding's.
func TestValidatorFallbackShapes(t *testing.T) {
	for _, tc := range []struct {
		name      string
		build     func() (q, h *hypergraph.Hypergraph, order []hypergraph.EdgeID)
		wantLanes bool
	}{
		{"six classes fit", func() (q, h *hypergraph.Hypergraph, o []hypergraph.EdgeID) { return maskShape(false) }, true},
		{"seven classes fall back", func() (q, h *hypergraph.Hypergraph, o []hypergraph.EdgeID) { return maskShape(true) }, false},
		{"arity 255 fits", func() (q, h *hypergraph.Hypergraph, o []hypergraph.EdgeID) { return arityShape(maxLaneArity) }, true},
		{"arity 256 falls back", func() (q, h *hypergraph.Hypergraph, o []hypergraph.EdgeID) { return arityShape(maxLaneArity + 1) }, false},
	} {
		q, h, order := tc.build()
		p, err := NewPlanWithOrder(q, h, order)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		last := &p.steps[len(order)-1]
		if last.lanes != tc.wantLanes {
			t.Fatalf("%s: last step compiled to lanes=%v (%d classes, arity %d), want %v",
				tc.name, last.lanes, last.nClasses, last.arity, tc.wantLanes)
		}
		d := newValidatorDiff(t, q, h, p)
		d.run()
		n, ct := p.CountSequential()
		rn, rct := referencePlan(p).CountSequential()
		if n == 0 || n != rn || ct != rct {
			t.Fatalf("%s: compiled count %d %+v, reference %d %+v", tc.name, n, ct, rn, rct)
		}
		if ct.Filtered == ct.Candidates && ct.Valid-uint64(len(p.InitialCandidates())) == ct.Filtered {
			t.Fatalf("%s: nothing rejected (%+v): the decoys never reached validation", tc.name, ct)
		}
	}
}

// TestDenseBudgetFallsBack: a data graph too large for the dense Scratch
// table compiles every step to validateStep, because the lane tag lives in
// that table.
func TestDenseBudgetFallsBack(t *testing.T) {
	var st step
	st.arity = 2
	st.wantProf = []profile{{label: 0, mask: 0b11}, {label: 0, mask: 0b10}}
	st.compileLanes(1, denseVcntBudget/2+1, 2)
	if st.lanes {
		t.Fatal("step compiled to lanes on a graph over the dense-table budget")
	}
	st.compileLanes(1, denseVcntBudget/2, 2)
	if !st.lanes || st.nClasses != 1 || st.wantLanes != 1|1<<laneBits {
		t.Fatalf("step within budget: lanes=%v classes=%d want=%#x", st.lanes, st.nClasses, st.wantLanes)
	}
}
