package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"weak"

	"hgmatch/internal/datagen"
	"hgmatch/internal/hypergraph"
	"hgmatch/internal/querygen"
)

// expandCall is one Expand of a schedule: a plan, a depth and the partial
// embedding m[:depth], with what a fresh Scratch makes of it.
type expandCall struct {
	p     *Plan
	depth int
	m     []hypergraph.EdgeID
	want  []hypergraph.EdgeID
	ct    Counters
}

// freshExpand runs one Expand on a Scratch of its own.
func freshExpand(p *Plan, depth int, m []hypergraph.EdgeID, denseMax int) ([]hypergraph.EdgeID, Counters) {
	var got []hypergraph.EdgeID
	var ct Counters
	p.Expand(depth, m, &Scratch{denseMax: denseMax}, &ct, func(c hypergraph.EdgeID) { got = append(got, c) })
	return got, ct
}

// dfsCalls returns the first limit Expand calls of p's embedding tree in
// depth-first order, the engine's and EnumerateSequential's: the children
// of one node are consecutive sibling calls, and a new parent is a prefix
// jump. Each call carries its answer on a fresh Scratch.
func dfsCalls(p *Plan, limit, denseMax int) []expandCall {
	var calls []expandCall
	m := make([]hypergraph.EdgeID, p.NumSteps())
	var rec func(depth int)
	rec = func(depth int) {
		if depth == len(m) || len(calls) == limit {
			return
		}
		want, ct := freshExpand(p, depth, m, denseMax)
		calls = append(calls, expandCall{p, depth, slices.Clone(m[:depth]), want, ct})
		for _, c := range want {
			m[depth] = c
			rec(depth + 1)
		}
	}
	for _, e := range p.InitialCandidates() {
		m[0] = e
		rec(1)
	}
	return calls
}

// carried replays calls on Scratches that carry their state from call to
// call, one per depth or one for all, and checks every call's emitted
// set and Counters against its fresh-Scratch answer. CountValid serves
// every other call. Every wrapEvery-th call first moves its Scratch's epoch
// forward to the one before the last and drops what it kept, so the next
// refill runs at the last epoch and the one after wraps.
func carried(t *testing.T, name string, calls []expandCall, perDepth bool, denseMax, wrapEvery int) {
	t.Helper()
	scs := map[int]*Scratch{}
	for i, c := range calls {
		key := 0
		if perDepth {
			key = c.depth
		}
		sc := scs[key]
		if sc == nil {
			sc = &Scratch{denseMax: denseMax}
			scs[key] = sc
		}
		if last := uint32(math.MaxUint32 &^ badLane); wrapEvery > 0 && i%wrapEvery == wrapEvery-1 && sc.vepoch < last-1<<laneTagBits {
			sc.vepoch = last - 1<<laneTagBits
			sc.Reset()
		}
		m := make([]hypergraph.EdgeID, c.p.NumSteps())
		copy(m, c.m)
		var got []hypergraph.EdgeID
		var ct Counters
		if i%2 == 0 {
			c.p.Expand(c.depth, m, sc, &ct, func(e hypergraph.EdgeID) { got = append(got, e) })
		} else if n := c.p.CountValid(c.depth, m, sc, &ct); n != uint64(len(c.want)) {
			t.Fatalf("%s: call %d, depth %d m=%v: CountValid = %d on a carried Scratch, %d on a fresh one",
				name, i, c.depth, c.m, n, len(c.want))
		} else {
			got = c.want
		}
		if !slices.Equal(got, c.want) || ct != c.ct {
			t.Fatalf("%s: call %d, depth %d m=%v: a carried Scratch emits %v with %+v, a fresh one %v with %+v",
				name, i, c.depth, c.m, got, ct, c.want, c.ct)
		}
	}
}

// siblingCalls counts the calls past depth 1 whose m[:depth-1] is that
// of the previous call at their depth: the calls that move one position of
// what the depth's Scratch kept. (Every call at depth 1 moves position 0.)
func siblingCalls(calls []expandCall) int {
	n := 0
	last := map[int][]hypergraph.EdgeID{}
	for _, c := range calls {
		if a, ok := last[c.depth]; ok && c.depth > 1 && slices.Equal(a[:c.depth-1], c.m[:c.depth-1]) {
			n++
		}
		last[c.depth] = c.m
	}
	return n
}

// interleave merges the call lists of several plans so that calls with the
// same depth and the same m[:depth-1] follow each other across plans: a
// Scratch that kept state across plans would take one plan's table, tags
// or sets for another's.
func interleave(lists ...[]expandCall) []expandCall {
	var all []expandCall
	for _, l := range lists {
		all = append(all, l...)
	}
	slices.SortStableFunc(all, func(a, b expandCall) int {
		if a.depth != b.depth {
			return a.depth - b.depth
		}
		return slices.Compare(a.m[:a.depth-1], b.m[:b.depth-1])
	})
	return all
}

// otherOrder compiles q with a connected matching order that differs from
// p's, keeping as long a prefix of p's order as it can, or returns nil.
func otherOrder(p *Plan, q, h *hypergraph.Hypergraph) *Plan {
	n := len(p.Order)
	for keep := n - 2; keep >= 1; keep-- {
		for i := keep + 1; i < n; i++ {
			order := slices.Clone(p.Order)
			order[keep], order[i] = order[i], order[keep]
			if ValidateOrder(q, order) == nil {
				o, err := NewPlanWithOrder(q, h, order)
				if err == nil {
					return o
				}
			}
		}
	}
	return nil
}

// deltaSnapshot publishes, over base, inserted edges that copy existing
// ones with one vertex swapped for another of its label (so they join the
// queries' signature tables as delta tails) and tombstones on base edges.
func deltaSnapshot(t *testing.T, base *hypergraph.Hypergraph, seed int64) *hypergraph.Hypergraph {
	buf, err := hypergraph.NewDeltaBuffer(base)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for inserted := 0; inserted < base.NumEdges()/10; {
		vs := slices.Clone(base.Edge(hypergraph.EdgeID(rng.Intn(base.NumEdges()))))
		i := rng.Intn(len(vs))
		w := uint32(rng.Intn(base.NumVertices()))
		if base.Label(w) != base.Label(vs[i]) || slices.Contains(vs, w) {
			continue
		}
		vs[i] = w
		slices.Sort(vs)
		if _, added, err := buf.Insert(vs...); err != nil {
			t.Fatal(err)
		} else if added {
			inserted++
		}
	}
	for deleted := 0; deleted < base.NumEdges()/20; {
		vs := base.Edge(hypergraph.EdgeID(rng.Intn(base.NumEdges())))
		if ok, err := buf.Delete(vs...); err != nil {
			t.Fatal(err)
		} else if ok {
			deleted++
		}
	}
	return buf.Publish()
}

// TestSiblingReuseDifferential: a Scratch that carries its table, lane tags,
// V_n_incdt and candidate sets from one Expand to the next answers every
// call as a fresh Scratch does — emitted set and Counters — through sibling
// runs and prefix jumps (one Scratch per depth, depth-first), depth
// switches (one Scratch for every depth, breadth-first as RunBFS and
// depth-first), plan switches (two orders of each query, interleaved by
// prefix, plus every query of the graph interleaved) and forced epoch
// wraps, on SB (bitmap kernels), TC (arrays) on its dense and its compact
// table, a delta snapshot with tombstones, and TC with every table of up to
// 16 edges scanned.
func TestSiblingReuseDifferential(t *testing.T) {
	sb, _ := datagen.ProfileByName("SB")
	tc, _ := datagen.ProfileByName("TC")
	sbGraph := datagen.Generate(sb.Scaled(0.2), 3)
	tcGraph := datagen.Generate(tc.Scaled(0.05), 3)
	for _, g := range []struct {
		name     string
		build    func() *hypergraph.Hypergraph
		denseMax int
		check    func(p *Plan, i int) bool // a step shape the graph must show
	}{
		{"SB", func() *hypergraph.Hypergraph { return sbGraph }, 0,
			func(p *Plan, i int) bool { return p.steps[i].useBitmaps }},
		{"TC", func() *hypergraph.Hypergraph { return tcGraph }, 0,
			func(p *Plan, i int) bool { return !p.steps[i].useBitmaps }},
		{"TC compact", func() *hypergraph.Hypergraph { return tcGraph }, -1,
			func(p *Plan, i int) bool { return true }},
		{"SB delta", func() *hypergraph.Hypergraph { return deltaSnapshot(t, sbGraph, 5) }, 0,
			func(p *Plan, i int) bool {
				return p.steps[i].part.HasDelta() && len(p.steps[i].part.DeadEdges()) > 0
			}},
		{"TC scanned", func() *hypergraph.Hypergraph {
			defer hypergraph.ForceScanMax(16)()
			return datagen.Generate(tc.Scaled(0.05), 3)
		}, 0, func(p *Plan, i int) bool { return p.steps[i].scanBase }},
	} {
		h := g.build()
		rng := rand.New(rand.NewSource(17))
		var plans []*Plan
		var lists [][]expandCall
		shown, siblings, ncalls := false, 0, 0
		for _, setting := range []string{"q2", "q3", "q4"} {
			// The four queries of 48 with the most sibling calls: on sparse
			// data most queries have a handful of embeddings.
			type candidate struct {
				pair     []*Plan
				calls    [][]expandCall
				siblings int
			}
			var picked []candidate
			s, _ := querygen.SettingByName(setting)
			for _, q := range querygen.SampleMany(rng, h, s, 48) {
				if q == nil {
					continue
				}
				p, err := NewPlan(q, h)
				if err != nil {
					t.Fatal(err)
				}
				c := candidate{pair: []*Plan{p}}
				if o := otherOrder(p, q, h); o != nil {
					c.pair = append(c.pair, o)
				}
				for _, pp := range c.pair {
					calls := dfsCalls(pp, 600, g.denseMax)
					c.calls = append(c.calls, calls)
					c.siblings += siblingCalls(calls)
				}
				picked = append(picked, c)
			}
			slices.SortStableFunc(picked, func(a, b candidate) int { return b.siblings - a.siblings })
			for _, c := range picked[:min(4, len(picked))] {
				for j, pp := range c.pair {
					for i := 1; i < pp.NumSteps(); i++ {
						shown = shown || g.check(pp, i)
					}
					calls := c.calls[j]
					ncalls += len(calls)
					siblings += siblingCalls(calls)
					name := fmt.Sprintf("%s %s plan %d", g.name, setting, len(plans))
					carried(t, name+" per depth", calls, true, g.denseMax, 0)
					carried(t, name+" one Scratch", calls, false, g.denseMax, 0)
					bfs := slices.Clone(calls)
					slices.SortStableFunc(bfs, func(a, b expandCall) int { return a.depth - b.depth })
					carried(t, name+" breadth-first", bfs, false, g.denseMax, 0)
					carried(t, name+" epoch wraps", calls, true, g.denseMax, 37)
					plans = append(plans, pp)
					lists = append(lists, calls)
				}
				if len(c.pair) == 2 {
					carried(t, fmt.Sprintf("%s %s two orders", g.name, setting), interleave(c.calls...), true, g.denseMax, 0)
				}
			}
		}
		carried(t, g.name+" every plan", interleave(lists...), true, g.denseMax, 0)
		if !shown || siblings < 20 {
			t.Fatalf("%s: the step shape under test showed=%v, %d sibling calls: the battery tested nothing", g.name, shown, siblings)
		}
		t.Logf("%s: %d plans, %d calls, %d sibling calls", g.name, len(plans), ncalls, siblings)
	}
}

// TestSiblingReuseReleasesPlanAndGraph: once EnumerateSequential returns,
// the Scratches it handed back to the pool hold neither its plan nor the
// data graph, so both are collectable.
func TestSiblingReuseReleasesPlanAndGraph(t *testing.T) {
	sb, _ := datagen.ProfileByName("SB")
	h := datagen.Generate(sb.Scaled(0.2), 3)
	s, _ := querygen.SettingByName("q3")
	q := querygen.SampleMany(rand.New(rand.NewSource(1)), h, s, 1)[0]
	p, err := NewPlan(q, h)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	p.EnumerateSequential(func([]hypergraph.EdgeID) { n++ })
	if n == 0 {
		t.Fatal("the query has no embedding: nothing was kept to release")
	}
	wp, wh := weak.Make(p), weak.Make(h)
	p, h, q = nil, nil, nil
	runtime.GC()
	if wp.Value() != nil || wh.Value() != nil {
		t.Fatalf("after EnumerateSequential and a GC, plan reachable=%v, graph reachable=%v",
			wp.Value() != nil, wh.Value() != nil)
	}
}
