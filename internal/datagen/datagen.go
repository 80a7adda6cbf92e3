// Package datagen generates synthetic labelled hypergraphs calibrated to
// the ten real-world datasets of the paper's Table II (house committees,
// MathOverflow answers, contact high school, contact primary school, senate
// bills, house bills, Walmart trips, Trivago clicks, StackOverflow answers,
// Amazon reviews).
//
// The real datasets come from Benson's collection and are not available in
// this offline environment; the generators reproduce each dataset's
// characteristic *shape* — label-set size, average and maximum arity, and
// power-law vertex degrees — which is what drives the paper's qualitative
// results (high-arity datasets benefit from match-by-hyperedge the most).
// That substitution — calibrated synthetic profiles for Table II's real
// datasets — is this package. Generation is deterministic per seed.
package datagen

import (
	"fmt"
	"math"
	"math/rand"

	"hgmatch/internal/hypergraph"
)

// Profile describes one dataset's shape. PaperVertices/PaperEdges record
// the real dataset's size from Table II for documentation; Generate uses
// NumVertices/NumEdges (the scaled size).
type Profile struct {
	Name        string
	Description string

	PaperVertices int
	PaperEdges    int

	NumVertices int
	NumEdges    int
	NumLabels   int     // |Σ|
	MaxArity    int     // a_max
	AvgArity    float64 // a

	// LabelSkew is the Zipf s-parameter for vertex label frequencies
	// (1 = strongly skewed, 0 = uniform).
	LabelSkew float64
	// DegreeSkew in [0,1] is the probability a hyperedge member is drawn
	// by preferential attachment rather than uniformly; higher values give
	// heavier-tailed degree distributions (paper §I challenge 2: power-law
	// graphs cause workload disparity).
	DegreeSkew float64
	// Redundancy in [0,1) is the probability a new hyperedge is generated
	// by mutating an existing one (resampling ~a quarter of its members)
	// instead of from scratch. Real-world hypergraphs are structurally
	// redundant — similar committees, co-purchase baskets, contact
	// groups — which is what gives the paper's Fig. 6 its wide
	// embedding-count distributions. Defaults to 0.45 when unset.
	Redundancy float64
}

// Scaled returns a copy with vertex and edge counts multiplied by f.
// Labels and the average arity are shape parameters and stay fixed; the
// maximum arity scales with f (floored at ~2× the average) so that a
// handful of near-a_max hyperedges cannot dominate a shrunken edge set the
// way they could not dominate the full-size one. All arity parameters are
// clamped to the scaled vertex count. Floors keep even tiny scales
// exercisable by the Table III query settings.
func (p Profile) Scaled(f float64) Profile {
	q := p
	q.NumVertices = clampMin(int(float64(p.NumVertices)*f), 64)
	q.NumEdges = clampMin(int(float64(p.NumEdges)*f), 64)
	// Low-arity datasets (the contact networks) saturate: scaling |V| and
	// |E| by the same factor quadratically densifies the space of
	// possible distinct hyperedges until deduplication eats the edge
	// budget. Keep the pair space at least 8× the edge count.
	if p.AvgArity < 3.5 {
		minV := 2 * int(math.Sqrt(8*float64(q.NumEdges)))
		if q.NumVertices < minV && minV <= p.NumVertices {
			q.NumVertices = minV
		}
	}
	if q.NumLabels > q.NumVertices {
		q.NumLabels = q.NumVertices
	}
	scaledMax := clampMin(int(float64(p.MaxArity)*f), int(2*p.AvgArity)+2)
	if scaledMax < q.MaxArity {
		q.MaxArity = scaledMax
	}
	if q.MaxArity > q.NumVertices {
		q.MaxArity = q.NumVertices
	}
	if q.AvgArity > float64(q.MaxArity) {
		q.AvgArity = float64(q.MaxArity)
	}
	return q
}

func clampMin(x, lo int) int {
	if x < lo {
		return lo
	}
	return x
}

// Profiles returns the ten Table II dataset profiles at paper scale. Use
// Scaled to shrink them to experiment budgets.
func Profiles() []Profile {
	ps := []Profile{
		{Name: "HC", Description: "house committees", PaperVertices: 1290, PaperEdges: 331,
			NumLabels: 2, MaxArity: 81, AvgArity: 34.8, LabelSkew: 0.4, DegreeSkew: 0.5},
		{Name: "MA", Description: "MathOverflow answers", PaperVertices: 73851, PaperEdges: 5444,
			NumLabels: 1456, MaxArity: 1784, AvgArity: 24.2, LabelSkew: 1.0, DegreeSkew: 0.6},
		{Name: "CH", Description: "contact high school", PaperVertices: 327, PaperEdges: 7818,
			NumLabels: 9, MaxArity: 5, AvgArity: 2.3, LabelSkew: 0.3, DegreeSkew: 0.5},
		{Name: "CP", Description: "contact primary school", PaperVertices: 242, PaperEdges: 12704,
			NumLabels: 11, MaxArity: 5, AvgArity: 2.4, LabelSkew: 0.3, DegreeSkew: 0.5},
		{Name: "SB", Description: "senate bills", PaperVertices: 294, PaperEdges: 20584,
			NumLabels: 2, MaxArity: 99, AvgArity: 8.0, LabelSkew: 0.2, DegreeSkew: 0.7},
		{Name: "HB", Description: "house bills", PaperVertices: 1494, PaperEdges: 52960,
			NumLabels: 2, MaxArity: 399, AvgArity: 20.5, LabelSkew: 0.2, DegreeSkew: 0.7},
		{Name: "WT", Description: "Walmart trips", PaperVertices: 88860, PaperEdges: 65507,
			NumLabels: 11, MaxArity: 25, AvgArity: 6.6, LabelSkew: 0.8, DegreeSkew: 0.6},
		{Name: "TC", Description: "Trivago clicks", PaperVertices: 172738, PaperEdges: 212483,
			NumLabels: 160, MaxArity: 85, AvgArity: 4.1, LabelSkew: 1.0, DegreeSkew: 0.6},
		{Name: "SA", Description: "StackOverflow answers", PaperVertices: 15211989, PaperEdges: 1103193,
			NumLabels: 56502, MaxArity: 61315, AvgArity: 23.7, LabelSkew: 1.1, DegreeSkew: 0.7},
		{Name: "AR", Description: "Amazon reviews", PaperVertices: 2268264, PaperEdges: 4239108,
			NumLabels: 29, MaxArity: 9350, AvgArity: 17.1, LabelSkew: 0.7, DegreeSkew: 0.8},
	}
	for i := range ps {
		ps[i].NumVertices = ps[i].PaperVertices
		ps[i].NumEdges = ps[i].PaperEdges
	}
	return ps
}

// ProfileByName returns the named profile, or false.
func ProfileByName(name string) (Profile, bool) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// Generate builds a hypergraph realising the profile. The builder removes
// duplicate hyperedges, so the result can have slightly fewer edges than
// requested; Generate over-produces by a small factor to compensate, then
// truncation keeps determinism.
func Generate(p Profile, seed int64) *hypergraph.Hypergraph {
	rng := rand.New(rand.NewSource(seed))
	// A stable dictionary (label i named "Li") so serialised datasets and
	// queries can be re-associated by name (hgio.AlignLabels).
	dict := hypergraph.NewDict()
	for i := 0; i < p.NumLabels; i++ {
		dict.Intern(fmt.Sprintf("L%d", i))
	}
	b := hypergraph.NewBuilder().WithDicts(dict, nil)

	// Vertex labels: Zipf over NumLabels. rand.Zipf requires s > 1; for
	// gentler skews use a power-weight table instead.
	labelOf := makeLabelSampler(rng, p.NumLabels, p.LabelSkew)
	for i := 0; i < p.NumVertices; i++ {
		b.AddVertex(labelOf())
	}

	// Arity distribution: shifted geometric with mean AvgArity capped at
	// MaxArity, plus occasional heavy edges so a_max is actually realised.
	minArity := 1
	if p.AvgArity >= 2 {
		minArity = 2
	}
	mean := p.AvgArity
	if mean < float64(minArity) {
		mean = float64(minArity)
	}
	geoP := 1.0 / (mean - float64(minArity) + 1.0)

	// Preferential attachment pool: vertices appear once per incidence.
	pool := make([]uint32, 0, int(float64(p.NumEdges)*p.AvgArity))

	drawVertex := func() uint32 {
		if len(pool) > 0 && rng.Float64() < p.DegreeSkew {
			return pool[rng.Intn(len(pool))]
		}
		return uint32(rng.Intn(p.NumVertices))
	}

	redundancy := p.Redundancy
	if redundancy == 0 {
		redundancy = 0.45
	}

	target := p.NumEdges
	attempts := target + target/8 + 8
	edge := make([]uint32, 0, p.MaxArity)
	var history [][]uint32 // kept edges, source pool for mutations
	made := 0
	for i := 0; i < attempts && made < target; i++ {
		edge = edge[:0]
		seen := make(map[uint32]bool, 8)
		if len(history) > 0 && rng.Float64() < redundancy {
			// Mutate an existing hyperedge: keep most members, resample
			// at least one (so the mutant is almost never a duplicate).
			// Mutants often share the template's signature (labels are
			// skewed), creating the same-signature near-duplicates that
			// real hypergraphs are full of.
			tpl := history[rng.Intn(len(history))]
			drop := len(tpl) / 4
			if drop < 1 {
				drop = 1
			}
			start := rng.Intn(len(tpl)) // drop a random contiguous chunk
			dropped := make(map[uint32]bool, drop)
			for k := 0; k < drop; k++ {
				dropped[tpl[(start+k)%len(tpl)]] = true
			}
			for _, v := range tpl {
				if !dropped[v] {
					seen[v] = true
					edge = append(edge, v)
				}
			}
			want := len(tpl)
			for tries := 0; len(edge) < want && tries < 8*want; tries++ {
				v := drawVertex()
				if !seen[v] && !dropped[v] {
					seen[v] = true
					edge = append(edge, v)
				}
			}
		} else {
			arity := minArity
			for arity < p.MaxArity && rng.Float64() > geoP {
				arity++
			}
			// One in ~200 edges stretches toward a_max to realise the tail.
			if p.MaxArity > 4*int(mean) && rng.Intn(200) == 0 {
				arity = p.MaxArity/2 + rng.Intn(p.MaxArity/2+1)
			}
			if arity > p.NumVertices {
				arity = p.NumVertices
			}
			for tries := 0; len(edge) < arity && tries < 8*arity; tries++ {
				v := drawVertex()
				if !seen[v] {
					seen[v] = true
					edge = append(edge, v)
				}
			}
		}
		if len(edge) == 0 {
			continue
		}
		b.AddEdge(edge...)
		history = append(history, append([]uint32(nil), edge...))
		for _, v := range edge {
			pool = append(pool, v)
		}
		made++
	}
	return b.MustBuild()
}

// makeLabelSampler returns a sampler over [0, n) with power-law weights
// (i+1)^-s, handling s <= 1 where rand.Zipf is unusable.
func makeLabelSampler(rng *rand.Rand, n int, s float64) func() uint32 {
	if n <= 1 {
		return func() uint32 { return 0 }
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += math.Pow(float64(i+1), -s)
		cdf[i] = sum
	}
	return func() uint32 {
		x := rng.Float64() * sum
		lo, hi := 0, n-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cdf[mid] < x {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return uint32(lo)
	}
}
