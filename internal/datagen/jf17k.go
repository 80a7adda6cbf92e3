package datagen

import (
	"math/rand"

	"hgmatch/internal/hypergraph"
)

// KB is the synthetic JF17K-style hypergraph knowledge base used by the
// paper's §VII-D case study. Vertices are typed entities (the type is the
// vertex label); hyperedges are non-binary facts. Two relation schemas from
// the paper are generated:
//
//	(Player, Team, Match)            — a player played a match for a team
//	(Actor, Character, TVShow, Season) — an actor played a character in a
//	                                     show's season
//
// The real JF17K (a Freebase subset) is unavailable offline; the generator
// plants both incidental and guaranteed answers for the case-study queries
// (a substitution: synthetic facts in JF17K's two schemas for the real KB).
type KB struct {
	Graph *hypergraph.Hypergraph
	Dict  *hypergraph.Dict

	Player, Team, Match              hypergraph.Label
	Actor, Character, TVShow, Season hypergraph.Label
}

// KBConfig sizes the synthetic knowledge base.
type KBConfig struct {
	Players, Teams, Matches int
	Actors, Characters      int
	Shows, Seasons          int
	PlayFacts, ActFacts     int
	// PlantedTransfers is the number of players guaranteed to have played
	// for two different teams in two different matches (query-1 answers).
	PlantedTransfers int
	// PlantedRecasts is the number of (character, show) pairs guaranteed
	// to be played by one actor in two different seasons (query-2
	// answers).
	PlantedRecasts int
}

// DefaultKBConfig mirrors the scale of a small Freebase slice.
func DefaultKBConfig() KBConfig {
	return KBConfig{
		Players: 400, Teams: 40, Matches: 120,
		Actors: 300, Characters: 200, Shows: 50, Seasons: 8,
		PlayFacts: 1500, ActFacts: 1200,
		PlantedTransfers: 25, PlantedRecasts: 12,
	}
}

// GenerateKB builds the knowledge base deterministically per seed.
func GenerateKB(cfg KBConfig, seed int64) *KB {
	rng := rand.New(rand.NewSource(seed))
	d := hypergraph.NewDict()
	kb := &KB{
		Dict:      d,
		Player:    d.Intern("Player"),
		Team:      d.Intern("Team"),
		Match:     d.Intern("Match"),
		Actor:     d.Intern("Actor"),
		Character: d.Intern("Character"),
		TVShow:    d.Intern("TVShow"),
		Season:    d.Intern("Season"),
	}
	b := hypergraph.NewBuilder().WithDicts(d, nil)

	addN := func(n int, l hypergraph.Label) []uint32 {
		out := make([]uint32, n)
		for i := 0; i < n; i++ {
			out[i] = b.AddVertex(l)
		}
		return out
	}
	players := addN(cfg.Players, kb.Player)
	teams := addN(cfg.Teams, kb.Team)
	matches := addN(cfg.Matches, kb.Match)
	actors := addN(cfg.Actors, kb.Actor)
	chars := addN(cfg.Characters, kb.Character)
	shows := addN(cfg.Shows, kb.TVShow)
	seasons := addN(cfg.Seasons, kb.Season)

	pick := func(xs []uint32) uint32 { return xs[rng.Intn(len(xs))] }

	// Planted query-1 answers: one player, two teams, two matches.
	for i := 0; i < cfg.PlantedTransfers && i < len(players); i++ {
		pl := players[i]
		t1, t2 := teams[rng.Intn(len(teams))], teams[rng.Intn(len(teams))]
		for t2 == t1 {
			t2 = pick(teams)
		}
		m1, m2 := pick(matches), pick(matches)
		for m2 == m1 {
			m2 = pick(matches)
		}
		b.AddEdge(pl, t1, m1)
		b.AddEdge(pl, t2, m2)
	}
	// Background play facts.
	for i := 0; i < cfg.PlayFacts; i++ {
		b.AddEdge(pick(players), pick(teams), pick(matches))
	}

	// Planted query-2 answers. The paper's Fig. 13b query shares the
	// character and show between two facts with DIFFERENT actors and
	// DIFFERENT seasons (e.g. Pingu played by Carlo Bonomi in seasons 1-4
	// and by David Sant in seasons 5-6). Plant recast characters.
	for i := 0; i < cfg.PlantedRecasts && i < len(chars); i++ {
		ch := chars[i]
		sh := pick(shows)
		a1, a2 := pick(actors), pick(actors)
		for a2 == a1 {
			a2 = pick(actors)
		}
		s1, s2 := pick(seasons), pick(seasons)
		for s2 == s1 {
			s2 = pick(seasons)
		}
		b.AddEdge(a1, ch, sh, s1)
		b.AddEdge(a2, ch, sh, s2)
	}
	// Background acting facts.
	for i := 0; i < cfg.ActFacts; i++ {
		b.AddEdge(pick(actors), pick(chars), pick(shows), pick(seasons))
	}

	kb.Graph = b.MustBuild()
	return kb
}

// Query1 builds the paper's Fig. 13a query: "football players who
// represented different teams in different matches" — two (Player, Team,
// Match) facts sharing the player.
func (kb *KB) Query1() *hypergraph.Hypergraph {
	b := hypergraph.NewBuilder().WithDicts(kb.Dict, nil)
	pl := b.AddVertex(kb.Player)
	t1 := b.AddVertex(kb.Team)
	m1 := b.AddVertex(kb.Match)
	t2 := b.AddVertex(kb.Team)
	m2 := b.AddVertex(kb.Match)
	b.AddEdge(pl, t1, m1)
	b.AddEdge(pl, t2, m2)
	return b.MustBuild()
}

// Query2 builds the paper's Fig. 13b query: "actors who played the same
// character in a TV show on different seasons" — two (Actor, Character,
// TVShow, Season) facts sharing the character and the show, with distinct
// actors and seasons (injectivity forces the distinctness).
func (kb *KB) Query2() *hypergraph.Hypergraph {
	b := hypergraph.NewBuilder().WithDicts(kb.Dict, nil)
	ch := b.AddVertex(kb.Character)
	sh := b.AddVertex(kb.TVShow)
	a1 := b.AddVertex(kb.Actor)
	s1 := b.AddVertex(kb.Season)
	a2 := b.AddVertex(kb.Actor)
	s2 := b.AddVertex(kb.Season)
	b.AddEdge(a1, ch, sh, s1)
	b.AddEdge(a2, ch, sh, s2)
	return b.MustBuild()
}
