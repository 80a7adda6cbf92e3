// Package experiments drives the reproduction of every table and figure in
// the paper's evaluation (§VII): Table II (datasets), Table III/Fig. 6
// (query workload), Fig. 7 (index building), Fig. 8/Table IV (single-thread
// comparison and completion ratios), Fig. 9 (candidate filtering), Fig. 10
// (scalability), Fig. 11 (scheduler memory), Fig. 12 (work stealing) and
// Fig. 13 (JF17K case study).
//
// Datasets are calibrated synthetic stand-ins (internal/datagen) scaled by
// Config.Scale (a substitution: shapes and orderings are comparable with the
// paper's, absolute numbers are not).
package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"hgmatch/internal/bipartite"
	"hgmatch/internal/datagen"
	"hgmatch/internal/hypergraph"
	"hgmatch/internal/querygen"
)

// Config parameterises a reproduction run.
type Config struct {
	// Scale multiplies each Table II dataset's |V| and |E|; 1.0 is paper
	// scale (infeasible offline for SA/AR), the default 0.01 gives a
	// CI-sized suite that preserves per-dataset shape.
	Scale float64
	// Seed drives dataset generation and query sampling.
	Seed int64
	// QueriesPerSetting is the number of random queries per (dataset,
	// setting); the paper uses 20.
	QueriesPerSetting int
	// Timeout caps each single query run (the paper uses 1 hour; scaled
	// runs use seconds). Timed-out runs count at the timeout, like the
	// paper's treatment of out-of-time queries.
	Timeout time.Duration
	// Workers for parallel experiments.
	Workers int
	// Datasets restricts the dataset list (nil = all ten).
	Datasets []string
	// Settings restricts the query settings (nil = all four).
	Settings []string
	// MaxEmbeddings bounds per-query result counts in counting
	// experiments to keep scaled runs finite (0 = unlimited).
	MaxEmbeddings uint64
	// ParallelDataset selects the data hypergraph for the multi-thread
	// experiments (Exp-4/5/6). The paper uses its largest dataset, AR
	// (the default); scaled runs may prefer a denser stand-in whose q3
	// workloads carry enough embeddings to exercise the scheduler.
	ParallelDataset string
}

// DefaultConfig returns the CI-sized configuration.
func DefaultConfig() Config {
	return Config{
		Scale:             0.01,
		Seed:              1,
		QueriesPerSetting: 20,
		Timeout:           2 * time.Second,
		Workers:           4,
		MaxEmbeddings:     5_000_000,
	}
}

// Suite generates and caches datasets and query workloads.
type Suite struct {
	Cfg       Config
	datasets  map[string]*hypergraph.Hypergraph
	queries   map[string][]*hypergraph.Hypergraph // key: dataset/setting
	bipartite map[string]*bipartite.Graph         // cached data-side conversions
}

// NewSuite builds an empty suite; datasets generate lazily.
func NewSuite(cfg Config) *Suite {
	if cfg.Scale <= 0 {
		cfg.Scale = 0.01
	}
	if cfg.QueriesPerSetting <= 0 {
		cfg.QueriesPerSetting = 20
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	return &Suite{
		Cfg:       cfg,
		datasets:  make(map[string]*hypergraph.Hypergraph),
		queries:   make(map[string][]*hypergraph.Hypergraph),
		bipartite: make(map[string]*bipartite.Graph),
	}
}

// DatasetNames returns the selected dataset names in Table II order.
func (s *Suite) DatasetNames() []string {
	var names []string
	for _, p := range datagen.Profiles() {
		if s.selectedDataset(p.Name) {
			names = append(names, p.Name)
		}
	}
	return names
}

func (s *Suite) selectedDataset(name string) bool {
	if len(s.Cfg.Datasets) == 0 {
		return true
	}
	for _, d := range s.Cfg.Datasets {
		if strings.EqualFold(d, name) {
			return true
		}
	}
	return false
}

// SettingNames returns the selected query settings in Table III order.
func (s *Suite) SettingNames() []string {
	var names []string
	for _, st := range querygen.Settings() {
		if len(s.Cfg.Settings) == 0 {
			names = append(names, st.Name)
			continue
		}
		for _, sel := range s.Cfg.Settings {
			if strings.EqualFold(sel, st.Name) {
				names = append(names, st.Name)
				break
			}
		}
	}
	return names
}

// Dataset returns (generating on first use) the named dataset at the
// configured scale.
func (s *Suite) Dataset(name string) *hypergraph.Hypergraph {
	if h, ok := s.datasets[name]; ok {
		return h
	}
	p, ok := datagen.ProfileByName(name)
	if !ok {
		panic(fmt.Sprintf("experiments: unknown dataset %q", name))
	}
	h := datagen.Generate(p.Scaled(s.Cfg.Scale), s.Cfg.Seed+int64(len(name))*7919)
	s.datasets[name] = h
	return h
}

// Queries returns (sampling on first use) the query workload for a
// (dataset, setting) pair: Cfg.QueriesPerSetting deterministic random-walk
// queries.
func (s *Suite) Queries(dataset, setting string) []*hypergraph.Hypergraph {
	key := dataset + "/" + setting
	if qs, ok := s.queries[key]; ok {
		return qs
	}
	st, ok := querygen.SettingByName(setting)
	if !ok {
		panic(fmt.Sprintf("experiments: unknown setting %q", setting))
	}
	h := s.Dataset(dataset)
	rng := rand.New(rand.NewSource(s.Cfg.Seed*1_000_003 + int64(len(key))))
	raw := querygen.SampleMany(rng, h, st, s.Cfg.QueriesPerSetting)
	qs := raw[:0]
	for _, q := range raw {
		if q != nil {
			qs = append(qs, q)
		}
	}
	s.queries[key] = qs
	return qs
}

// table is a tiny text-table renderer for paper-style output.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			for p := len(c); p < widths[i]; p++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
	return b.String()
}
