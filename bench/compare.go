package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// savedRun is one run's result as --save writes it and --compare reads it.
type savedRun struct {
	Workload string    `json:"workload"`
	Seed     int64     `json:"seed"`
	When     time.Time `json:"when"` // orders the runs of a directory for pairing
	Failed   int       `json:"failed"`
	Metrics  values    `json:"metrics"`
}

func saveRun(dir string, rep *report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	now := time.Now()
	name := fmt.Sprintf("%s-%d.json", rep.Workload, now.UnixNano())
	return writeJSONFile(filepath.Join(dir, name), savedRun{
		Workload: rep.Workload, Seed: rep.Fingerprint.Seed, When: now, Failed: rep.Failed, Metrics: rep.Metrics,
	})
}

// loadRuns reads a directory of saved runs, grouped by workload, oldest
// first.
func loadRuns(dir string) (map[string][]savedRun, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string][]savedRun{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r savedRun
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out[r.Workload] = append(out[r.Workload], r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no saved runs in %s", dir)
	}
	for _, rs := range out {
		sort.Slice(rs, func(i, j int) bool { return rs[i].When.Before(rs[j].When) })
	}
	return out, nil
}

// verdict compares side B with side A on one metric.
type verdict struct {
	medA, q1A, q3A float64
	medB, q1B, q3B float64
	winsB, pairs   int // pairs B won, of pairs that were not ties
	spread         float64
	worsening      float64 // how much worse B's median is, as a share of A's
	word           string
}

// judge applies the repository's rules. unresolved: either side's quartile
// distance, as a share of its median, is wider than the bound, so a change
// of the bound's size could not be seen. worse: B's median is worse than
// A's by more than the bound. better: B wins at least nine tenths of the
// alternating pairs and the medians differ by more than A's own quartile
// distance. unchanged otherwise.
func judge(d metricDef, a, b []float64) verdict {
	v := verdict{medA: median(a), medB: median(b)}
	v.q1A, v.q3A = quartiles(a)
	v.q1B, v.q3B = quartiles(b)
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	lower := d.Better == "lower"
	for i := 0; i < n; i++ {
		if a[i] == b[i] {
			continue
		}
		v.pairs++
		if (b[i] < a[i]) == lower {
			v.winsB++
		}
	}
	v.spread = math.Max((v.q3A-v.q1A)/math.Abs(v.medA), (v.q3B-v.q1B)/math.Abs(v.medB))
	v.worsening = (v.medB - v.medA) / math.Abs(v.medA)
	if !lower {
		v.worsening = -v.worsening
	}
	switch {
	case v.spread > d.Bound:
		v.word = "unresolved"
	case v.worsening > d.Bound:
		v.word = "worse"
	case v.pairs > 0 && float64(v.winsB) >= 0.9*float64(v.pairs) && math.Abs(v.medB-v.medA) > v.q3A-v.q1A:
		v.word = "better"
	default:
		v.word = "unchanged"
	}
	return v
}

// compareRuns prints, per workload and end-to-end metric, each side's
// median and quartiles, B's wins over the pairs, and the verdict. Every
// ratio is printed with its base (A's median).
func compareRuns(w io.Writer, dirA, dirB string) error {
	runsA, err := loadRuns(dirA)
	if err != nil {
		return err
	}
	runsB, err := loadRuns(dirB)
	if err != nil {
		return err
	}
	bad := 0
	for _, sp := range specs {
		a, b := runsA[sp.name], runsB[sp.name]
		if len(a) < 2 || len(b) < 2 {
			fmt.Fprintf(w, "%s: %d runs in A, %d in B: at least 2 a side are needed\n", sp.name, len(a), len(b))
			continue
		}
		for _, rs := range [][]savedRun{a, b} {
			for _, r := range rs {
				if r.Failed > 0 {
					fmt.Fprintf(w, "%s: a run with seed %d had %d failed operations\n", sp.name, r.Seed, r.Failed)
					bad++
				}
			}
		}
		fmt.Fprintf(w, "%s: A = %d runs of %s, B = %d runs of %s\n", sp.name, len(a), dirA, len(b), dirB)
		for _, d := range endToEnd {
			col := func(rs []savedRun) []float64 {
				out := make([]float64, len(rs))
				for i, r := range rs {
					out[i] = r.Metrics[d.Name].Value
				}
				return out
			}
			v := judge(d, col(a), col(b))
			fmt.Fprintf(w, "  %-26s A %.6g [%.6g, %.6g]  B %.6g [%.6g, %.6g] %s  B/A %.4f of base %.6g  B wins %d/%d  spread %.4f bound %.2f  %s\n",
				d.Name, v.medA, v.q1A, v.q3A, v.medB, v.q1B, v.q3B, d.Unit, v.medB/v.medA, v.medA, v.winsB, v.pairs, v.spread, d.Bound, v.word)
			if v.word == "worse" || v.word == "unresolved" {
				bad++
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d workload x metric pairs are worse, unresolved or had failed operations", bad)
	}
	return nil
}
