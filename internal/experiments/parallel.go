package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"hgmatch/internal/core"
	"hgmatch/internal/engine"
	"hgmatch/internal/hypergraph"
	"hgmatch/internal/stats"
)

// parallelDataset returns the data hypergraph name for the multi-thread
// experiments; the paper uses its largest dataset AR with q3 queries.
func (s *Suite) parallelDataset() string {
	if s.Cfg.ParallelDataset != "" {
		return s.Cfg.ParallelDataset
	}
	return "AR"
}

// Fig10Row is one thread-count measurement of Exp-4.
type Fig10Row struct {
	Query   string
	Threads int
	Elapsed time.Duration
	Speedup float64 // t=1 elapsed / this elapsed
	// WorkBalance is max/mean of per-worker busy time (1.0 = perfect);
	// reported because wall-clock speedup cannot materialise on machines
	// with fewer cores than workers (a substitution: balance stands in for
	// the paper's 60-thread speedup curve on small machines).
	WorkBalance float64
}

// Fig10 reproduces Exp-4: scalability of HGMatch when varying the number
// of threads, on the two heaviest q3 queries of the AR-profile dataset.
func (s *Suite) Fig10(threadCounts []int) ([]Fig10Row, string) {
	if len(threadCounts) == 0 {
		threadCounts = []int{1, 2, 4, 8, 16, 20, 40, 60}
	}
	h := s.Dataset(s.parallelDataset())
	queries := s.heaviestQueries(h, 2)

	var rows []Fig10Row
	t := &table{header: []string{"Query", "t", "Time", "Speedup", "Busy max/mean", "(GOMAXPROCS)"}}
	for qi, q := range queries {
		name := fmt.Sprintf("q3^%d", qi+1)
		p, err := core.NewPlan(q, h)
		if err != nil {
			continue
		}
		var base time.Duration
		for _, tc := range threadCounts {
			res := engine.Run(p, engine.Options{Workers: tc, Timeout: s.Cfg.Timeout, Limit: s.Cfg.MaxEmbeddings})
			if tc == threadCounts[0] {
				base = res.Elapsed
			}
			row := Fig10Row{
				Query: name, Threads: tc, Elapsed: res.Elapsed,
				Speedup:     stats.Speedup(base, res.Elapsed),
				WorkBalance: busyBalance(res.Workers),
			}
			rows = append(rows, row)
			t.add(name, fmt.Sprintf("%d", tc), stats.FormatDuration(res.Elapsed),
				fmt.Sprintf("%.2fx", row.Speedup), fmt.Sprintf("%.2f", row.WorkBalance),
				fmt.Sprintf("%d", runtime.GOMAXPROCS(0)))
		}
	}
	return rows, fmt.Sprintf("Fig. 10 — Exp-4 scalability vs number of threads (%s-profile, 2 heavy q3 queries)\n", s.parallelDataset()) + t.String()
}

// heaviestQueries picks the n q3 queries with the largest embedding counts
// (the paper selects two q3 queries with ~3.86e10 and ~2.53e8 results).
func (s *Suite) heaviestQueries(h *hypergraph.Hypergraph, n int) []*hypergraph.Hypergraph {
	qs := s.Queries(s.parallelDataset(), "q3")
	type scored struct {
		q *hypergraph.Hypergraph
		n uint64
	}
	var all []scored
	for _, q := range qs {
		all = append(all, scored{q, s.countEmbeddings(q, h)})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].n > all[j].n })
	var out []*hypergraph.Hypergraph
	for i := 0; i < n && i < len(all); i++ {
		out = append(out, all[i].q)
	}
	return out
}

func busyBalance(ws []engine.WorkerStats) float64 {
	var busy []float64
	for _, w := range ws {
		if w.Tasks > 0 || w.BusyTime > 0 {
			busy = append(busy, w.BusyTime.Seconds())
		}
	}
	if len(busy) == 0 {
		return 1
	}
	mean := stats.Mean(busy)
	if mean == 0 {
		return 1
	}
	maxv := busy[0]
	for _, b := range busy {
		if b > maxv {
			maxv = b
		}
	}
	return maxv / mean
}

// Fig11Row is one query's memory measurement of Exp-5.
type Fig11Row struct {
	QueryIndex int
	Embeddings uint64
	TaskPeak   int64 // bytes, task scheduler
	BFSPeak    int64 // bytes, BFS scheduler
}

// Fig11 reproduces Exp-5: memory of the task-based scheduler vs BFS-style
// scheduling over the 20 q3 queries. The engine reports its own
// high-water accounting (peak live tasks / peak materialised level × task
// size), which is the quantity Theorem VI.1 bounds.
func (s *Suite) Fig11() ([]Fig11Row, string) {
	h := s.Dataset(s.parallelDataset())
	queries := s.Queries(s.parallelDataset(), "q3")
	var rows []Fig11Row
	t := &table{header: []string{"Query", "#Embeddings", "Task peak", "BFS peak", "BFS/Task"}}
	for i, q := range queries {
		p, err := core.NewPlan(q, h)
		if err != nil {
			continue
		}
		task := engine.Run(p, engine.Options{Workers: s.Cfg.Workers, Timeout: s.Cfg.Timeout, Limit: s.Cfg.MaxEmbeddings})
		bfs := engine.Run(p, engine.Options{Workers: s.Cfg.Workers, Scheduler: engine.SchedulerBFS, Timeout: s.Cfg.Timeout, Limit: s.Cfg.MaxEmbeddings})
		row := Fig11Row{QueryIndex: i, Embeddings: task.Embeddings, TaskPeak: task.PeakTaskBytes, BFSPeak: bfs.PeakTaskBytes}
		rows = append(rows, row)
		ratio := "-"
		if row.TaskPeak > 0 {
			ratio = fmt.Sprintf("%.1fx", float64(row.BFSPeak)/float64(row.TaskPeak))
		}
		t.add(fmt.Sprintf("%d", i+1), stats.FormatCount(row.Embeddings),
			stats.FormatBytes(row.TaskPeak), stats.FormatBytes(row.BFSPeak), ratio)
	}
	return rows, "Fig. 11 — Exp-5 task-based scheduler vs BFS memory (engine high-water accounting)\n" + t.String()
}

// Fig12Row is one worker's busy time of Exp-6, with and without stealing.
type Fig12Row struct {
	Worker       int
	WithStealing time.Duration
	NoStealing   time.Duration
	StealsDone   uint64
}

// Fig12 reproduces Exp-6: per-worker running time with dynamic work
// stealing vs static assignment of first-matched hyperedges
// (HGMatch-NOSTL). Busy times are sorted ascending per the paper's
// presentation.
func (s *Suite) Fig12(workers int) ([]Fig12Row, string) {
	if workers <= 0 {
		workers = 20
	}
	h := s.Dataset(s.parallelDataset())
	queries := s.heaviestQueries(h, 2)
	if len(queries) == 0 {
		return nil, "Fig. 12 — no queries available"
	}
	q := queries[len(queries)-1] // the paper uses q3^2
	p, err := core.NewPlan(q, h)
	if err != nil {
		return nil, "Fig. 12 — plan failed: " + err.Error()
	}
	with := engine.Run(p, engine.Options{Workers: workers, Timeout: s.Cfg.Timeout, Limit: s.Cfg.MaxEmbeddings})
	without := engine.Run(p, engine.Options{Workers: workers, DisableStealing: true, Timeout: s.Cfg.Timeout, Limit: s.Cfg.MaxEmbeddings})

	wb := make([]time.Duration, 0, workers)
	nb := make([]time.Duration, 0, workers)
	steals := with.TotalSteals()
	for _, ws := range with.Workers {
		wb = append(wb, ws.BusyTime)
	}
	for _, ws := range without.Workers {
		nb = append(nb, ws.BusyTime)
	}
	sort.Slice(wb, func(i, j int) bool { return wb[i] < wb[j] })
	sort.Slice(nb, func(i, j int) bool { return nb[i] < nb[j] })

	var rows []Fig12Row
	t := &table{header: []string{"Worker", "HGMatch busy", "HGMatch-NOSTL busy"}}
	for i := 0; i < workers; i++ {
		row := Fig12Row{Worker: i + 1, WithStealing: wb[i], NoStealing: nb[i], StealsDone: steals}
		rows = append(rows, row)
		t.add(fmt.Sprintf("%d", i+1), stats.FormatDuration(wb[i]), stats.FormatDuration(nb[i]))
	}
	summary := fmt.Sprintf(
		"balance (max/mean busy): HGMatch %.2f, HGMatch-NOSTL %.2f; total steals %d; counts equal: %v\n",
		busyBalance(with.Workers), busyBalance(without.Workers), steals,
		with.Embeddings == without.Embeddings)
	return rows, "Fig. 12 — Exp-6 work stealing load balance (per-worker busy time, sorted)\n" + summary + t.String()
}
