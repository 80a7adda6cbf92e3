// Command hgbench regenerates the paper's tables and figures over the
// synthetic dataset suite, printing the same rows/series the paper reports
// (shape reproduction; docs/ARCHITECTURE.md, "Evaluation", describes the
// synthetic datasets and query workloads behind them).
//
// Usage:
//
//	hgbench -exp all                # every experiment
//	hgbench -exp table2             # dataset statistics
//	hgbench -exp fig6|fig7|fig8|table4|fig9|fig10|fig11|fig12|fig13
//	hgbench -scale 0.02 -queries 20 -timeout 5s -datasets HC,CH,SB
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"hgmatch/internal/experiments"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: all|table2|fig6|fig7|fig8|table4|fig9|fig10|fig11|fig12|fig13")
		scale    = flag.Float64("scale", 0.01, "dataset scale factor")
		seed     = flag.Int64("seed", 1, "generation / sampling seed")
		queries  = flag.Int("queries", 20, "queries per (dataset, setting)")
		timeout  = flag.Duration("timeout", 2*time.Second, "per-query timeout (paper: 1h)")
		workers  = flag.Int("workers", 4, "workers for parallel experiments")
		datasets = flag.String("datasets", "", "comma-separated dataset filter (default all)")
		settings = flag.String("settings", "", "comma-separated query-setting filter (default all)")
		maxEmb   = flag.Uint64("maxemb", 5_000_000, "per-query embedding cap (0 = unlimited)")
		parDS    = flag.String("pardataset", "", "dataset for the parallel experiments fig10-12 (default AR, as in the paper)")
	)
	flag.Parse()

	cfg := experiments.Config{
		Scale:             *scale,
		Seed:              *seed,
		QueriesPerSetting: *queries,
		Timeout:           *timeout,
		Workers:           *workers,
		MaxEmbeddings:     *maxEmb,
		ParallelDataset:   *parDS,
	}
	if *datasets != "" {
		cfg.Datasets = strings.Split(*datasets, ",")
	}
	if *settings != "" {
		cfg.Settings = strings.Split(*settings, ",")
	}
	s := experiments.NewSuite(cfg)

	want := strings.ToLower(*exp)
	ran := false
	section := func(id string, f func()) {
		if want == "all" || want == id {
			f()
			fmt.Println()
			ran = true
		}
	}

	section("table2", func() { _, txt := s.Table2(); fmt.Print(txt) })
	section("fig6", func() { _, txt := s.Fig6(); fmt.Print(txt) })
	section("fig7", func() { _, txt := s.Fig7(); fmt.Print(txt) })
	// fig8 and table4 come from the same runs; print both for either id.
	if want == "all" || want == "fig8" || want == "table4" {
		_, t8, t4 := s.Fig8()
		if want != "table4" {
			fmt.Print(t8)
			fmt.Println()
		}
		if want != "fig8" {
			fmt.Print(t4)
			fmt.Println()
		}
		ran = true
	}
	section("fig9", func() { _, txt := s.Fig9(); fmt.Print(txt) })
	section("fig10", func() { _, txt := s.Fig10(nil); fmt.Print(txt) })
	section("fig11", func() { _, txt := s.Fig11(); fmt.Print(txt) })
	section("fig12", func() { _, txt := s.Fig12(20); fmt.Print(txt) })
	section("fig13", func() { _, txt := s.Fig13(); fmt.Print(txt) })

	if !ran {
		fmt.Fprintf(os.Stderr, "hgbench: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}
