// Command hgmatch runs subhypergraph matching queries from the command
// line: it loads a data hypergraph and a query hypergraph (text format,
// see internal/hgio), compiles an execution plan, runs the parallel engine
// and prints counts, instrumentation and (optionally) the embeddings.
//
// Usage:
//
//	hgmatch -data data.hg -query query.hg [-workers 8] [-timeout 1h]
//	        [-limit N] [-print] [-explain]
//	        [-baseline cfl|daf|ceci|rapid]
//
// With -baseline the extended match-by-vertex comparison algorithms run
// instead of HGMatch (useful for reproducing the paper's Fig. 8 locally).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"hgmatch"
	"hgmatch/internal/baseline"
	"hgmatch/internal/bipartite"
	"hgmatch/internal/hgio"
	"hgmatch/internal/stats"
)

func main() {
	var (
		dataPath  = flag.String("data", "", "data hypergraph file (required)")
		queryPath = flag.String("query", "", "query hypergraph file (required)")
		workers   = flag.Int("workers", 0, "worker threads (0 = GOMAXPROCS)")
		timeout   = flag.Duration("timeout", 0, "per-query timeout (0 = none)")
		limit     = flag.Uint64("limit", 0, "stop after N embeddings (0 = all)")
		doPrint   = flag.Bool("print", false, "print each embedding (edge tuples)")
		doMap     = flag.Bool("mappings", false, "with -print: also print one vertex mapping per embedding")
		doExplain = flag.Bool("explain", false, "print the dataflow plan before running")
		baseAlg   = flag.String("baseline", "", "run a baseline instead: cfl | daf | ceci | rapid")
	)
	flag.Parse()
	if *dataPath == "" || *queryPath == "" {
		fmt.Fprintln(os.Stderr, "hgmatch: -data and -query are required")
		flag.Usage()
		os.Exit(2)
	}

	data, err := hgio.ReadAutoFile(*dataPath) // text or binary, sniffed
	fatal(err, "loading data hypergraph")
	query, err := hgio.ReadAutoFile(*queryPath)
	fatal(err, "loading query hypergraph")
	// Separate files intern label names independently; re-align the
	// query's numeric label IDs with the data's by name.
	if aligned, err := hgio.AlignLabels(query, data); err == nil {
		query = aligned
	}

	fmt.Printf("data:  %v\n", data)
	fmt.Printf("query: %v\n", query)

	if *baseAlg != "" {
		runBaseline(*baseAlg, query, data, *timeout, *limit)
		return
	}

	plan, err := hgmatch.Compile(query, data)
	fatal(err, "compiling plan")
	if *doExplain {
		fmt.Printf("plan:  %s\n", plan.Explain())
	}

	opts := []hgmatch.Option{
		hgmatch.WithWorkers(*workers),
		hgmatch.WithTimeout(*timeout),
		hgmatch.WithLimit(*limit),
	}
	if *doPrint {
		opts = append(opts, hgmatch.WithCallback(func(m []hgmatch.EdgeID) {
			fmt.Printf("embedding: %v\n", m)
			if *doMap {
				if f := hgmatch.OneVertexMapping(query, data, plan.Order(), m); f != nil {
					fmt.Printf("  vertex mapping u->v: %v\n", f)
				}
			}
		}))
	}

	res := plan.Run(opts...)
	fmt.Printf("embeddings: %d\n", res.Embeddings)
	fmt.Printf("elapsed:    %s\n", stats.FormatDuration(res.Elapsed))
	fmt.Printf("candidates: %d  filtered: %d  valid: %d\n", res.Candidates, res.Filtered, res.Valid)
	fmt.Printf("peak task blocks: %d (%s)\n", res.PeakTasks, stats.FormatBytes(res.PeakTaskBytes))
	if res.TimedOut {
		fmt.Println("TIMED OUT — counts are lower bounds")
	}
}

func runBaseline(name string, query, data *hgmatch.Hypergraph, timeout time.Duration, limit uint64) {
	switch strings.ToLower(name) {
	case "rapid", "rapidmatch":
		res := bipartite.MatchHypergraphs(query, data, bipartite.Options{Timeout: timeout, Limit: limit})
		fmt.Printf("RapidMatch embeddings: %d (mappings %d, recursions %d)\n", res.Embeddings, res.Mappings, res.Recursions)
		fmt.Printf("elapsed: %s timedout: %v\n", stats.FormatDuration(res.Elapsed), res.TimedOut)
	case "cfl", "daf", "ceci":
		alg := map[string]baseline.Algorithm{
			"cfl": baseline.CFLH, "daf": baseline.DAFH, "ceci": baseline.CECIH,
		}[strings.ToLower(name)]
		res := baseline.Match(query, data, baseline.Options{Algorithm: alg, Timeout: timeout, Limit: limit})
		fmt.Printf("%v embeddings: %d (mappings %d, recursions %d)\n", alg, res.Embeddings, res.Mappings, res.Recursions)
		fmt.Printf("elapsed: %s timedout: %v\n", stats.FormatDuration(res.Elapsed), res.TimedOut)
	default:
		fmt.Fprintf(os.Stderr, "hgmatch: unknown baseline %q\n", name)
		os.Exit(2)
	}
}

func fatal(err error, what string) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "hgmatch: %s: %v\n", what, err)
		os.Exit(1)
	}
}
