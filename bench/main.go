// Command hgload is the repository's benchmark: it drives an hgserve child
// over loopback with one of four serving workloads generated from --seed,
// checks every answer against an in-process oracle, and reports the
// end-to-end metrics (--trace 0) or the per-layer ladder (--trace 1)
// declared in BENCHMARK.json. See README.md in this directory.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime/debug"
	"syscall"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: count_heavy, match_stream, point_open or ingest_mixed")
		seed     = flag.Int64("seed", 1, "seed of the request stream and ingest batches")
		seconds  = flag.Float64("seconds", runSeconds, "length of the timed window")
		trace    = flag.Int("trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
		outDir   = flag.String("out", "bench/out", "directory for reports, traces and scratch")
		hgserve  = flag.String("hgserve", "bench/out/bin/hgserve", "hgserve binary built from the tree under test")
		save     = flag.String("save", "", "also write the run's result into this directory, for --compare")
		compare  = flag.Bool("compare", false, "compare two directories of saved runs: hgload --compare <runs-A> <runs-B>")
		probeP   = flag.String("probe", "", "print the embedding counts of a datagen profile's sampled queries and exit")
		declare  = flag.Bool("benchmark-json", false, "print BENCHMARK.json as the harness's tables define it and exit")
	)
	flag.Parse()
	var err error
	switch {
	case *declare:
		out, _ := json.MarshalIndent(benchmarkJSON(), "", "  ") // cannot fail: plain structs
		fmt.Printf("%s\n", out)
	case *probeP != "":
		err = probe(*probeP)
	case *compare && flag.NArg() != 2:
		err = errors.New("--compare takes two directories of saved runs")
	case *compare:
		err = compareRuns(os.Stdout, flag.Arg(0), flag.Arg(1))
	default:
		err = run(*workload, *save, config{seed: *seed, seconds: *seconds, traced: *trace != 0, outDir: *outDir, hgserve: *hgserve})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hgload:", err)
		os.Exit(1)
	}
}

// errFailedOps makes the exit status non-zero when any answer was wrong,
// after the report has been printed.
var errFailedOps = errors.New("operations failed the oracle check")

// run is one timed or traced run of a workload.
func run(workload, save string, cfg config) error {
	var ok bool
	if cfg.spec, ok = specByName(workload); !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if cfg.seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	if _, err := os.Stat(cfg.hgserve); err != nil {
		return fmt.Errorf("no hgserve binary (bench/run.sh builds it): %w", err)
	}

	// Load windows run with the collector off (see harness.window); should
	// the heap ever reach this limit it comes back on instead of the
	// generator exhausting the machine.
	debug.SetMemoryLimit(2 << 30)

	// SIGINT/SIGTERM cancel the context; the run unwinds through the
	// deferred close, which kills the child and removes the scratch.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	hn, err := newHarness(ctx, cfg)
	if err != nil {
		return err
	}
	defer hn.close()
	if err := hn.prepare(); err != nil {
		return err
	}
	if hn.traced {
		err = hn.tracedRun()
	} else {
		err = hn.timedRun()
	}
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	// Clean up before printing: a closed stdout kills the process with
	// SIGPIPE in the middle of emit, and deferred calls do not run then.
	hn.close()
	if err := hn.rep.emit(os.Stdout, cfg.outDir); err != nil {
		return err
	}
	if save != "" {
		if err := saveRun(save, &hn.rep); err != nil {
			return err
		}
	}
	if hn.rep.Failed > 0 {
		return fmt.Errorf("%w: %d of %d", errFailedOps, hn.rep.Failed, hn.rep.Attempted)
	}
	return nil
}
