// Command hgserve exposes HGMatch as a concurrent HTTP match service: it
// loads one or more named data hypergraphs at startup and serves matching
// queries over JSON/NDJSON, caching compiled plans so repeated queries skip
// compilation (see internal/server for the endpoint contract).
//
// Usage:
//
//	hgserve -addr :8080 [-plan-cache 256] [-workers 0] [-timeout 1m]
//	        [-compact-threshold 10000] [-admission] [-tenant-quota 1000000]
//	        [-wal-dir /var/lib/hgserve/wal] [-wal-sync batch]
//	        [-mmap-verify] [-drain-timeout 10s]
//	        [-request-max-bytes 0] [-write-timeout 30s]
//	        name=path.hg [name2=path2.hg ...]
//
// Each positional argument registers one data hypergraph (text or binary
// .hg, sniffed) under the given name, and the file picks how it is served.
// Text and HGB2 graphs are read onto the heap. HGB3 graphs are mapped at
// startup and served zero-copy off mmap(2); a file that fails to map
// fails the boot, as an unreadable text or HGB2 file does. -mmap-verify
// checksums each HGB3 file's payload once, when it is mapped. Every graph
// is live: new hyperedges stream in over POST /graphs/{name}/edges without
// a restart (a mapped graph takes its delta over the mapping), and the
// delta folds into a fresh heap index in the background once it reaches
// -compact-threshold edges (see docs/OPERATIONS.md for both).
//
// With -wal-dir set, ingest is crash-safe: every acked batch is journaled
// to a per-graph write-ahead log under that directory before its snapshot
// publishes, compaction doubles as an atomic checkpoint, and a restart
// replays checkpoint + WAL so no acked write is lost. -wal-sync picks the
// fsync policy (batch: one fsync per acked batch / none; see
// docs/OPERATIONS.md for the latency/safety tradeoff). On -wal-dir graphs the name=path.hg
// file is only the first-boot seed; later boots recover the journaled
// state, recovered onto the heap whatever the file's format. A graph whose
// log fails its integrity checks comes up read-only with the bad segment
// quarantined — serving continues, writes get 503.
//
// All matches run on one shared worker pool of -workers goroutines under
// fair scheduling; a request's "workers" field caps its share, it no
// longer spawns threads. A /match with a "limit" streams the first
// limit rows of the sequential match order — the same rows on every run
// and core count — from one worker at a time. With -admission, expensive
// queries (planner cost estimate at or above -cheap-threshold) must fit
// their tenant's -tenant-quota of in-flight cost or receive 429 with a
// retry-after; tenants are identified by the X-API-Key or Authorization
// header. GET /stats reports the pool and admission counters.
//
// Serving is fault-contained: a panic inside one request's match run is
// recovered at the task boundary and returned as a 500 with code
// "request_poisoned" (stack logged server-side) without taking down the
// process or other in-flight requests. -request-max-bytes caps each
// request's engine working memory (task blocks); over-budget runs abort
// with 413 / "budget_exceeded" (0 = unlimited). -write-timeout bounds each
// NDJSON write so a stalled reader cancels only its own run and releases
// its admission cost (negative disables). GET /healthz reports liveness; GET /readyz reports readiness
// — false (503) while graphs load at boot and once shutdown begins, and
// degraded detail lists graphs serving read-only. See docs/OPERATIONS.md
// for the overload & incident runbook. Example session:
//
//	hgserve fig1=testdata/fig1.hg &
//	curl -s localhost:8080/graphs
//	curl -s -d '{"graph":"fig1","query":"v A\nv C\ne 0 1"}' localhost:8080/count
//	curl -sN -d '{"graph":"fig1","query":"v A\nv C\ne 0 1"}' localhost:8080/match
//	curl -s -d '{"op":"insert","vertices":[0,3]}' localhost:8080/graphs/fig1/edges
//	curl -s -XPOST localhost:8080/graphs/fig1/compact
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hgmatch/internal/hgio"
	"hgmatch/internal/server"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		cacheSize = flag.Int("plan-cache", 256, "plan cache capacity in plans (0 disables)")
		workers   = flag.Int("workers", 0, "shared morsel-pool size serving all requests (0 = GOMAXPROCS)")
		timeout   = flag.Duration("timeout", time.Minute, "default per-request engine timeout")
		maxTime   = flag.Duration("max-timeout", 10*time.Minute, "upper bound on client-requested timeouts")
		compactAt = flag.Int("compact-threshold", 10000,
			"background-compact a live graph once its uncompacted delta reaches this many edges (0 = manual compaction only)")
		admission = flag.Bool("admission", false,
			"enable cost-based admission control: expensive queries acquire planner-cost tokens from their tenant's quota, over-quota requests get 429")
		tenantQuota = flag.Uint64("tenant-quota", 0,
			"per-tenant in-flight cost budget for -admission (0 = default 1M; tenant = X-API-Key/Authorization header, global otherwise)")
		cheapCost = flag.Uint64("cheap-threshold", 0,
			"planner-cost estimate below which requests bypass -admission (0 = default 10k)")
		walDir = flag.String("wal-dir", "",
			"root directory for per-graph write-ahead logs and checkpoints; empty disables durability (acked ingests live only in memory)")
		walSync = flag.String("wal-sync", "batch",
			"WAL fsync policy: batch (fsync every batch before its ack) or none")
		mmapVerify = flag.Bool("mmap-verify", false,
			"for HGB3 graphs, verify each file's payload checksum when it is mapped at startup (reads the whole file once)")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second,
			"how long shutdown waits for in-flight requests to drain before forcing connections closed")
		requestMaxBytes = flag.Int64("request-max-bytes", 0,
			"per-request engine memory budget in bytes; over-budget runs abort with 413 budget_exceeded (0 = unlimited)")
		writeTimeout = flag.Duration("write-timeout", 0,
			"per-write deadline on streamed responses; a slower client has its run cancelled as slow_client (0 = default 30s, negative disables)")
	)
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "hgserve: at least one name=path.hg graph argument is required")
		flag.Usage()
		os.Exit(2)
	}

	reg := server.NewRegistry()
	reg.SetMapVerify(*mmapVerify)
	if *walDir != "" {
		policy, err := hgio.ParseSyncPolicy(*walSync)
		if err != nil {
			log.Fatalf("hgserve: -wal-sync: %v", err)
		}
		if err := reg.EnableDurability(server.DurabilityConfig{Dir: *walDir, Sync: policy}); err != nil {
			log.Fatalf("hgserve: %v", err)
		}
		log.Printf("durability on: wal-dir=%s sync=%s", *walDir, policy)
	}
	// The operator's "0" means off; Config reserves 0 for its default.
	if *cacheSize <= 0 {
		*cacheSize = -1
	}
	srv := server.New(reg, server.Config{
		PlanCacheSize:    *cacheSize,
		DefaultTimeout:   *timeout,
		MaxTimeout:       *maxTime,
		Workers:          *workers,
		CompactThreshold: *compactAt,
		RequestMaxBytes:  *requestMaxBytes,
		WriteTimeout:     *writeTimeout,
		Admission: server.AdmissionConfig{
			Enabled:        *admission,
			TenantQuota:    *tenantQuota,
			CheapThreshold: *cheapCost,
		},
	})
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	// Bring the listener up before graph loading so orchestrators can poll
	// /readyz through a slow boot (WAL recovery can take a while); readiness
	// flips true only once every graph has loaded. Serve until
	// SIGINT/SIGTERM, then drain in-flight requests; engine runs follow
	// their request contexts down.
	srv.SetNotReady("loading graphs")
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("hgserve listening on %s, loading %d graphs (not ready)", *addr, flag.NArg())

	for _, arg := range flag.Args() {
		name, path, ok := strings.Cut(arg, "=")
		if !ok || name == "" || path == "" {
			fatal(srv, "hgserve: bad graph argument %q (want name=path.hg)", arg)
		}
		start := time.Now()
		if err := reg.LoadFile(name, path); err != nil {
			fatal(srv, "hgserve: %v", err)
		}
		// Info reads array lengths, not arrays: it faults no payload page
		// of a mapped graph.
		info, _ := reg.Info(name)
		log.Printf("loaded %q (%s): %d vertices, %d edges (%s)",
			name, info.Tier, info.NumVertices, info.NumEdges, time.Since(start).Round(time.Millisecond))
		if info.ReadOnly {
			log.Printf("WARNING: %q serving READ-ONLY: %s", name, info.ReadOnlyReason)
		}
	}
	srv.SetReady()
	log.Printf("ready: %d graphs", reg.Len())

	select {
	case err := <-errc:
		// Even a failed listen must release the WALs and pool before
		// exiting; log.Fatalf would skip both.
		log.Printf("hgserve: %v", err)
		srv.Close()
		os.Exit(1)
	case <-ctx.Done():
	}
	// Restore default signal handling: a second SIGINT/SIGTERM during the
	// drain kills the process immediately instead of being swallowed.
	stop()
	// Fail /readyz first so load balancers stop routing here while the
	// drain still answers in-flight requests.
	srv.SetNotReady("shutting down")
	log.Printf("shutting down (draining up to %s)", *drainTimeout)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			log.Printf("hgserve: drain timeout elapsed, closing remaining connections")
		} else {
			log.Printf("hgserve: shutdown: %v", err)
		}
		// Past the drain budget: force remaining connections closed so
		// srv.Close below cannot block behind a stuck client.
		httpSrv.Close()
	}
	// Waits for background compactions, flushes + closes every graph's
	// WAL, then drains and joins the shared worker pool (in-flight engine
	// runs follow their contexts down).
	srv.Close()
}

// fatal is log.Fatalf for errors after the server exists: Close releases
// WAL locks and joins the pool before the process exits.
func fatal(srv *server.Server, format string, args ...any) {
	log.Printf(format, args...)
	srv.Close()
	os.Exit(1)
}
