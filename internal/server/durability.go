package server

import (
	"errors"
	"fmt"
	"log"
	"maps"
	"path"
	"sort"
	"strings"

	"hgmatch"
	"hgmatch/internal/hgio"
)

// Durability: the registry's write-ahead-log integration. With a
// DurabilityConfig enabled, every graph gets a directory under Dir holding
// an atomic HGB2 checkpoint plus a segmented WAL (internal/hgio); ingest
// batches are journaled before their snapshot is published (ack = durable),
// boot replays checkpoint + WAL, and compaction doubles as checkpointing.
// Degradation is graceful: a graph whose log or checkpoint cannot be
// trusted comes up read-only with a reason — matching keeps serving the
// recovered prefix, ingest returns 503, and the operator decides (see the
// quarantine runbook in docs/OPERATIONS.md). Durability failures never
// crash the server.

// DurabilityConfig enables WAL-backed crash safety for a registry's graphs.
type DurabilityConfig struct {
	// Dir is the root WAL directory; each graph uses Dir/<name>/.
	Dir string
	// Sync is the WAL fsync policy (see hgio.ParseSyncPolicy).
	Sync hgio.SyncPolicy
	// SegmentBytes is the WAL rotation threshold (0 = hgio default).
	SegmentBytes int64
	// FS overrides the filesystem (tests inject hgtest.FaultFS); nil = OS.
	FS hgio.WALFS
}

// durableState is a graph entry's durability attachment. wal == nil with a
// non-nil durableState means durability was requested but could not be
// established — the entry is read-only.
type durableState struct {
	dir string
	fs  hgio.WALFS
	wal *hgio.WAL
}

// EnableDurability turns on WAL-backed registration for every graph added
// after the call. Call it on an empty registry, before Add/LoadFile.
func (r *Registry) EnableDurability(cfg DurabilityConfig) error {
	if cfg.Dir == "" {
		return errors.New("server: durability needs a WAL directory")
	}
	if cfg.FS == nil {
		cfg.FS = hgio.OSFS
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.graphs) > 0 {
		return errors.New("server: EnableDurability must precede graph registration")
	}
	r.dur = &cfg
	return nil
}

// Durable reports whether WAL-backed registration is enabled.
func (r *Registry) Durable() bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.dur != nil
}

// ReadOnlyCount counts graphs currently serving read-only.
func (r *Registry) ReadOnlyCount() int {
	return len(r.ReadOnlyNames())
}

// ReadOnlyNames lists the graphs currently degraded to read-only serving,
// sorted by name — the degraded detail GET /readyz reports.
func (r *Registry) ReadOnlyNames() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var names []string
	for name, e := range r.graphs {
		if _, ro := e.readOnly(); ro {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// Close flushes and closes every graph's WAL and retires every entry,
// detaching its mapping. New Acquires, ingests and compactions fail with
// errRegistryClosed from its first step on. Close does not wait for
// in-flight requests: a mapping one still holds is unmapped when that
// request releases it. An ingest already past its lookup must still be
// quiesced by the caller before Close.
func (r *Registry) Close() error {
	r.mu.Lock()
	r.closed = true
	entries := maps.Clone(r.graphs)
	r.mu.Unlock()
	var err error
	for name, e := range entries {
		if e.dur != nil && e.dur.wal != nil {
			if cerr := e.dur.wal.Close(); err == nil {
				err = cerr
			}
		}
		r.detach(name, e, detachRetire)
	}
	return err
}

// readOnly reports whether the entry is degraded to read-only serving, and
// why.
func (e *graphEntry) readOnly() (string, bool) {
	e.roMu.Lock()
	defer e.roMu.Unlock()
	return e.roReason, e.roReason != ""
}

// markReadOnly degrades the entry to read-only serving. The first reason
// wins (it names the root cause; later failures are usually fallout).
func (e *graphEntry) markReadOnly(reason string) {
	e.roMu.Lock()
	defer e.roMu.Unlock()
	if e.roReason == "" {
		e.roReason = reason
	}
}

// validGraphName rejects names that would escape the WAL root when used as
// a directory component.
func validGraphName(name string) bool {
	return name != "" && name != "." && name != ".." &&
		!strings.ContainsAny(name, "/\\") && !strings.Contains(name, "\x00")
}

// addDurable is Add/LoadFile with durability enabled: recover the graph
// from its checkpoint + WAL if it has history, seed it (and write its first
// checkpoint) if not, and leave it read-only — registered, serving, but
// rejecting writes — when its durable state cannot be trusted. seed is
// called only when no usable checkpoint exists.
func (r *Registry) addDurable(name string, cfg DurabilityConfig, seed func() (*hgmatch.Hypergraph, error)) error {
	if !validGraphName(name) {
		return fmt.Errorf("server: graph name %q not usable as a WAL directory", name)
	}
	dir := path.Join(cfg.Dir, name)
	fs := cfg.FS
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("server: creating WAL directory for %q: %w", name, err)
	}

	// A replacement must release the previous registration's log before
	// recovery reopens the same directory.
	if prev, ok := r.entry(name); ok && prev.dur != nil && prev.dur.wal != nil {
		prev.dur.wal.Close()
	}

	e := &graphEntry{dur: &durableState{dir: dir, fs: fs}}

	base, cpSeq, found, err := hgio.LoadCheckpoint(fs, dir)
	switch {
	case err != nil && found:
		// The checkpoint exists but cannot be read. The WAL's batches
		// assume its base, so replaying them onto a fresh seed would build
		// a wrong graph: quarantine the checkpoint, serve the seed
		// read-only, and leave the log for the operator. The graph is
		// read-only whether or not the rename lands.
		_ = fs.Rename(path.Join(dir, hgio.CheckpointFile), path.Join(dir, hgio.CheckpointFile+".quarantined"))
		e.markReadOnly(fmt.Sprintf("checkpoint unreadable (quarantined): %v", err))
		if base, err = seed(); err != nil {
			return fmt.Errorf("server: seeding %q: %w", name, err)
		}
	case err != nil:
		return fmt.Errorf("server: reading checkpoint for %q: %w", name, err)
	case !found:
		if segs, _ := fs.ReadDir(dir); hasWALSegments(segs) {
			// WAL segments without the checkpoint they replay onto: the
			// checkpoint was lost out-of-band. Nothing trustworthy to
			// recover; serve the seed read-only.
			e.markReadOnly("wal segments present without a checkpoint")
			if base, err = seed(); err != nil {
				return fmt.Errorf("server: seeding %q: %w", name, err)
			}
			break
		}
		if base, err = seed(); err != nil {
			return fmt.Errorf("server: seeding %q: %w", name, err)
		}
		if err := hgio.SaveCheckpoint(fs, dir, base, 0); err != nil {
			// No durable base means no durable anything; serve, refuse
			// writes, let the operator fix the volume.
			e.markReadOnly(fmt.Sprintf("writing initial checkpoint: %v", err))
		}
	}

	live, err := hgmatch.NewDeltaBuffer(base)
	if err != nil {
		return fmt.Errorf("server: registering graph %q: %w", name, err)
	}
	e.live.Store(live)

	if _, ro := e.readOnly(); !ro {
		// StartAfter hands recovery the checkpoint's coverage mark: batches
		// the checkpoint already folded in are validated but not re-applied
		// (a crash between the checkpoint rename and the WAL truncation
		// leaves them in the log, and replay is only idempotent for batches
		// PAST the base's coverage).
		wal, rep, err := hgio.OpenWAL(dir, hgio.WALOptions{
			FS:           fs,
			Sync:         cfg.Sync,
			SegmentBytes: cfg.SegmentBytes,
			StartAfter:   cpSeq,
		}, func(b *hgio.WALBatch) error { return replayBatch(live, b) })
		if err != nil {
			// Quarantine already happened inside OpenWAL; the replayed
			// prefix is in the buffer and is the best state we can serve.
			e.markReadOnly(fmt.Sprintf("wal recovery: %v", err))
			log.Printf("server: graph %q degraded to read-only: %v", name, err)
		} else {
			e.dur.wal = wal
			if rep.Batches > 0 || rep.TruncatedBytes > 0 {
				log.Printf("server: graph %q recovered %d wal batches (%d records, last seq %d, %d torn bytes dropped)",
					name, rep.Batches, rep.Records, rep.LastSeq, rep.TruncatedBytes)
			}
		}
	}
	live.Publish() // replayed writes become visible before the name does
	r.install(name, e)
	return nil
}

func hasWALSegments(names []string) bool {
	for _, n := range names {
		if strings.HasPrefix(n, "wal-") && strings.HasSuffix(n, ".seg") {
			return true
		}
	}
	return false
}

// replayBatch re-applies one journaled batch during recovery. Replay is
// idempotent on any state that already contains a prefix of the log's
// effects: re-inserting an existing edge is a duplicate, re-deleting a
// missing one is a no-op, and add_vertex records are gated by the batch's
// recorded vertex count so a checkpoint that already contains them does
// not grow twice.
func replayBatch(live *hgmatch.DeltaBuffer, b *hgio.WALBatch) error {
	var sum hgio.IngestSummary
	for i := range b.Records {
		rec := &b.Records[i]
		if rec.Op == "add_vertex" && live.NumVertices() >= b.VertsAfter {
			continue
		}
		if err := applyRecord(live, rec, &sum); err != nil {
			return fmt.Errorf("record %d: %w", i, err)
		}
	}
	return nil
}

// journal appends the batch's applied records to the entry's WAL and
// blocks until they are durable per the sync policy. durable reports
// whether a WAL backs this entry at all.
func (e *graphEntry) journal(recs []hgio.IngestRecord, live *hgmatch.DeltaBuffer) (seq uint64, durable bool, err error) {
	if e.dur == nil || e.dur.wal == nil {
		return 0, false, nil
	}
	b := hgio.WALBatch{VertsAfter: live.NumVertices(), Records: recs}
	if err := e.dur.wal.Append(&b); err != nil {
		return 0, true, err
	}
	return b.Seq, true, nil
}

// checkpoint makes a freshly compacted base durable and truncates the WAL
// whose batches it folded in. Called with the entry's ingest lock held, so
// no append races the truncation. A failed checkpoint write is benign —
// the old checkpoint plus the untruncated WAL still replay to the current
// state — so it only logs; a failed truncation leaves the WAL unusable and
// degrades to read-only.
func (e *graphEntry) checkpoint(name string, nh *hgmatch.Hypergraph) {
	if e.dur == nil || e.dur.wal == nil {
		return
	}
	// The ingest lock is held: no append is in flight, so the WAL's current
	// last sequence is exactly what the compacted base folded in.
	if err := hgio.SaveCheckpoint(e.dur.fs, e.dur.dir, nh, e.dur.wal.Stats().LastSeq); err != nil {
		log.Printf("server: checkpointing %q failed (will retry at next compaction): %v", name, err)
		return
	}
	if err := e.dur.wal.Reset(); err != nil {
		e.markReadOnly(fmt.Sprintf("wal truncation after checkpoint: %v", err))
		log.Printf("server: graph %q degraded to read-only: wal truncation after checkpoint: %v", name, err)
	}
}
