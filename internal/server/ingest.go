package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"time"

	"hgmatch"
	"hgmatch/internal/hgio"
)

// handleIngest implements POST /graphs/{name}/edges: NDJSON bulk ingest of
// hyperedge inserts/deletes (and vertex adds) into the named live graph.
//
// The request is processed in three phases. (1) The whole NDJSON body is
// decoded up front; a malformed line rejects the entire batch with 400 —
// nothing applied, nothing journaled — so framing errors can never
// half-apply a request. (2) Under the graph's ingest lock the records
// apply in order; a semantically invalid record (unknown vertex, bad op)
// stops the batch there, and the applied prefix is kept — the summary
// reports exactly how much landed. (3) The applied records are journaled
// to the graph's WAL and fsynced per the sync policy BEFORE the snapshot
// is published: by the time the response reaches the client, everything
// it confirms survives a crash (with durability enabled; without it,
// phase 3 is just the publication). If journaling fails the writes are
// not acked and not published, and the graph degrades to read-only —
// durability can no longer be promised, so no further writes are accepted.
//
// Publication bumps the graph's version: the plan cache drops the graph's
// stale plans and every subsequent /match compiles (or cache-hits) against
// the new snapshot, while matches already running finish on the snapshot
// they started with.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	e, live, release, err := s.graphs.lookup(name)
	if err != nil {
		writePlanError(w, name, err)
		return
	}
	defer release()
	start := time.Now()
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()

	var sum hgio.IngestSummary

	// Phase 1: decode the whole batch. Rejecting a torn request before
	// touching the graph is what lets ack semantics be per-batch: a batch
	// either exists completely (applied prefix + journal frame) or not at
	// all. The records must be held in memory anyway — the WAL journals
	// them as one frame — and bodies are bounded by MaxBodyBytes.
	var recs []hgio.IngestRecord
	for {
		var rec hgio.IngestRecord
		if err := dec.Decode(&rec); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			status := http.StatusBadRequest
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				status = http.StatusRequestEntityTooLarge
			}
			sum.Lines = len(recs)
			sum.Error = fmt.Sprintf("line %d: bad ingest record: %v (batch rejected; nothing applied)", len(recs)+1, err)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(status)
			json.NewEncoder(w).Encode(sum)
			return
		}
		recs = append(recs, rec)
	}

	// Phase 2: apply under the ingest lock, so the journal order below is
	// exactly the apply order across concurrent requests.
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	if reason, ro := e.readOnly(); ro {
		writeReadOnly(w, name, reason)
		return
	}
	applied := 0
	var applyErr string
	for i := range recs {
		sum.Lines++
		if err := applyRecord(live, &recs[i], &sum); err != nil {
			applyErr = fmt.Sprintf("line %d: %v", sum.Lines, err)
			break
		}
		applied++
	}

	// Phase 3: durability before visibility, visibility before the ack.
	if applied > 0 {
		seq, durable, err := e.journal(recs[:applied])
		if err != nil {
			// The applied records sit unjournaled in the buffer: they are
			// not acked and must not be promised to anyone. Degrade before
			// publishing anything.
			e.markReadOnly("wal append failed: " + err.Error())
			log.Printf("server: graph %q degraded to read-only: wal append failed: %v", name, err)
			writeReadOnly(w, name, "wal append failed: "+err.Error())
			return
		}
		sum.Durable = durable
		sum.WalSeq = seq
	}
	s.publishIngest(name, e, live, &sum, start)
	if applyErr != "" {
		// Semantic failures stay partial by contract (the summary says how
		// far the batch got), and the applied prefix is journaled+published
		// as one unit — never visible without being durable.
		sum.Error = applyErr
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(w).Encode(sum)
		return
	}
	sum.Done = true
	writeJSON(w, sum)
}

// writeReadOnly reports a degraded graph: 503 with the root cause, so a
// load balancer retries elsewhere and an operator knows where to look.
func writeReadOnly(w http.ResponseWriter, name, reason string) {
	writeError(w, http.StatusServiceUnavailable, "graph %q is read-only: %s", name, reason)
}

// applyRecord applies one record to the live graph, updating the summary.
// add_vertex records are normalised in place to their numeric label, so
// the record journals (and replays) without a dictionary lookup. Shared by
// the ingest handler and WAL replay (durability.go), which is what makes
// recovery replay exactly what the handler did.
func applyRecord(live *hgmatch.DeltaBuffer, rec *hgio.IngestRecord, sum *hgio.IngestSummary) error {
	op := rec.Op
	if op == "" && len(rec.Vertices) > 0 {
		op = "insert"
	}
	el := hgmatch.NoEdgeLabel
	if rec.EdgeLabel != nil {
		el = *rec.EdgeLabel
	}
	switch op {
	case "insert":
		_, added, err := live.InsertLabelled(el, rec.Vertices...)
		if err != nil {
			return err
		}
		if added {
			sum.Inserted++
		} else {
			sum.Duplicates++
		}
	case "delete":
		ok, err := live.DeleteLabelled(el, rec.Vertices...)
		if err != nil {
			return err
		}
		if ok {
			sum.Deleted++
		} else {
			sum.Missing++
		}
	case "add_vertex":
		label, err := resolveLabel(live, rec)
		if err != nil {
			return err
		}
		rec.Label, rec.LabelName = &label, ""
		live.AddVertex(label)
		sum.VerticesAdded++
	default:
		return errBadOp(rec.Op)
	}
	return nil
}

// resolveLabel maps an add_vertex record to a numeric label: either the
// numeric "label" field, or "label_name" resolved against the graph's
// dictionary (names never intern new dictionary entries online — the
// dictionary is shared by live snapshots and must stay immutable).
func resolveLabel(live *hgmatch.DeltaBuffer, rec *hgio.IngestRecord) (hgmatch.Label, error) {
	if rec.Label != nil {
		return *rec.Label, nil
	}
	if rec.LabelName == "" {
		return 0, errors.New(`add_vertex needs "label" or "label_name"`)
	}
	// The dictionary is immutable and shared by every snapshot; resolving
	// against the base avoids publishing a snapshot mid-request (bulk
	// ingest publishes exactly once, at the end).
	dict := live.Base().Dict()
	if dict == nil {
		return 0, errors.New(`graph has no label dictionary; use numeric "label"`)
	}
	l, ok := dict.Lookup(rec.LabelName)
	if !ok {
		return 0, errUnknownLabel(rec.LabelName)
	}
	return l, nil
}

type errBadOp string

func (e errBadOp) Error() string { return `unknown op "` + string(e) + `"` }

type errUnknownLabel string

func (e errUnknownLabel) Error() string {
	return `label name "` + string(e) + `" not in the graph's dictionary (online ingest cannot add label names)`
}

// publishIngest publishes the accumulated delta as one snapshot, fills the
// summary's version/volume fields and drops the graph's now-stale cached
// plans (their keys carry the old version, so dropping only frees memory —
// correctness never depended on it). Publication goes through the SAME
// buffer the records were applied to — re-resolving the name could hit a
// concurrently re-registered replacement and leave the writes unpublished
// while reporting the replacement's version.
func (s *Server) publishIngest(name string, e *graphEntry, live *hgmatch.DeltaBuffer, sum *hgio.IngestSummary, start time.Time) {
	h := live.Publish() // writer-side: blocks until this batch's writes are live
	sum.Version = e.version(h)
	sum.PendingEdges = live.PendingEdges()
	sum.DeadEdges = live.TombstonedEdges()
	sum.ElapsedUs = time.Since(start).Microseconds()
	if sum.Inserted+sum.Deleted+sum.VerticesAdded > 0 {
		s.plans.DropPrefix(GraphPrefix(name))
	}

	// Threshold-based background compaction: the response returns as soon
	// as the delta is published; folding it into a fresh base proceeds
	// off-request (readers are never blocked, writers briefly are). This
	// runs on failed (partially applied) batches too — their lines grow
	// the delta all the same. At most one fold per graph is in flight:
	// a burst of over-threshold ingests must not queue rebuilds behind
	// the buffer mutex, stalling every writer.
	if s.cfg.CompactThreshold > 0 && sum.PendingEdges+sum.DeadEdges >= s.cfg.CompactThreshold {
		sum.Compacting = true // a compaction is running or being scheduled
		if _, busy := s.compacting.LoadOrStore(name, struct{}{}); busy {
			return
		}
		published := sum.Version
		s.compactWG.Add(1)
		go func() {
			defer s.compactWG.Done()
			defer s.compacting.Delete(name)
			// The fold holds its own reference; the request's ends with it.
			_, release, err := s.graphs.hold(e)
			if err != nil {
				return // replaced or closed since the ingest: nothing to fold
			}
			defer release()
			nh, _, _, err := s.compactGraph(name, e, live)
			if err != nil {
				// A failing compaction must not be silent: the delta would
				// grow unbounded while every ingest reports compacting:true.
				log.Printf("server: background compaction of %q failed: %v", name, err)
				return
			}
			// Purge only when the fold actually moved the version (it
			// always does here unless a concurrent manual /compact beat
			// us to the fold and already purged).
			if v := e.version(nh); v != published {
				s.plans.DropPrefix(GraphPrefix(name))
			}
		}()
	}
}

// errGraphReadOnly marks compactions refused because the graph is degraded.
type errGraphReadOnly string

func (e errGraphReadOnly) Error() string { return "graph is read-only: " + string(e) }

// compactGraph folds the graph's delta into a fresh base and — with
// durability on — checkpoints it and truncates the WAL, all under the
// ingest lock so no concurrent batch lands between the fold and the
// truncation (it would be dropped from the log while missing from the
// checkpoint). A fold off a mapped base detaches the mapping; an idle one
// keeps it. The caller holds live's reference (lookup or hold).
func (s *Server) compactGraph(name string, e *graphEntry, live *hgmatch.DeltaBuffer) (nh *hgmatch.Hypergraph, folded, dropped int, err error) {
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	if reason, ro := e.readOnly(); ro {
		return nil, 0, 0, errGraphReadOnly(reason)
	}
	nh, folded, dropped, err = live.CompactCounted()
	if err != nil {
		return nil, 0, 0, err
	}
	if m := e.mapped.Load(); m != nil && nh != m.Graph() {
		s.graphs.detach(name, e, detachFold)
	}
	e.checkpoint(name, nh)
	return nh, folded, dropped, nil
}

// handleCompact implements POST /graphs/{name}/compact: synchronously fold
// the graph's accumulated delta into a fresh fully-indexed base, publish
// it, and (with durability on) checkpoint it atomically — temp file,
// fsync, rename — before truncating the WAL it supersedes. Readers keep
// matching on the previous snapshot throughout; the response reports the
// new base.
func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	start := time.Now()
	e, live, release, err := s.graphs.lookup(name)
	if err != nil {
		writePlanError(w, name, err)
		return
	}
	defer release()
	before := e.version(live.Published())
	// Counts come from the fold itself: reading them beforehand would
	// race with a concurrent ingest and under-report.
	nh, folded, dropped, err := s.compactGraph(name, e, live)
	if err != nil {
		var ro errGraphReadOnly
		if errors.As(err, &ro) {
			writeReadOnly(w, name, string(ro))
			return
		}
		writeError(w, http.StatusInternalServerError, "compacting %q: %v", name, err)
		return
	}
	// Version derived from nh itself: a concurrent ingest may already have
	// published a newer snapshot, and pairing ITS version with nh's edge
	// count would hand the client an inconsistent (edges, version) pair.
	version := e.version(nh)
	if version != before {
		// Skip the purge on a no-op idle compaction: the cached plans
		// still belong to the current version, and evicting them would
		// make a periodic compaction tick cost a cold compile per hot
		// query. (Stale-version plans are correctness-safe either way —
		// the version is in the key — purging only frees memory.)
		s.plans.DropPrefix(GraphPrefix(name))
	}
	writeJSON(w, hgio.CompactSummary{
		Done:        true,
		Edges:       nh.NumEdges(),
		FoldedEdges: folded,
		Dropped:     dropped,
		Version:     version,
		ElapsedUs:   time.Since(start).Microseconds(),
	})
}
