package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"hgmatch/internal/core"
	"hgmatch/internal/hgio"
	"hgmatch/internal/hypergraph"
)

// storageReps is how often each whole-graph operation (build, save, load,
// compact, checkpoint) is timed; the metric is the median.
const storageReps = 3

// compactPending is the -compact-threshold of ingest_mixed's server, and the
// delta size the in-process write path compacts at.
const compactPending = 2000

// writePathBatches batches go through the in-process write path: the
// warm-up ones and enough of the others for five compactions.
const writePathBatches = 100

// walAppends appends are timed per sync policy, walGap apart.
const (
	walAppends = 40
	walGap     = 10 * time.Millisecond
)

// secondsOf returns the median duration of reps calls to f.
func secondsOf(reps int, f func() error) (float64, error) {
	xs := make([]float64, reps)
	for i := range xs {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		xs[i] = time.Since(start).Seconds()
	}
	return median(xs), nil
}

// applyBatch applies plan batch i to a delta buffer the way the server's
// ingest handler does, without publishing.
func applyBatch(buf *hypergraph.DeltaBuffer, p *ingestPlan, i int) error {
	for _, e := range p.inserts[i] {
		if _, fresh, err := buf.Insert(e...); err != nil || !fresh {
			return fmt.Errorf("batch %d: insert %v: fresh=%v err=%v", i, e, fresh, err)
		}
	}
	for _, e := range p.deletes[i] {
		if found, err := buf.Delete(e...); err != nil || !found {
			return fmt.Errorf("batch %d: delete %v: found=%v err=%v", i, e, found, err)
		}
	}
	return nil
}

// walBatch is plan batch i as the server journals it.
func walBatch(p *ingestPlan, i int) *hgio.WALBatch {
	b := &hgio.WALBatch{}
	for _, e := range p.inserts[i] {
		b.Records = append(b.Records, hgio.IngestRecord{Op: "insert", Vertices: e})
	}
	for _, e := range p.deletes[i] {
		b.Records = append(b.Records, hgio.IngestRecord{Op: "delete", Vertices: e})
	}
	return b
}

// storageLayers sets the hypergraph and hgio metrics by calling those
// packages on the workload's own dataset and ingest batches.
func (hn *harness) storageLayers() error {
	m, data, plan := hn.rep.Metrics, hn.data, hn.stream.ingest
	incidences := float64(data.TotalArity())
	dir := filepath.Join(hn.runDir, "storage")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}

	// hypergraph: offline build and index footprint.
	edges := make([][]uint32, data.NumEdges())
	for e := range edges {
		edges[e] = data.Edge(hypergraph.EdgeID(e))
	}
	s, err := secondsOf(storageReps, func() error {
		_, err := hypergraph.FromEdges(data.Labels(), edges)
		return err
	})
	if err != nil {
		return err
	}
	m.set("hypergraph.build_s", s, storageReps)
	st := hypergraph.ComputeStats(data)
	m.set("hypergraph.index_bytes_per_incidence", float64(st.IndexBytes)/incidences, 1)
	m.set("hypergraph.bitmap_bytes_per_incidence", float64(st.BitmapBytes)/incidences, 1)

	// hypergraph: the write path, in the regime ingest_mixed's server is in:
	// apply and publish batch after batch, compact whenever compactPending
	// edges are pending or tombstoned. After the first compaction most
	// deletes hit compacted edges, whose tables a publish has to rebuild;
	// that, not the bookkeeping of a cancelled pending insert, is what a
	// delete costs a long-running server.
	buf, err := hypergraph.NewDeltaBuffer(data)
	if err != nil {
		return err
	}
	var insertUs, deleteUs, compactS []float64
	var delta, compacted *hypergraph.Hypergraph
	for batch := 0; batch < len(plan.bodies) && batch < writePathBatches; batch++ {
		start := time.Now()
		if err := applyBatch(buf, plan, batch); err != nil {
			return err
		}
		snap := buf.Publish()
		us := float64(time.Since(start).Nanoseconds()) / 1e3
		if len(plan.deletes[batch]) == 0 {
			insertUs = append(insertUs, us)
		} else {
			deleteUs = append(deleteUs, us)
		}
		if buf.PendingEdges()+buf.TombstonedEdges() >= compactPending {
			delta = snap
			start := time.Now()
			if compacted, _, _, err = buf.CompactCounted(); err != nil {
				return err
			}
			compactS = append(compactS, time.Since(start).Seconds())
		}
	}
	m.set("hypergraph.publish_us", median(insertUs), len(insertUs))
	m.set("hypergraph.publish_delete_us", median(deleteUs), len(deleteUs))
	m.set("hypergraph.compact_s", median(compactS), len(compactS))

	// The delta read tax: the ladder's queries on the last snapshot before a
	// compaction against the graph that compaction produced.
	seqOn := func(h *hypergraph.Hypergraph) (float64, error) {
		return secondsOf(storageReps, func() error {
			for _, q := range ladderQueries(hn.stream.pool, hn.spec.ladderN) {
				p, err := core.NewPlan(q.graph, h)
				if err != nil {
					return err
				}
				p.CountSequential()
			}
			return nil
		})
	}
	onDelta, err := seqOn(delta)
	if err != nil {
		return err
	}
	onCompacted, err := seqOn(compacted)
	if err != nil {
		return err
	}
	m.set("hypergraph.delta_read_tax", onDelta/onCompacted, storageReps)

	// hgio: the file formats.
	v2, v3 := filepath.Join(dir, "g.hgb2"), filepath.Join(dir, "g.hgb3")
	// The steps depend on each other (a load needs the save), so the first
	// error sticks and the rest are skipped.
	var ferr error
	timed := func(name string, f func() error) {
		if ferr != nil {
			return
		}
		var s float64
		if s, ferr = secondsOf(storageReps, f); ferr == nil {
			m.set(name, s, storageReps)
		}
	}
	fileBytes := func(name, path string) {
		if ferr != nil {
			return
		}
		var fi os.FileInfo
		if fi, ferr = os.Stat(path); ferr == nil {
			m.set(name, float64(fi.Size())/incidences, 1)
		}
	}
	timed("hgio.save_v2_s", func() error { return hgio.WriteBinaryFile(v2, data) })
	timed("hgio.save_v3_s", func() error { return hgio.WriteBinaryV3File(v3, data) })
	timed("hgio.load_v2_s", func() error { _, err := hgio.ReadBinaryFile(v2); return err })
	timed("hgio.load_v3_s", func() error { _, err := hgio.ReadAutoFile(v3); return err })
	timed("hgio.map_v3_s", func() error {
		mg, err := hgio.MapFile(v3, hgio.MapOptions{})
		if err != nil {
			return err
		}
		return mg.Release()
	})
	fileBytes("hgio.file_bytes_per_incidence_v2", v2)
	fileBytes("hgio.file_bytes_per_incidence_v3", v3)
	timed("hgio.checkpoint_s", func() error { return hgio.SaveCheckpoint(nil, dir, compacted, 1) })
	if ferr != nil {
		return ferr
	}

	// hgio: the log, fed the same batches. Under the batch policy an append
	// returns once a group-commit fsync covers it, which is what an ack
	// waits for; under none it returns after write(2), which leaves the
	// log's own work: encode, checksum, frame, write. Appends are paced:
	// an fsync that follows an idle gap costs about three times one in a
	// tight loop, and a served log only ever sees the former.
	appendUs := func(sub, policy string) (float64, hgio.WALStats, error) {
		sync, err := hgio.ParseSyncPolicy(policy)
		if err != nil {
			return 0, hgio.WALStats{}, err
		}
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return 0, hgio.WALStats{}, err
		}
		wal, _, err := hgio.OpenWAL(filepath.Join(dir, sub), hgio.WALOptions{Sync: sync}, func(*hgio.WALBatch) error { return nil })
		if err != nil {
			return 0, hgio.WALStats{}, err
		}
		defer wal.Close()
		var us []float64
		for i := warmBatches; i < len(plan.bodies) && i < warmBatches+walAppends; i++ {
			b := walBatch(plan, i)
			time.Sleep(walGap)
			start := time.Now()
			if err := wal.Append(b); err != nil {
				return 0, hgio.WALStats{}, err
			}
			us = append(us, float64(time.Since(start).Nanoseconds())/1e3)
		}
		return median(us), wal.Stats(), nil
	}
	synced, ws, err := appendUs("wal-batch", "batch")
	if err != nil {
		return err
	}
	unsynced, _, err := appendUs("wal-none", "none")
	if err != nil {
		return err
	}
	m.set("hgio.wal_append_us", synced, int(ws.Appends))
	m.set("hgio.wal_self_us", unsynced, int(ws.Appends))
	m.set("hgio.wal_bytes_per_record", float64(ws.Bytes)/float64(ws.Appends*2*batchInserts), int(ws.Appends))
	m.set("hgio.wal_syncs_per_batch", float64(ws.Syncs)/float64(ws.Appends), int(ws.Appends))
	return nil
}
