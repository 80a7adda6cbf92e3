package server

// Crash-recovery tests: the durability layer's named guarantees, each a
// focused run of the registry lifecycle model (lifecycle_test.go) on a
// durable registry over an hgtest.FaultFS. Its writer ops pick the
// guarantee, the ops it must run prove it was exercised, and the model's
// checks decide it: recover checks every boot against the acked batches,
// matchFixed every round's /match rows against the oracle.

import "testing"

// TestWALRecoveryBasic is the clean (crash-free) durability round trip:
// ingest, shut down, restart, identical state (edges, vertices and their
// labels, added ones included) — including across a
// checkpoint (/compact) and with further writes after recovery. A load
// re-registers a name on its own disk, recovering its checkpoint and WAL,
// and each seed ends with a Close and a boot.
func TestWALRecoveryBasic(t *testing.T) {
	lifecycle(t, lcPlan{sync: "batch", from: 1, to: 1, writers: "ingest compact load", ops: "ingest-plain compact load"})
}

// TestCrashRecoveryStress is the kill-point sweep: it kills the serving
// process within a few mutating file operations of ingests and
// compactions, boots on the crash image of the disk, and checks the full
// contract. The two subtests sweep disjoint seeds; with fsync on the ack
// path every acked batch must survive, and the recovered name must ack its
// next batch at the sequence after its last. The "none" policy, whose
// boots must still yield a clean prefix of the journaled history, is swept
// by TestRegistryLifecycle/durable/none.
func TestCrashRecoveryStress(t *testing.T) {
	for i, name := range []string{"batch", "batch-reseeded"} {
		t.Run(name, func(t *testing.T) {
			from := int64(101 + 100*i)
			lifecycle(t, lcPlan{sync: "batch", from: from, to: from + 1, writers: "ingest compact crash", ops: "crash crash-mid-op compact"})
		})
	}
}

// TestCrashRecoveryStressConcurrent kills the process while two clients
// ingest: each crash op sends its batches to one name beside a concurrent
// client's batch of a fresh edge to another name, perhaps the same one.
// Every acked batch of either client must be served after recovery.
func TestCrashRecoveryStressConcurrent(t *testing.T) {
	lifecycle(t, lcPlan{sync: "batch", from: 301, to: 302, writers: "ingest crash", ops: "crash crash-mid-op"})
}

// TestQuarantineReadOnlyServing injects at-rest corruption into a sealed
// WAL segment and checks graceful degradation end to end: the segment is
// quarantined on disk, the graph serves /match read-only, ingest and
// compaction return 503 with the reason, and /stats + /graphs/{name}/stats
// surface the state. Each seed ends with a read-only /match over TCP
// (matchOverTCP).
func TestQuarantineReadOnlyServing(t *testing.T) {
	lifecycle(t, lcPlan{sync: "batch", from: 401, to: 401, writers: "ingest flip-segment", ops: "flip-segment match-tcp"})
}

// TestCheckpointBitFlipQuarantines flips one bit of a checkpoint at rest,
// once in its WAL coverage mark and once in the graph bytes, and checks
// that recovery treats the checkpoint as unreadable: it is quarantined,
// the graph serves its seed read-only and ingest answers 503, at that boot
// and every later one, with WAL segments beside it or none. Trusting a
// flipped mark would skip acked batches as already checkpointed and keep
// acking on top; the graph's own encoding rejects most flips, but not
// all of them.
func TestCheckpointBitFlipQuarantines(t *testing.T) {
	for _, tc := range []struct{ name, flip string }{{"coverage mark", "flip-mark"}, {"graph payload", "flip-payload"}} {
		t.Run(tc.name, func(t *testing.T) {
			lifecycle(t, lcPlan{sync: "batch", from: 501, to: 501, writers: "ingest compact load " + tc.flip, ops: tc.flip + " flip-bare load-reset"})
		})
	}
}

// TestIngestMalformedNDJSONTransactional pins the framing contract: a
// malformed line anywhere in the body rejects the WHOLE batch — nothing
// applied, nothing journaled, nothing published — while a semantic error
// mid-batch keeps the journaled+published prefix, which replays after a
// crash. Either way a batch is never visible without being durable.
func TestIngestMalformedNDJSONTransactional(t *testing.T) {
	lifecycle(t, lcPlan{sync: "batch", from: 601, to: 601, writers: "ingest crash", ops: "ingest-malformed ingest-unknown-field ingest-semantic crash"})
}

// TestWALRefusedBatchStaysInvisible pins durability before visibility on
// the read side: a batch whose fsync or write fails is answered 503 and
// must never be served, neither by the next read (Acquire) nor by a stats
// call. Reads return the latest published snapshot and leave publishing
// to the writer, which publishes only after the journal. A restart does
// not bring the batch back either (TestWALRefusedBatchNeverReplays).
func TestWALRefusedBatchStaysInvisible(t *testing.T) {
	lifecycle(t, lcPlan{sync: "batch", from: 701, to: 701, writers: "ingest fail-sync fail-write", ops: "fail-sync fail-write"})
}

// TestWALRefusedBatchNeverReplays pins durability's other half: a batch
// answered 503 because its fsync or write failed must not come back at
// the next boot, which a load of the name is. The journal takes the
// refused frame back out of its segment, so recovery over the same files
// replays nothing of it.
func TestWALRefusedBatchNeverReplays(t *testing.T) {
	lifecycle(t, lcPlan{sync: "batch", from: 801, to: 801, writers: "ingest fail-sync fail-write load", ops: "fail-sync fail-write load"})
}
