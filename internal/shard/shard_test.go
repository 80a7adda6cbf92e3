package shard_test

import (
	"sort"
	"testing"
	"testing/quick"

	"hgmatch/internal/hgtest"
	"hgmatch/internal/hypergraph"
	"hgmatch/internal/shard"
)

// TestShardOwnerPlacement pins the placement function's contract with
// randomized inputs: Owner is deterministic, always lands in [0, shards),
// and every signature maps to exactly one shard (two calls never disagree,
// whatever canonical byte-equal signature slice they are given).
func TestShardOwnerPlacement(t *testing.T) {
	f := func(raw []uint32, edgeLabel uint32, nRaw uint8) bool {
		n := int(nRaw%8) + 1
		sig := make(hypergraph.Signature, len(raw))
		for i, l := range raw {
			sig[i] = hypergraph.Label(l)
		}
		sort.Slice(sig, func(i, j int) bool { return sig[i] < sig[j] }) // canonical
		s := shard.Owner(sig, hypergraph.Label(edgeLabel), n)
		if s < 0 || s >= n {
			return false
		}
		// Exactly one shard: a fresh copy of the same key owns the same shard.
		cp := append(hypergraph.Signature(nil), sig...)
		return shard.Owner(cp, hypergraph.Label(edgeLabel), n) == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestShardEmptyAndBadCounts pins the constructor's edges: n < 1 is
// rejected, n = 1 is one shard whose mirror holds the whole graph.
func TestShardEmptyAndBadCounts(t *testing.T) {
	h := hgtest.Fig1Data()
	if _, err := shard.New(h, 0); err == nil {
		t.Fatal("New(h, 0) succeeded")
	}
	g, err := shard.New(h, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Live().Snapshot().NumLiveEdges(); got != h.NumLiveEdges() {
		t.Fatalf("single shard holds %d edges, want %d", got, h.NumLiveEdges())
	}
}
