// Package shard splits one match into independent sub-runs by SCAN seed
// and fans them out over the shared engine.Pool (scatter.go). It is the
// remainder of intra-process sharded serving: the server no longer uses
// it, and the benchmark ladder (bench/ladder.go) times Scatter against a
// plain pool.Submit of the same plan to price the fan-out.
//
// A Graph is a data hypergraph behind one DeltaBuffer (the mirror) plus a
// shard count N. Hyperedge tables hash to an owning shard (Owner); a
// plan's SCAN seeds all come from one table, so one shard owns them and
// Scatter gives the other N-1 shards explicit empty sub-runs.
package shard

import (
	"fmt"

	"hgmatch/internal/hypergraph"
)

// fnv64Offset/fnv64Prime are the FNV-1a 64-bit parameters. Placement must
// be a pure function of the table key — stable across processes,
// enumeration orders and restarts — and FNV-1a over the canonical
// signature bytes gives that with no dependencies.
const (
	fnv64Offset = 14695981039346656037
	fnv64Prime  = 1099511628211
)

// Owner returns the shard in [0, shards) owning the hyperedge table keyed
// by (sig, edgeLabel). sig must be canonical (non-decreasing), which every
// Signature produced by this module is.
func Owner(sig hypergraph.Signature, edgeLabel hypergraph.Label, shards int) int {
	if shards <= 1 {
		return 0
	}
	h := uint64(fnv64Offset)
	mix := func(x uint32) {
		for i := 0; i < 4; i++ {
			h ^= uint64(byte(x >> (8 * i)))
			h *= fnv64Prime
		}
	}
	for _, l := range sig {
		mix(uint32(l))
	}
	mix(uint32(edgeLabel))
	return int(h % uint64(shards))
}

// Graph is a data hypergraph with a shard count: the mirror DeltaBuffer
// every Scatter matches against, and the N its table ownership is hashed
// over.
type Graph struct {
	n      int
	mirror *hypergraph.DeltaBuffer
}

// New wraps h in a mirror DeltaBuffer (compacting a delta-carrying h first,
// as NewDeltaBuffer does) with n shards.
func New(h *hypergraph.Hypergraph, n int) (*Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: %d shards (want >= 1)", n)
	}
	mirror, err := hypergraph.NewDeltaBuffer(h)
	if err != nil {
		return nil, err
	}
	return &Graph{n: n, mirror: mirror}, nil
}

// Live returns the mirror DeltaBuffer, whose snapshots plans for Scatter
// are compiled against.
func (g *Graph) Live() *hypergraph.DeltaBuffer { return g.mirror }

// OwnerOf returns the shard owning hyperedge e of snapshot h.
func (g *Graph) OwnerOf(h *hypergraph.Hypergraph, e hypergraph.EdgeID) int {
	return Owner(h.SignatureOf(e), h.EdgeLabel(e), g.n)
}
