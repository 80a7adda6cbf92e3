package hgtest

import (
	"sync"

	"hgmatch/internal/hypergraph"
)

// RowsOf adapts a per-row consumer to the engine's group sink
// (engine.Options.OnGroup): fn sees each embedding prefix+[c], c ranging
// over last in order, on the worker that found it. Calls from different
// workers overlap exactly as the group calls do. The tuple is fresh per
// group and reused within it; copy it to retain.
func RowsOf(fn func(worker int, m []hypergraph.EdgeID)) func(worker int, prefix, last []hypergraph.EdgeID) {
	return func(worker int, prefix, last []hypergraph.EdgeID) {
		d := len(prefix)
		m := append(prefix[:d:d], 0)
		for _, c := range last {
			m[d] = c
			fn(worker, m)
		}
	}
}

// SerialRowsOf is RowsOf for a consumer that keeps unsynchronised state:
// its calls are serialised.
func SerialRowsOf(fn func(m []hypergraph.EdgeID)) func(worker int, prefix, last []hypergraph.EdgeID) {
	var mu sync.Mutex
	return RowsOf(func(_ int, m []hypergraph.EdgeID) {
		mu.Lock()
		defer mu.Unlock()
		fn(m)
	})
}
