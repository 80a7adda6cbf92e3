package server

// BenchmarkWALIngest prices durability on the serving path: one 100-record
// NDJSON ingest request through the full handler (decode, apply, journal,
// fsync per policy, publish) against the real filesystem, with "nowal" as
// the in-memory baseline. The ISSUE's acceptance bar: sync=batch within 2x
// of nowal. Run via scripts/bench.sh; numbers land in BENCH_engine.json.

import (
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"testing"

	"hgmatch/internal/hgio"
	"hgmatch/internal/hgtest"
)

func BenchmarkWALIngest(b *testing.B) {
	const batch = 100
	for _, bc := range []struct {
		name, sync string
	}{
		{"nowal", ""},
		{"batch", "batch"},
		{"none", "none"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(42))
			base := hgtest.RandomHypergraph(rng, hgtest.RandomConfig{
				NumVertices: 1000, NumEdges: 100, NumLabels: 8, MaxArity: 3,
			})
			reg := NewRegistry()
			if bc.sync != "" {
				policy, err := hgio.ParseSyncPolicy(bc.sync)
				if err != nil {
					b.Fatal(err)
				}
				if err := reg.EnableDurability(DurabilityConfig{Dir: b.TempDir(), Sync: policy}); err != nil {
					b.Fatal(err)
				}
			}
			if err := reg.Add("g", base); err != nil {
				b.Fatal(err)
			}
			s := New(reg, Config{Workers: 2, PlanCacheSize: 8})
			defer s.Close()
			h := s.Handler()

			// Counter-derived mostly-fresh edges, bodies built outside the
			// timer: the measurement is the handler, not fmt.
			bodies := make([]string, b.N)
			c := 0
			for i := range bodies {
				var sb strings.Builder
				for k := 0; k < batch; k++ {
					v1 := c % 997
					v2 := (v1 + 1 + c/997%996) % 997
					fmt.Fprintf(&sb, `{"op":"insert","vertices":[%d,%d]}`+"\n", v1, v2)
					c++
				}
				bodies[i] = sb.String()
			}

			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rr := post(h, "/graphs/g/edges", bodies[i])
				if rr.Code != http.StatusOK {
					b.Fatalf("ingest: %d %s", rr.Code, rr.Body.String())
				}
			}
			b.StopTimer()
			b.ReportMetric(batch, "records/op")
		})
	}
}
