package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"hgmatch/internal/datagen"
	"hgmatch/internal/hypergraph"
	"hgmatch/internal/querygen"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{1, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9},
		{1000, 0.99}, {9999, 0.99}, {10000, 0.999}, {1000000, 0.999},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	// The rule itself, for every n: the chosen percentile has at least ten
	// samples beyond it and the next one on the ladder has not.
	for n := 1; n < 3000; n++ {
		p := tailPercentile(n)
		for _, q := range tailLadder {
			beyond := n - 1 - rank(n, q)
			if q <= p && beyond < minBeyond {
				t.Fatalf("n=%d: p%v chosen but p%v has only %d samples beyond", n, p*100, q*100, beyond)
			}
			if q > p && beyond >= minBeyond {
				t.Fatalf("n=%d: p%v chosen though p%v has %d samples beyond", n, p*100, q*100, beyond)
			}
		}
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Fatalf("quartiles of two = %v, %v, want 0.75, 2.25", q1, q3)
	}
}

// A server that stalls on one request must not make the open loop hide the
// stall: the requests due meanwhile are sent late, their latency counts
// from when they were due, and none of the delay is the generator's own.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 200 * time.Millisecond
	due := make([]time.Duration, 10)
	for i := range due {
		due[i] = time.Duration(i) * time.Millisecond
	}
	t0 := time.Now()
	out := runOpen(context.Background(), t0, due, 1, func(_, i int) sample {
		s := sample{sent: time.Since(t0)}
		if i == 0 {
			time.Sleep(stall)
		}
		s.end = time.Since(t0)
		return s
	})
	for i, s := range out {
		if s.op != i || s.due != due[i] {
			t.Fatalf("sample %d: op %d due %v", i, s.op, s.due)
		}
		if s.sent < s.due {
			t.Errorf("request %d sent %v before its due time", i, s.due-s.sent)
		}
		if i == 0 {
			continue
		}
		// Queued behind the stalled request on the only connection.
		if s.sent-s.due < stall-due[i]-5*time.Millisecond {
			t.Errorf("request %d: sent %v after due, want about %v", i, s.sent-s.due, stall-due[i])
		}
		if s.latency() < stall-due[i]-5*time.Millisecond {
			t.Errorf("request %d: latency %v is not timed from its due time", i, s.latency())
		}
		if s.lateness() > stall/2 {
			t.Errorf("request %d: %v of generator lateness charged for a server stall", i, s.lateness())
		}
	}
}

func TestClosedLoopStopsAtDeadline(t *testing.T) {
	t0 := time.Now()
	out := runClosed(context.Background(), t0, 30*time.Millisecond, 2, func(_, i int) sample {
		time.Sleep(time.Millisecond)
		return sample{sent: time.Since(t0), end: time.Since(t0)}
	})
	if len(out) < 10 {
		t.Fatalf("only %d operations in 30 ms from two clients", len(out))
	}
	seen := map[int]bool{}
	for _, s := range out {
		if seen[s.op] {
			t.Fatalf("operation %d issued twice", s.op)
		}
		seen[s.op] = true
	}
}

// A timing at reference speed is the integral of dt/slowdown: an interval
// that straddles a change of the machine's speed takes each part at its own.
func TestScaledIntegratesOverSlowdownSteps(t *testing.T) {
	t0 := time.Now()
	sp := &speed{t0: t0, at: []time.Duration{0, time.Second}, slow: []float64{2, 1}}
	for _, tc := range []struct {
		origin     time.Time
		a, b, want time.Duration
	}{
		{t0, 500 * time.Millisecond, 1500 * time.Millisecond, 750 * time.Millisecond},
		{t0, 100 * time.Millisecond, 300 * time.Millisecond, 100 * time.Millisecond},
		{t0.Add(time.Second), 0, time.Second, time.Second},      // offsets count from their own origin
		{t0.Add(-time.Second), 0, time.Second, time.Second / 2}, // before the first probe its value holds
		{t0, 2 * time.Second, 2 * time.Second, 0},
	} {
		if got := sp.scaled(tc.origin, tc.a, tc.b); got != tc.want {
			t.Errorf("scaled(%v..%v from %v) = %v, want %v", tc.a, tc.b, tc.origin.Sub(t0), got, tc.want)
		}
	}
}

// The slowdown is a moving median of the probe's samples, so one preempted
// or cache-cold run of the kernel does not move it, and a lasting change of
// speed does.
func TestNewSpeedIsAMovingMedian(t *testing.T) {
	var raw []probeSample
	for i := 0; i < 200; i++ { // 10 s of probes: 5 s at half speed, then full speed
		cpu := 2 * refKernel
		if i >= 100 {
			cpu = refKernel
		}
		if i == 150 {
			cpu = 20 * refKernel
		}
		raw = append(raw, probeSample{at: time.Duration(i) * probeEvery, cpu: cpu})
	}
	sp := newSpeed(time.Now(), raw)
	if len(sp.at) != len(raw) || sp.slow[0] != 2 || sp.slow[50] != 2 || sp.slow[150] != 1 || sp.slow[199] != 1 {
		t.Errorf("slowdown at 0 s, 2.5 s, 7.5 s, 10 s = %v %v %v %v, want 2 2 1 1", sp.slow[0], sp.slow[50], sp.slow[150], sp.slow[199])
	}
	if got := sp.median(sp.t0, 0, 4*time.Second); got != 2 {
		t.Errorf("median slowdown of the first 4 s = %v, want 2", got)
	}
}

// The probe itself: it takes samples while it runs and stops when told.
func TestSpeedProbeSamplesAndStops(t *testing.T) {
	p := startSpeedProbe()
	time.Sleep(3 * probeEvery)
	sp := p.finish()
	if n := len(sp.at); n < 2 || n > 6 {
		t.Errorf("%d samples in three probe periods", n)
	}
	for _, s := range sp.slow {
		if s <= 0 {
			t.Errorf("slowdown %v", s)
		}
	}
	if again := p.finish(); len(again.at) != len(sp.at) {
		t.Errorf("finish is not idempotent: %d then %d samples", len(sp.at), len(again.at))
	}
}

func TestSelfTimeKeepsNegative(t *testing.T) {
	if got := selfTime(1.0, 1.5); got != -0.5 {
		t.Fatalf("selfTime(1.0, 1.5) = %v, want -0.5: a negative self time is a noise signal and must not be clamped", got)
	}
	rt := rungTimes{
		"outer": {40 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond},
		"inner": {30 * time.Millisecond, 30 * time.Millisecond, 30 * time.Millisecond},
	}
	outer, inner := rt.perQuery("outer", 2), rt.perQuery("inner", 2)
	if outer != 0.010 || inner != 0.015 {
		t.Fatalf("perQuery = %v, %v, want the pass median per query: 0.010, 0.015", outer, inner)
	}
	if got := selfTime(outer, inner); got >= 0 {
		t.Fatalf("self time %v, want negative", got)
	}
}

func TestTallyKeepsTheSummaryLine(t *testing.T) {
	row := []byte(`{"embedding":[1,2,3]}` + "\n")
	summary := `{"done":true,"embeddings":5000,"candidates":1,"filtered":1,"valid":1,"elapsed_us":7,"plan_cached":true,"order":[2,0,1]}` + "\n"
	var body []byte
	for i := 0; i < 5000; i++ {
		body = append(body, row...)
	}
	body = append(body, summary...)
	r := &request{q: &query{count: 5000}, path: "/match"}
	for _, chunk := range []int{1, 7, 1000, tailKeep, 64 << 10, len(body)} {
		var tl tally
		for i := 0; i < len(body); i += chunk {
			tl.add(body[i:min(i+chunk, len(body))])
		}
		emb, msg := tl.finish(http.StatusOK, r)
		if emb != 5000 || msg != "" || tl.lines != 5001 || tl.bytes != int64(len(body)) {
			t.Fatalf("chunk %d: embeddings %d, %d lines, %d bytes, check %q", chunk, emb, tl.lines, tl.bytes, msg)
		}
	}
	var tl tally
	tl.add(body)
	if _, msg := tl.finish(http.StatusOK, &request{q: &query{count: 4999}, path: "/match"}); msg == "" {
		t.Fatal("a count that disagrees with the oracle passed the check")
	}
}

// smallWorkload is a dataset and pool small enough for unit tests.
func smallWorkload(t *testing.T) (*hypergraph.Hypergraph, []*query) {
	t.Helper()
	p, _ := datagen.ProfileByName("SB")
	h := datagen.Generate(p.Scaled(0.02), datasetSeed)
	qs, err := sampleSetting(h, "q2")
	if err != nil {
		t.Fatal(err)
	}
	var pool []*query
	for i, g := range qs[:4] {
		q, err := newQuery(i, fmt.Sprintf("q2#%d", i), g)
		if err != nil {
			t.Fatal(err)
		}
		pool = append(pool, q)
	}
	if err := countAll(pool, h, 2); err != nil {
		t.Fatal(err)
	}
	return h, pool
}

func streamDigest(t *testing.T, sp *spec, h *hypergraph.Hypergraph, pool []*query, seed int64) [32]byte {
	t.Helper()
	st, err := sp.buildStream(h, pool, seed, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	d := sha256.New()
	for i, r := range st.requests {
		fmt.Fprintf(d, "%s %d %s\n", r.path, r.limit, r.body)
		if st.due != nil {
			fmt.Fprintf(d, "%d\n", st.due[i])
		}
	}
	for _, b := range st.ingest.bodies {
		d.Write(b)
	}
	return [32]byte(d.Sum(nil))
}

func TestSameSeedSameStream(t *testing.T) {
	h, pool := smallWorkload(t)
	closed := &spec{name: "closed", clients: 1}
	open := &spec{name: "open", rate: 100, conns: 2, matchShare: 0.3, limit: 100, coldShare: 0.2,
		cold: []string{"q2"}, coldMax: 1 << 40}
	writer := &spec{name: "writer", clients: 1, ingestRate: 20}
	for _, sp := range []*spec{closed, open, writer} {
		a, b, c := streamDigest(t, sp, h, pool, 7), streamDigest(t, sp, h, pool, 7), streamDigest(t, sp, h, pool, 8)
		if a != b {
			t.Errorf("%s: the same seed gave two different streams", sp.name)
		}
		if a == c {
			t.Errorf("%s: two seeds gave the same stream", sp.name)
		}
	}
}

// The ingest plan's model must agree with the engine it models: applying
// every batch to a DeltaBuffer succeeds record by record (no duplicates, no
// missing deletes) and leaves exactly the rebuilt graph's edges.
func TestIngestPlanModelMatchesDeltaBuffer(t *testing.T) {
	h, _ := smallWorkload(t)
	st, err := (&spec{name: "w", clients: 1, ingestRate: 20}).buildStream(h, nil, 3, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	plan := st.ingest
	buf, err := hypergraph.NewDeltaBuffer(h)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plan.bodies {
		if err := applyBatch(buf, plan, i); err != nil {
			t.Fatal(err)
		}
		if i >= warmBatches && (len(plan.inserts[i]) != batchInserts || len(plan.deletes[i]) != batchInserts) {
			t.Fatalf("batch %d has %d inserts and %d deletes", i, len(plan.inserts[i]), len(plan.deletes[i]))
		}
	}
	live, err := buf.Compact()
	if err != nil {
		t.Fatal(err)
	}
	want, err := plan.rebuild(len(plan.bodies))
	if err != nil {
		t.Fatal(err)
	}
	if live.NumEdges() != want.NumEdges() || want.NumEdges() != h.NumEdges()+warmBatches*batchInserts {
		t.Fatalf("live %d edges, rebuild %d, base %d", live.NumEdges(), want.NumEdges(), h.NumEdges())
	}
	for e := 0; e < want.NumEdges(); e++ {
		if _, ok := live.FindEdge(want.Edge(hypergraph.EdgeID(e))); !ok {
			t.Fatalf("rebuilt edge %v is not live", want.Edge(hypergraph.EdgeID(e)))
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "m", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "m", Unit: "1/s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, tc := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"same", lower, steady, steady, "unchanged"},
		{"slower", lower, steady, scale(steady, 1.2), "worse"},
		{"faster", lower, steady, scale(steady, 0.8), "better"},
		{"less throughput", higher, steady, scale(steady, 0.8), "worse"},
		{"more throughput", higher, steady, scale(steady, 1.2), "better"},
		{"within bound", lower, steady, scale(steady, 1.05), "unchanged"},
		{"noisy", lower, []float64{100, 140, 60, 100, 150, 70}, scale(steady, 1.2), "unresolved"},
	} {
		if v := judge(tc.d, tc.a, tc.b); v.word != tc.want {
			t.Errorf("%s: %s, want %s (%+v)", tc.name, v.word, tc.want, v)
		}
	}
}

// BENCHMARK.json and the harness must declare the same things, and the
// harness must measure everything it declares.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file benchmarkFile
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if want := benchmarkJSON(); !reflect.DeepEqual(file, want) {
		t.Errorf("BENCHMARK.json differs from the harness's tables; regenerate it with `hgload --benchmark-json`\n file: %+v\n want: %+v", file, want)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	check := func(kind, n string) {
		if !name.MatchString(n) {
			t.Errorf("%s name %q is not made of letters, digits, '_', '.' and '-'", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range file.Workloads {
		check("workload", w.Name)
	}
	declaredNames := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), file.EndToEnd...), file.PerLayer...) {
		check("metric", d.Name)
		declaredNames[d.Name] = true
	}
	for _, d := range file.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}

	// What the harness emits is what its source sets: every declared name
	// must appear as a literal somewhere outside the declaring tables, and
	// every literal passed to set must be declared.
	setCall := regexp.MustCompile(`\.set\("([^"]+)"`)
	literal := regexp.MustCompile(`"([A-Za-z0-9_.-]+)"`)
	emitted, set := map[string]bool{}, map[string]bool{}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") || f == "metrics.go" {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range literal.FindAllSubmatch(src, -1) {
			emitted[string(m[1])] = true
		}
		for _, m := range setCall.FindAllSubmatch(src, -1) {
			set[string(m[1])] = true
		}
	}
	var missing, extra []string
	for n := range declaredNames {
		if !emitted[n] {
			missing = append(missing, n)
		}
	}
	for n := range set {
		if !declaredNames[n] {
			extra = append(extra, n)
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	if len(missing)+len(extra) > 0 {
		t.Errorf("declared but never measured: %v; measured but not declared: %v", missing, extra)
	}
}

func TestPoolQueriesAreSampled(t *testing.T) {
	for _, sp := range specs {
		if len(sp.why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", sp.name, len(sp.why))
		}
		for _, ref := range sp.pool {
			if _, ok := querygen.SettingByName(ref.setting); !ok || ref.index >= poolSample {
				t.Errorf("%s: pool query %s#%d cannot be sampled", sp.name, ref.setting, ref.index)
			}
		}
		if _, ok := datagen.ProfileByName(sp.profile); !ok {
			t.Errorf("%s: unknown dataset profile %q", sp.name, sp.profile)
		}
	}
}
