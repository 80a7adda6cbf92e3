package engine_test

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hgmatch/internal/baseline"
	"hgmatch/internal/core"
	"hgmatch/internal/datagen"
	"hgmatch/internal/engine"
	"hgmatch/internal/hgio"
	"hgmatch/internal/hgtest"
	"hgmatch/internal/hypergraph"
)

// A run of the pool lifecycle model is seeds from through to, each a Pool
// of width 1 + (seed-from)%8 serving rounds rounds and then closed; with
// HGMATCH_CHAOS set (the CI chaos job) every run takes four times the
// seeds. A round submits one to pmMaxOps requests, each registered with the
// pool before the next is submitted, or with the burst setting, in a third
// of the rounds, pmMinBurst to pmMaxBurst requests all at once; it waits for
// all of them, and a round that hangs panics after pmRoundTimeout with its
// seed and op log.
const (
	pmMaxOps       = 4
	pmMinBurst     = 8
	pmMaxBurst     = 20
	pmRoundTimeout = 20 * time.Second
)

// pmPlan is one run of the model: the settings an op may draw (ops) and
// the events that must happen at least once across its seeds (must).
type pmPlan struct {
	from, to int64
	rounds   int
	ops      string
	must     string
}

// pmAll is every setting the model draws but stop, which makes most
// requests stopped ones.
const pmAll = "solo workers big scan filter aggregate nostl budget panic rows cancel timeout callback-panic block limit park burst"

// pmQuery is an oracle query planned on its datagen graph. rows is the
// match-by-vertex oracle's answer aligned with the plan's matching order,
// ascending: the sequential order, of which a capped run keeps a prefix. ct
// are core's sequential enumeration counters, which every complete,
// uncapped run must reproduce.
type pmQuery struct {
	name string
	plan *core.Plan
	rows [][]hypergraph.EdgeID
	ct   core.Counters
}

// pmQueries plans the oracle queries of two datagen contact networks
// relabelled to one label (~65 vertices and ~70–100 hyperedges, answers of
// ~20–6000 rows), plus on the first a query on a label no table carries (an
// empty plan), a five-hyperedge walk and, last, the big query: a
// four-hyperedge walk of 20k–60k rows, more than cancelCheckRows per worker
// at every width, so that a stopped run is stopped inside its blocks.
var pmQueries = sync.OnceValues(func() ([]pmQuery, error) {
	var qs []pmQuery
	var big pmQuery
	for _, name := range []string{"CH", "CP"} {
		prof, _ := datagen.ProfileByName(name)
		prof.NumLabels = 1
		h := datagen.Generate(prof.Scaled(0.01), 1)
		set, err := hgtest.NewOracleSet(h, 1, 10_000)
		if err != nil {
			return nil, err
		}
		ids, err := set.ServedIDs(h)
		if err != nil {
			return nil, err
		}
		for i, oq := range set.Queries {
			p, err := core.NewPlan(oq.Query, h)
			if err != nil {
				return nil, err
			}
			_, ct := p.CountSequential()
			qs = append(qs, pmQuery{fmt.Sprintf("%s/q%d", name, i), p, oq.Rows(ids, p.Order), ct})
		}
		if name == "CH" {
			p, err := core.NewPlan(hypergraph.MustFromEdges([]hypergraph.Label{77, 77}, [][]uint32{{0, 1}}), h)
			if err != nil || !p.Empty {
				return nil, fmt.Errorf("absent-label query: plan %v, err %v", p, err)
			}
			qs = append(qs, pmQuery{name: "CH/empty", plan: p})
			rng := rand.New(rand.NewSource(7))
			deep, err := pmWalk(rng, name, h, set, ids, 5, 1000, 8000)
			if err != nil {
				return nil, err
			}
			if big, err = pmWalk(rng, name, h, set, ids, 4, 20_000, 60_000); err != nil {
				return nil, err
			}
			qs = append(qs, deep)
		}
	}
	return append(qs, big), nil
})

// pmWalk plans the first random-walk query of nq hyperedges on set's graph
// whose answer has lo to hi rows; the sequential enumeration only picks it,
// the match-by-vertex oracle answers it.
func pmWalk(rng *rand.Rand, name string, h *hypergraph.Hypergraph, set *hgtest.OracleSet, ids []hypergraph.EdgeID, nq int, lo, hi uint64) (pmQuery, error) {
	for try := 0; try < 100; try++ {
		q := hgtest.ConnectedQueryFromWalk(rng, set.Cold, nq)
		if q == nil {
			continue
		}
		p, err := core.NewPlan(q, h)
		if err != nil {
			return pmQuery{}, err
		}
		if n, ct := p.CountSequential(); n >= lo && n <= hi {
			_, tuples := baseline.Tuples(q, set.Cold, baseline.Options{})
			oq := hgtest.OracleQuery{Query: q, Tuples: tuples}
			return pmQuery{fmt.Sprintf("%s/walk%d", name, nq), p, oq.Rows(ids, p.Order), ct}, nil
		}
	}
	return pmQuery{}, fmt.Errorf("no %d-hyperedge walk with %d to %d rows", nq, lo, hi)
}

// pmOdd is the model's Filter and pmKey its Aggregate key.
func pmOdd(m []hypergraph.EdgeID) bool   { return m[len(m)-1]%2 == 1 }
func pmKey(m []hypergraph.EdgeID) string { return [...]string{"0", "1", "2"}[m[0]%3] }

// pmOp is one request: its query, settings and the oracle rows it answers
// (past Scan and Filter), and what it delivered. Rows are held as their
// indexes in the query's oracle rows, -1 for a row not among them.
type pmOp struct {
	q     *pmQuery
	solo  bool // engine.Run, a pool of its own, not the shared pool
	width int  // worker slots: the pool's width, or Run's Workers
	opts  engine.Options
	want  []int32 // ascending
	desc  string
	// OnGroup cancels the Context at group cancelAt (0: cancelled before
	// Submit) and panics at group panicAt, and each worker's first group
	// sleeps for block; the first such sleep closes asleep.
	cancel            context.CancelFunc
	cancelAt, panicAt int64
	block             time.Duration
	inj               *hgtest.PanicInjector
	asleep, done      chan struct{}
	sleepOnce         sync.Once
	doneAt            time.Time

	// With the park setting, OnGroup parks the request at group parkAt
	// through its park switch, setPark, and another goroutine unparks it
	// once every neighbour has finished and spell has passed, then closes
	// unparked. parkedAt and unparkedAt bracket the park; late counts the
	// groups that began inside it.
	parkAt               int64
	spell                time.Duration
	setPark              func(parked bool)
	neighbours           []*pmOp
	parkedAt, unparkedAt time.Time
	inPark               atomic.Bool
	late                 atomic.Int64
	unparked             chan struct{}

	// In a traced round (see pmRun.newcomers) the request's fault points
	// append to trace; woke is when its sleeping worker woke and wakeAt the
	// trace's length then; submitAt and regAt bracket its registration.
	trace           *[]pmEvent
	woke            time.Time
	wakeAt          int
	submitAt, regAt time.Time

	groups  atomic.Int64
	fired   atomic.Bool // OnGroup panicked
	got     [][]int32   // per worker index, in delivery order
	blocked []bool
	res     engine.Result
}

// pmEvent is a fault point a traced request crossed.
type pmEvent struct {
	op    *pmOp
	point string
}

// onGroup records a group's rows under the worker index that delivered
// them. Calls overlap only with distinct indexes, which own their slots.
func (op *pmOp) onGroup(w int, prefix, last []hypergraph.EdgeID) {
	g := op.groups.Add(1)
	if op.inPark.Load() {
		op.late.Add(1)
	}
	if op.block > 0 && !op.blocked[w] {
		op.blocked[w] = true
		op.sleepOnce.Do(func() { close(op.asleep) })
		time.Sleep(op.block)
		if op.trace != nil {
			op.woke, op.wakeAt = time.Now(), len(*op.trace)
		}
	}
	// The oracle rows extending prefix are rows[lo:hi], ascending in their
	// last hyperedge.
	rows, k := op.q.rows, len(prefix)
	lo, _ := slices.BinarySearchFunc(rows, prefix, func(m, p []hypergraph.EdgeID) int { return slices.Compare(m[:k], p) })
	hi := lo
	for hi < len(rows) && slices.Equal(rows[hi][:k], prefix) {
		hi++
	}
	for _, c := range last {
		i := lo + sort.Search(hi-lo, func(j int) bool { return rows[lo+j][k] >= c })
		if i == hi || rows[i][k] != c {
			i = -1
		}
		op.got[w] = append(op.got[w], int32(i))
	}
	if g == op.parkAt {
		op.park()
	}
	if g == op.cancelAt {
		op.cancel()
	}
	if g == op.panicAt {
		op.fired.Store(true)
		panic("callback exploded")
	}
}

// park parks the request, and starts the goroutine that unparks it once
// every neighbour has finished and the spell has passed: a parked request
// must hold no worker its neighbours need. A round whose neighbours cannot
// finish beside the park hangs, and its timer panics.
func (op *pmOp) park() {
	op.parkedAt = time.Now()
	op.setPark(true)
	op.inPark.Store(true)
	go func() {
		for _, nb := range op.neighbours {
			<-nb.done
		}
		time.Sleep(op.spell)
		op.inPark.Store(false)
		op.unparkedAt = time.Now()
		op.setPark(false)
		close(op.unparked)
	}()
}

// clean reports whether nothing can stop the request early: then each of
// its tasks crosses the task fault point, where a stopped run's are
// discarded unseen.
func (op *pmOp) clean() bool {
	return op.inj == nil && op.panicAt == 0 && op.cancel == nil && op.opts.Timeout == 0 && op.opts.MaxMemory == 0 && op.opts.Limit == 0
}

// mustYield reports whether the request is a clean, stealing pool request
// whose first group blocks: one that must yield to a newcomer.
func (op *pmOp) mustYield() bool {
	return !op.solo && op.block > 0 && op.clean() && !op.opts.DisableStealing
}

func (op *pmOp) ordered() bool {
	return op.opts.Limit > 0 && (op.opts.OnGroup != nil || op.opts.Aggregate != nil)
}

// seeds is the run's SCAN seed set; registers reports whether Submit
// registers the request at all (an empty plan or seed set returns at once).
func (op *pmOp) seeds() []hypergraph.EdgeID {
	if op.opts.Scan != nil {
		return op.opts.Scan
	}
	return op.q.plan.InitialCandidates()
}

func (op *pmOp) registers() bool { return !op.q.plan.Empty && len(op.seeds()) > 0 }

// pmRun is one seed: its pool and the model's bookkeeping.
type pmRun struct {
	t     *testing.T
	seed  int64
	rng   *rand.Rand
	pool  *engine.Pool
	width int
	kinds map[string]bool
	qs    []pmQuery
	seen  map[string]int
	log   []string
	round int
}

// TestPoolLifecycle runs seeded random rounds of requests on one shared
// Pool at widths 1 to 8 against the match-by-vertex oracle, some rounds
// submitted one request after another and some all at once. Each request
// draws a random mix of settings: a solo run beside the pool, a worker cap,
// the big query, a Scan subset, Filter, Aggregate, DisableStealing, a
// MaxMemory budget, a
// FaultHook panic at a random point, rows delivered through OnGroup, a
// Context cancelled after k groups or a Timeout, an OnGroup panic, an
// OnGroup that blocks past the yield slice, and a Limit. Every request's
// rows, count and groups must be the oracle's (a capped run that delivers
// rows the oracle's first Limit rows, a stopped one a subset or prefix of
// them), its error class the injected fault's, its blocks all released, its
// WorkerStats conserved and its peak within Theorem VI.1's bound. After each
// round the pool's counters must account for every request, and a round
// submitted one by one in which no request could yield must count no yield. The seed ends with
// Close: later Submits are refused and every worker goroutine is joined.
func TestPoolLifecycle(t *testing.T) {
	poolModel(t, pmPlan{from: 1, to: 8, rounds: 25, ops: pmAll,
		must: "solo pool wide empty nq1 nq2 nq3 nq4 nq5 big scan scan-empty filter aggregate nostl budget-abort budget-pass panic-fired panic-clean " +
			"callback-panic ordered limit-count pre-cancelled cancelled stopped-partial timeout-expired block yield alone quanta-kept concurrent burst " +
			"beside-fault yield-beside-panic yield-beside-cancel park park-beside complete closed"})
}

func poolModel(t *testing.T, p pmPlan) {
	qs, err := pmQueries()
	if err != nil {
		t.Fatal(err)
	}
	to := p.to
	if os.Getenv("HGMATCH_CHAOS") != "" {
		to = p.from + 4*(p.to-p.from+1) - 1
	}
	kinds := map[string]bool{}
	for _, k := range strings.Fields(p.ops) {
		kinds[k] = true
	}
	seen := map[string]int{}
	for seed := p.from; seed <= to; seed++ {
		r := &pmRun{t: t, seed: seed, rng: rand.New(rand.NewSource(seed)), width: 1 + int((seed-p.from)%8), kinds: kinds, qs: qs, seen: seen}
		r.run(p.rounds)
	}
	t.Logf("events: %v", seen)
	for _, ev := range strings.Fields(p.must) {
		if seen[ev] == 0 {
			t.Errorf("%s never happened", ev)
		}
	}
}

func (r *pmRun) fatalf(format string, args ...any) {
	r.t.Helper()
	r.t.Fatalf("seed %d (pool of %d): %s\nop log:\n%s", r.seed, r.width, fmt.Sprintf(format, args...), strings.Join(r.log, "\n"))
}

func (r *pmRun) run(rounds int) {
	before := runtime.NumGoroutine()
	r.pool = engine.NewPool(r.width)
	for r.round = 1; r.round <= rounds; r.round++ {
		r.play()
	}
	r.pool.Close()
	for _, nostl := range []bool{false, true} {
		res := r.pool.Submit(r.qs[0].plan, engine.Options{DisableStealing: nostl})
		if !errors.Is(res.Err, engine.ErrPoolClosed) || !errors.Is(res.Err, hgio.ErrShuttingDown) || res.Embeddings != 0 {
			r.fatalf("Submit after Close (nostl %v): err %v, %d embeddings", nostl, res.Err, res.Embeddings)
		}
	}
	r.seen["closed"]++
	// A joined worker has run its last deferred call but may not have been
	// reaped yet; a leaked one is parked for good.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		r.fatalf("%d goroutines before the pool and its solo runs, %d after Close", before, after)
	}
}

// draw picks a request's query and settings among the run's kinds.
func (r *pmRun) draw() *pmOp {
	rng := r.rng
	on := func(kind string, odds int) bool { return r.kinds[kind] && rng.Intn(odds) == 0 }
	// The big query, last, is drawn only by the big setting.
	n := len(r.qs) - 1
	q := &r.qs[rng.Intn(n)]
	if on("big", 3) {
		q = &r.qs[n]
	}
	op := &pmOp{q: q, width: r.width}
	desc := []string{q.name}
	add := func(format string, args ...any) { desc = append(desc, fmt.Sprintf(format, args...)) }
	if on("solo", 4) {
		op.solo, op.width = true, 1+rng.Intn(8)
		op.opts.Workers = op.width
		add("solo %d", op.width)
	} else if on("workers", 2) {
		op.opts.Workers = rng.Intn(r.width + 2) // 0 and oversize mean all
		add("workers %d", op.opts.Workers)
	}
	rows := make([]int32, len(q.rows))
	for i := range rows {
		rows[i] = int32(i)
	}
	if !q.plan.Empty && on("scan", 4) {
		seeds := q.plan.InitialCandidates()
		lo := rng.Intn(len(seeds) + 1)
		hi := lo + rng.Intn(len(seeds)-lo+1)
		if rng.Intn(3) == 0 {
			hi = lo
		}
		op.opts.Scan = seeds[lo:hi:hi]
		rows = slices.DeleteFunc(rows, func(i int32) bool { return !slices.Contains(op.opts.Scan, q.rows[i][0]) })
		add("scan [%d,%d) of %d", lo, hi, len(seeds))
	}
	if on("filter", 4) {
		op.opts.Filter = pmOdd
		rows = slices.DeleteFunc(rows, func(i int32) bool { return !pmOdd(q.rows[i]) })
		add("filter")
	}
	op.want = rows
	if on("aggregate", 4) {
		op.opts.Aggregate = pmKey
		add("aggregate")
	}
	if on("nostl", 3) {
		op.opts.DisableStealing = true
		add("nostl")
	}
	if on("budget", 4) {
		op.opts.MaxMemory = 1 + rng.Int63n(6*int64(engine.TaskBlockBytes(q.plan)))
		add("budget %d", op.opts.MaxMemory)
	}
	if on("panic", 4) {
		op.inj = &hgtest.PanicInjector{Point: []string{"", "task", "expand", "sink"}[rng.Intn(4)]}
		op.inj.Target = 1 + rng.Int63n(4)
		if op.inj.Point == "" || op.inj.Point == "sink" {
			op.inj.Target = 1 + rng.Int63n(int64(2+len(rows)/32))
		}
		op.opts.FaultHook = op.inj.Hook
		add("panic %q@%d", op.inj.Point, op.inj.Target)
	}
	deliver := on("rows", 2)
	stopOdds := 4
	if r.kinds["stop"] {
		stopOdds = 2
	}
	if on("cancel", stopOdds) {
		op.opts.Context, op.cancel = context.WithCancel(context.Background())
		op.cancelAt = rng.Int63n(int64(2 + len(rows)/32))
		deliver = deliver || op.cancelAt > 0
		add("cancel@%d", op.cancelAt)
	} else if on("timeout", stopOdds) {
		op.opts.Timeout = time.Nanosecond
		if rng.Intn(2) == 0 {
			op.opts.Timeout = time.Duration(1 + rng.Int63n(int64(500*time.Microsecond)))
		}
		add("timeout %v", op.opts.Timeout)
	}
	if on("callback-panic", 6) {
		op.panicAt = 1 + rng.Int63n(int64(1+len(rows)/4))
		deliver = true
		add("callback-panic@%d", op.panicAt)
	}
	if on("block", 4) {
		op.block = 300*time.Microsecond + time.Duration(rng.Int63n(int64(time.Millisecond)))
		op.asleep = make(chan struct{})
		deliver = true
		add("block %v", op.block)
	}
	if on("limit", 3) {
		op.opts.Limit = 1 + uint64(rng.Intn(len(rows)+len(rows)/4+1))
		add("limit %d", op.opts.Limit)
	}
	if on("park", 4) {
		op.parkAt = 1 + rng.Int63n(int64(2+len(rows)/64))
		op.spell = 200*time.Microsecond + time.Duration(rng.Int63n(int64(time.Millisecond)))
		op.opts.ParkSwitch = func(set func(bool)) { op.setPark = set }
		op.unparked = make(chan struct{})
		deliver = true
		add("park@%d %v", op.parkAt, op.spell)
	}
	if deliver {
		op.opts.OnGroup = op.onGroup
		op.got, op.blocked = make([][]int32, op.width), make([]bool, op.width)
		add("rows")
	}
	op.desc = strings.Join(desc, " ")
	return op
}

// play runs one round: its requests are submitted one by one, each after
// the one before registered with the pool (and, if it blocks, put a worker
// to sleep in its first group or finished), so that only a request registered
// before another can yield to it; or, in a burst, all at once, so that their
// registrations race.
func (r *pmRun) play() {
	burst := r.kinds["burst"] && r.rng.Intn(3) == 0
	ops := make([]*pmOp, 1+r.rng.Intn(pmMaxOps))
	if burst {
		ops = make([]*pmOp, pmMinBurst+r.rng.Intn(pmMaxBurst-pmMinBurst+1))
	}
	for i := range ops {
		ops[i] = r.draw()
		ops[i].done = make(chan struct{})
		r.log = append(r.log, fmt.Sprintf("round %d: %s", r.round, ops[i].desc))
	}
	for _, op := range ops {
		if op.parkAt > 0 {
			op.neighbours = slices.DeleteFunc(slices.Clone(ops), func(nb *pmOp) bool { return nb.parkAt > 0 })
		}
	}
	// On a pool of one worker every pool request's fault points cross that
	// worker in turn, so a trace of them is the worker's schedule.
	var trace []pmEvent
	if r.width == 1 && !burst && slices.ContainsFunc(ops, (*pmOp).mustYield) {
		for _, op := range ops {
			if hook := op.opts.FaultHook; !op.solo {
				op.trace = &trace
				op.opts.FaultHook = func(point string) {
					trace = append(trace, pmEvent{op, point})
					if hook != nil {
						hook(point)
					}
				}
			}
		}
	}
	msg := fmt.Sprintf("seed %d (pool of %d): round %d hung\nop log:\n%s", r.seed, r.width, r.round, strings.Join(r.log, "\n"))
	timer := time.AfterFunc(pmRoundTimeout, func() { panic(msg) })
	before := r.pool.Stats()
	var wg sync.WaitGroup
	var registered []*pmOp
	start := make(chan struct{})
	if !burst {
		close(start)
	}
	for _, op := range ops {
		if op.cancel != nil && op.cancelAt == 0 {
			op.cancel()
		}
		n := r.pool.Stats().Submitted
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(op.done)
			<-start
			op.submitAt = time.Now()
			if op.solo {
				op.res = engine.Run(op.q.plan, op.opts)
			} else {
				op.res = r.pool.Submit(op.q.plan, op.opts)
			}
			op.doneAt = time.Now()
		}()
		if !op.solo && op.registers() {
			for !burst && r.pool.Stats().Submitted == n {
				time.Sleep(20 * time.Microsecond)
			}
			op.regAt = time.Now()
			if op.asleep != nil && !burst {
				select {
				case <-op.asleep:
				case <-op.done:
				}
			}
			registered = append(registered, op)
		}
	}
	if burst {
		close(start)
	}
	wg.Wait()
	// A request stopped while parked drains without waiting for its unpark.
	for _, op := range ops {
		if !op.parkedAt.IsZero() {
			<-op.unparked
		}
	}
	timer.Stop()

	faulted := 0
	for _, op := range ops {
		if op.cancel != nil {
			op.cancel()
		}
		r.check(op)
		if op.res.Err != nil || op.res.TimedOut {
			faulted++
		}
	}
	for _, op := range ops {
		if op.res.Err == nil && !op.res.TimedOut && faulted > 0 {
			r.seen["beside-fault"]++
		}
	}
	after := r.pool.Stats()
	var poisoned, cancelled, clean, parkBound uint64
	for _, op := range registered {
		if !op.parkedAt.IsZero() {
			// Each worker ends at most one quantum on a park: the one it
			// held or had picked when the park came. A worker that picked
			// a parked request again would count more.
			parkBound += uint64(r.width)
		}
		switch {
		case errors.Is(op.res.Err, engine.ErrRequestPoisoned):
			poisoned++
		case op.cancel != nil && op.res.TimedOut:
			cancelled++
		case op.res.Err == nil && !op.res.TimedOut:
			clean++
		}
	}
	if after.Active != 0 || after.Submitted-before.Submitted != uint64(len(registered)) || after.Completed != after.Submitted ||
		after.PanicsRecovered-before.PanicsRecovered != poisoned || after.Parked != 0 || after.Parks-before.Parks > parkBound {
		r.fatalf("round %d: pool stats %+v after %+v, for %d registered requests, %d poisoned, parks at most %d",
			r.round, after, before, len(registered), poisoned, parkBound)
	}
	yields := after.Yields - before.Yields
	// A request that answered the oracle exactly shared the pool, in a round
	// with yields, with one poisoned or cancelled.
	if yields > 0 && clean > 0 && poisoned > 0 {
		r.seen["yield-beside-panic"]++
	}
	if yields > 0 && clean > 0 && cancelled > 0 {
		r.seen["yield-beside-cancel"]++
	}
	if len(registered) >= 3 {
		r.seen["concurrent"]++
	}
	if burst {
		if len(registered) >= pmMinBurst {
			r.seen["burst"]++
		}
		return
	}
	r.newcomers(registered, trace)
	// Only a stealing, unordered request yields, and only to one that
	// registered after it.
	quiet := true
	for _, op := range registered[:max(0, len(registered)-1)] {
		quiet = quiet && (op.ordered() || op.opts.DisableStealing)
	}
	switch {
	case quiet && yields != 0:
		r.fatalf("round %d: %d yields, but no registered request could yield", r.round, yields)
	case len(registered) == 1:
		r.seen["alone"]++
	case quiet && len(registered) > 1:
		r.seen["quanta-kept"]++
	case yields > 0:
		r.seen["yield"]++
	}
}

// newcomers checks, on a pool of one worker, that a request whose worker
// slept in its first group past the yield slice while the next request
// registered gives the worker up when it wakes: the worker runs no task and
// delivers no group of it before its next pick, which is another request,
// since the newcomer started at the fewest slots and the sleeping request's
// task counts one more. It checks rounds of clean requests that do not park
// only, whose picks all show in the trace.
func (r *pmRun) newcomers(registered []*pmOp, trace []pmEvent) {
	if !slices.ContainsFunc(registered, (*pmOp).mustYield) || slices.ContainsFunc(registered, func(op *pmOp) bool { return !op.clean() || op.parkAt > 0 }) {
		return
	}
	for i, a := range registered[:max(0, len(registered)-1)] {
		b := registered[i+1]
		if a.trace == nil || !a.mustYield() || a.woke.IsZero() || !b.regAt.Before(a.woke) {
			continue
		}
		for _, e := range trace[a.wakeAt:] {
			if e.point == "expand" {
				continue
			}
			if e.op == a {
				r.fatalf("round %d: %s woke past its slice after %s registered, then crossed its %q point before the worker's next pick",
					r.round, a.desc, b.desc, e.point)
			}
			break
		}
		r.seen["newcomer"]++
	}
}

// check holds one finished request to the oracle.
func (r *pmRun) check(op *pmOp) {
	res, o := op.res, &op.opts
	fail := func(format string, args ...any) {
		r.t.Helper()
		r.fatalf("round %d, %s: %s (result %+v)", r.round, op.desc, fmt.Sprintf(format, args...), res)
	}
	ev := func(cond bool, name string) {
		if cond {
			r.seen[name]++
		}
	}
	n := uint64(len(op.want))
	keep := n
	if o.Limit > 0 {
		keep = min(o.Limit, n)
	}
	capped := o.Limit > 0 && o.Limit <= n

	// The error class is the injected fault's.
	hookFired := op.inj != nil && op.inj.Fired()
	var pe *engine.PoisonedError
	switch {
	case hookFired || op.fired.Load():
		if !errors.As(res.Err, &pe) || len(pe.Stack) == 0 || (pe.Point != "task" && pe.Point != "pool") {
			fail("an injected panic fired, err %v", res.Err)
		}
		if v := fmt.Sprint(pe.Value); !(hookFired && strings.Contains(v, "injected fault")) && !(op.fired.Load() && v == "callback exploded") {
			fail("poisoned by %q", v)
		}
	case res.Err == nil:
	case o.MaxMemory > 0 && errors.Is(res.Err, engine.ErrBudgetExceeded):
	default:
		fail("unexpected error %v", res.Err)
	}
	if res.LeakedBlocks != 0 {
		fail("%d blocks leaked", res.LeakedBlocks)
	}
	if res.TimedOut && o.Timeout == 0 && o.Context == nil {
		fail("timed out with neither a Timeout nor a Context")
	}
	expired := o.Timeout == time.Nanosecond || (op.cancel != nil && op.cancelAt == 0)
	if expired && op.registers() && (!res.TimedOut || res.Embeddings != 0) {
		fail("a request whose deadline passed before it started was served")
	}
	if !op.registers() && (res.Counters != (core.Counters{}) || res.Workers != nil) {
		fail("a request with nothing to scan did work")
	}
	complete := res.Err == nil && !res.TimedOut
	if res.Embeddings > keep || (complete && res.Embeddings != keep) {
		fail("%d embeddings, the oracle's answer keeps %d", res.Embeddings, keep)
	}

	// Rows and groups.
	if o.OnGroup != nil {
		var rows []int32
		for w, got := range op.got {
			if op.ordered() && w > 0 && len(got) > 0 {
				fail("a capped run delivered on worker %d", w)
			}
			if sunk := uint64(len(got)); (w < len(res.Workers) && sunk != res.Workers[w].SinkCount) || (w >= len(res.Workers) && sunk > 0) {
				fail("worker %d delivered %d rows for its SinkCount", w, sunk)
			}
			rows = append(rows, got...)
		}
		if uint64(len(rows)) != res.Embeddings || op.groups.Load() > int64(len(rows)) {
			fail("%d groups delivered %d rows for %d embeddings", op.groups.Load(), len(rows), res.Embeddings)
		}
		if op.ordered() {
			if !slices.Equal(rows, op.want[:len(rows)]) {
				fail("a capped run delivered rows other than the oracle's first %d", len(rows))
			}
		} else if slices.Sort(rows); !pmSubset(rows, op.want) {
			fail("delivered rows that are not distinct rows of the oracle's answer")
		}
		if op.inj != nil && op.inj.Point == "sink" && complete && !capped && o.Filter == nil && op.inj.Calls() != op.groups.Load() {
			fail("the sink point fired %d times for %d groups", op.inj.Calls(), op.groups.Load())
		}
	}
	if o.Aggregate != nil {
		var sum uint64
		for _, c := range res.Groups {
			sum += c
		}
		want := map[string]uint64{}
		for _, i := range op.want[:keep] {
			want[pmKey(op.q.rows[i])]++
		}
		if sum != res.Embeddings || (complete && !maps.Equal(res.Groups, want)) {
			fail("groups %v for %d embeddings, the oracle's %v", res.Groups, res.Embeddings, want)
		}
	}

	// WorkerStats: every embedding sunk by one worker, and every task
	// executed an initial scan task or spawned by another.
	var sunk, tasks, spawned uint64
	var busy time.Duration
	for _, w := range res.Workers {
		sunk, tasks, spawned, busy = sunk+w.SinkCount, tasks+w.Tasks, spawned+w.Spawned, busy+w.BusyTime
		if w.Stolen < w.Steals {
			fail("a worker stole %d times but %d tasks", w.Steals, w.Stolen)
		}
	}
	slots := op.width
	if op.ordered() {
		slots = 1
	}
	var initial uint64
	for i, s := 0, len(op.seeds()); i < slots; i++ {
		if i*s/slots < (i+1)*s/slots {
			initial++
		}
	}
	if sunk != res.Embeddings || tasks > spawned+initial || ((o.DisableStealing || op.ordered()) && res.TotalSteals() != 0) {
		fail("stats: %d sunk, %d tasks, %d spawned + %d initial", sunk, tasks, spawned, initial)
	}
	if complete && !capped && op.registers() && (tasks != spawned+initial || busy <= 0) {
		fail("a complete run executed %d tasks in %v, %d spawned + %d initial", tasks, busy, spawned, initial)
	}
	// Counters are the sequential enumeration's, whatever the schedule.
	if complete && !capped && o.Scan == nil && res.Counters != op.q.ct {
		fail("counters %+v, sequential %+v", res.Counters, op.q.ct)
	}
	// Theorem VI.1 in blocks: a worker's inline depth-first recursion holds
	// at most two blocks per matching-order level (the input and the child
	// being filled), plus what it published to its deque, at most one per
	// level before the LIFO pop drains it, doubled for steal-transfer slack.
	bound := int64(slots * (op.q.plan.NumSteps() + 1) * 4)
	if res.PeakTasks > bound || res.PeakTaskBytes != res.PeakTasks*int64(engine.TaskBlockBytes(op.q.plan)) {
		fail("peak %d blocks (%d bytes), bound %d blocks", res.PeakTasks, res.PeakTaskBytes, bound)
	}

	ev(op.solo, "solo")
	ev(op.width >= 5, "wide")
	ev(op.q == &r.qs[len(r.qs)-1], "big")
	ev(!op.solo, "pool")
	ev(op.q.plan.Empty, "empty")
	ev(!op.q.plan.Empty, fmt.Sprint("nq", op.q.plan.NumSteps()))
	ev(o.Scan != nil, "scan")
	ev(o.Scan != nil && len(o.Scan) == 0, "scan-empty")
	ev(o.Filter != nil, "filter")
	ev(o.Aggregate != nil, "aggregate")
	ev(o.DisableStealing, "nostl")
	ev(o.DisableStealing && op.width >= 5 && complete, "nostl-wide")
	ev(o.MaxMemory > 0 && res.Err == nil, "budget-pass")
	ev(errors.Is(res.Err, engine.ErrBudgetExceeded), "budget-abort")
	ev(hookFired, "panic-fired")
	if hookFired {
		r.seen["panic@"+op.inj.Point]++
	}
	ev(op.inj != nil && !hookFired, "panic-clean")
	ev(op.fired.Load(), "callback-panic")
	ev(o.OnGroup != nil, "rows")
	ev(op.ordered(), "ordered")
	ev(capped && o.OnGroup == nil && o.Aggregate == nil, "limit-count")
	ev(op.cancelAt == 0 && op.cancel != nil && op.registers(), "pre-cancelled")
	ev(op.cancelAt > 0 && res.TimedOut, "cancelled")
	ev(op.cancelAt > 0 && res.TimedOut && res.Embeddings > 0 && res.Embeddings < keep, "stopped-partial")
	ev(res.TimedOut, "stopped")
	ev(o.Timeout == time.Nanosecond && op.registers(), "timeout-expired")
	ev(o.Timeout > time.Nanosecond && res.TimedOut, "timed-out")
	ev(op.block > 0, "block")
	ev(complete && op.registers(), "complete")

	// A park stops each worker serving the request within the group in
	// hand, and frees the pool for every neighbour.
	if op.parkedAt.IsZero() {
		return
	}
	par := op.width
	if w := o.Workers; w > 0 && w < par {
		par = w
	}
	if op.ordered() {
		par = 1
	}
	if late := op.late.Load(); late > int64(par-1) {
		fail("%d groups began while parked, beside at most %d other workers", late, par-1)
	}
	ev(complete, "park")
	ev(complete && op.ordered(), "park-ordered")
	for _, nb := range op.neighbours {
		ev(!nb.solo && nb.registers() && nb.doneAt.After(op.parkedAt) && nb.doneAt.Before(op.unparkedAt), "park-beside")
	}
}

// pmSubset reports whether sorted rows are distinct rows of want, which is
// sorted.
func pmSubset(rows, want []int32) bool {
	j := 0
	for i, m := range rows {
		if i > 0 && rows[i-1] == m {
			return false
		}
		for j < len(want) && want[j] < m {
			j++
		}
		if j == len(want) || want[j] != m {
			return false
		}
	}
	return true
}
