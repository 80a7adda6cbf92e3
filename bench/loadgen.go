package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"hgmatch/internal/hgio"
)

// sample is one operation as the generator saw it. Times are offsets from
// the start of the loop that issued it; due equals sent in a closed loop.
type sample struct {
	op         int // number of the operation within its loop
	req        int // query id, or batch index: what spans of the operation share
	due        time.Duration
	free       time.Duration // open loop: when a connection was free to take it
	sent       time.Duration
	first      time.Duration // first byte of the response body
	end        time.Duration
	bytes      int64 // response body bytes
	embeddings uint64
	err        string // empty when the answer was correct
}

func (s *sample) latency() time.Duration { return s.end - s.due }

// lateness is how long after it could have been sent the operation was
// sent: after its due time, or after a connection came free if the server
// kept them all busy past that. It is the generator's own delay; the wait
// for a connection is the server's and is part of latency.
func (s *sample) lateness() time.Duration {
	if s.free > s.due {
		return s.sent - s.free
	}
	return s.sent - s.due
}

// client issues requests over at most conns connections.
type client struct {
	ctx  context.Context // cancelling it aborts requests in flight
	base string
	http *http.Client
}

func newClient(ctx context.Context, base string, conns int) *client {
	return &client{ctx: ctx, base: base, http: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

func (c *client) post(path, contentType string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(c.ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	return c.http.Do(req)
}

// tailKeep is how much of a streamed body's end is kept to find the closing
// summary line, which is a few hundred bytes.
const tailKeep = 2048

// tally consumes a /count or /match response body chunk by chunk, counting
// bytes and newlines only and keeping the end, where the summary line is.
// The socket client and the ladder's in-memory response writer share it.
type tally struct {
	bytes int64
	lines int
	tail  []byte
}

func (t *tally) add(p []byte) {
	n := len(p)
	t.bytes += int64(n)
	t.lines += bytes.Count(p, []byte{'\n'})
	if n >= tailKeep {
		t.tail = append(t.tail[:0], p[n-tailKeep:]...)
		return
	}
	t.tail = append(t.tail, p...)
	if len(t.tail) > 2*tailKeep {
		t.tail = append(t.tail[:0], t.tail[len(t.tail)-tailKeep:]...)
	}
}

// finish parses the summary line and checks the answer against the oracle;
// it returns the embeddings reported and "" when the answer is correct.
func (t *tally) finish(status int, r *request) (uint64, string) {
	if status != http.StatusOK {
		return 0, fmt.Sprintf("status %d: %s", status, bytes.TrimSpace(t.tail))
	}
	last := bytes.TrimRight(t.tail, "\n")
	if i := bytes.LastIndexByte(last, '\n'); i >= 0 {
		last = last[i+1:]
	}
	var sum hgio.MatchSummary
	if err := json.Unmarshal(last, &sum); err != nil {
		return 0, "bad summary: " + err.Error()
	}
	return sum.Embeddings, checkSummary(r, &sum, t.lines)
}

// query sends one /count or /match request and checks the answer against
// the oracle. buf is the caller's read buffer.
func (c *client) query(t0 time.Time, r *request, buf []byte) sample {
	s := sample{sent: time.Since(t0)}
	s.due = s.sent
	resp, err := c.post(r.path, "application/json", r.body)
	if err != nil {
		s.end = time.Since(t0)
		s.err = err.Error()
		return s
	}
	defer resp.Body.Close()
	var t tally
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if s.first == 0 {
				s.first = time.Since(t0)
			}
			t.add(buf[:n])
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			s.end = time.Since(t0)
			s.err = "reading body: " + err.Error()
			return s
		}
	}
	s.end = time.Since(t0)
	s.bytes = t.bytes
	s.embeddings, s.err = t.finish(resp.StatusCode, r)
	return s
}

// checkSummary is the per-request oracle check; it returns "" when the
// answer is correct.
func checkSummary(r *request, sum *hgio.MatchSummary, lines int) string {
	switch want := r.expect(); {
	case !sum.Done:
		return "summary without done"
	case sum.TimedOut:
		return "timed_out"
	case sum.Error != "":
		return "error trailer: " + sum.Error
	case r.atLeast && sum.Embeddings < want:
		return fmt.Sprintf("embeddings %d below the base graph's %d", sum.Embeddings, want)
	case !r.atLeast && sum.Embeddings != want:
		return fmt.Sprintf("embeddings %d, oracle says %d", sum.Embeddings, want)
	case r.path == "/match" && uint64(lines) != sum.Embeddings+1:
		return fmt.Sprintf("%d lines for %d embeddings", lines, sum.Embeddings)
	}
	return ""
}

// ingest posts batch i and checks that every record did what the plan says.
func (c *client) ingest(t0 time.Time, p *ingestPlan, i int, wantDurable bool) sample {
	s := sample{op: i, sent: time.Since(t0)}
	s.due = s.sent
	resp, err := c.post("/graphs/"+graphName+"/edges", "application/x-ndjson", p.bodies[i])
	if err != nil {
		s.end = time.Since(t0)
		s.err = err.Error()
		return s
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	s.end = time.Since(t0)
	s.first = s.end
	s.bytes = int64(len(body))
	var sum hgio.IngestSummary
	switch {
	case err != nil:
		s.err = "reading body: " + err.Error()
	case resp.StatusCode != http.StatusOK:
		s.err = fmt.Sprintf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	case json.Unmarshal(body, &sum) != nil:
		s.err = "bad ingest summary"
	case !sum.Done || sum.Error != "":
		s.err = "ingest not done: " + sum.Error
	case sum.Inserted != len(p.inserts[i]) || sum.Deleted != len(p.deletes[i]) || sum.Duplicates != 0 || sum.Missing != 0:
		s.err = fmt.Sprintf("inserted %d/%d deleted %d/%d duplicates %d missing %d",
			sum.Inserted, len(p.inserts[i]), sum.Deleted, len(p.deletes[i]), sum.Duplicates, sum.Missing)
	case sum.Durable != wantDurable:
		s.err = fmt.Sprintf("durable=%v, want %v", sum.Durable, wantDurable)
	}
	return s
}

// runClosed runs `clients` goroutines that each issue the next operation
// as soon as their previous one completed, until the deadline. Operations
// are numbered in issue order; do maps a number to its result. Both loops
// stop early when ctx is cancelled.
func runClosed(ctx context.Context, t0 time.Time, window time.Duration, clients int, do func(worker, i int) sample) []sample {
	var (
		next atomic.Int64
		mu   sync.Mutex
		out  []sample
		wg   sync.WaitGroup
	)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var mine []sample
			for time.Since(t0) < window && ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				s := do(w, i)
				s.op = i
				mine = append(mine, s)
			}
			mu.Lock()
			out = append(out, mine...)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	return out
}

// sleepUntil blocks until t. It calls nanosleep(2) directly: time.Sleep is
// served by the runtime's network poller, whose epoll timeout has
// millisecond resolution and wakes half a millisecond late on average,
// which at 1000 requests per second would be most of a request's latency.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // EINTR just means: look at the clock again
	}
}

// runOpen sends operation i at t0+due[i] whatever the server does, over at
// most conns connections: each of conns goroutines takes the next
// operation, sleeps until it is due, sends it and waits for the answer. An
// operation that finds every connection busy therefore waits in the
// generator, and its latency still counts from its due time.
func runOpen(ctx context.Context, t0 time.Time, due []time.Duration, conns int, do func(worker, i int) sample) []sample {
	out := make([]sample, len(due))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) || ctx.Err() != nil {
					return
				}
				free := time.Since(t0)
				sleepUntil(t0.Add(due[i]))
				s := do(w, i)
				s.op, s.due, s.free = i, due[i], free
				out[i] = s
			}
		}(w)
	}
	wg.Wait()
	return out
}
