package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"ceci/internal/graph"
	"ceci/internal/service"
	"ceci/internal/shard"
)

// client is the load generator's single closed-loop client: it sends
// the next request only after the previous reply is read and decoded,
// over one kept-alive connection.
type client struct {
	hc  *http.Client
	tr  *http.Transport
	url string
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr}, tr: tr, url: base + "/query"}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// reply is one decoded answer. The router's wire form embeds the
// engine's, so both decode into it.
type reply struct {
	status int
	timing string // Server-Timing header (the engine's queue/build/enum phases)
	bytes  int    // response body length
	body   shard.RouteResponse
}

// send posts r and reads and decodes the whole reply; wall covers all
// of it, as a caller waiting on the answer sees it.
func (c *client) send(r *request) (rep reply, wall time.Duration, err error) {
	start := time.Now()
	resp, err := c.hc.Post(c.url, "application/json", bytes.NewReader(r.body))
	if err != nil {
		return rep, time.Since(start), err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err == nil {
		err = json.Unmarshal(raw, &rep.body)
	}
	wall = time.Since(start)
	rep.status = resp.StatusCode
	rep.timing = resp.Header.Get("Server-Timing")
	rep.bytes = len(raw)
	return rep, wall, err
}

// check reports why rep is not a correct answer to r, or nil. Any
// non-200 status or partial answer is wrong. A count must equal the
// class's single-node count; every embedding of a page must be valid in
// data (global ids, for the fleet) and distinct, and a page must hold
// min(limit, class count) embeddings — or, when the class count is
// unknown, between 1 and limit and as many as the engine counted.
func (w *workload) check(data *graph.Graph, r *request, rep *reply) error {
	b := &rep.body
	switch {
	case rep.status != http.StatusOK:
		return fmt.Errorf("HTTP %d: %s", rep.status, b.Error)
	case b.Partial:
		return errors.New("partial answer")
	case w.fleet && b.ShardsOK != shards:
		return fmt.Errorf("%d of %d shards answered", b.ShardsOK, shards)
	}
	if r.wire.CountOnly {
		if b.Count != r.expect {
			return fmt.Errorf("count %d, want %d", b.Count, r.expect)
		}
		return nil
	}
	if err := checkPage(data, r.query, b.Embeddings); err != nil {
		return err
	}
	n := int64(len(b.Embeddings))
	if r.expect >= 0 {
		if want := min(r.wire.Limit, r.expect); n != want {
			return fmt.Errorf("page of %d embeddings, want %d", n, want)
		}
		return nil
	}
	if n < 1 || n > r.wire.Limit || n != b.Count {
		return fmt.Errorf("page of %d embeddings with count %d, limit %d", n, b.Count, r.wire.Limit)
	}
	return nil
}

// phase is the outcome of replaying a sequence in whole passes.
type phase struct {
	walls     []time.Duration // client wall time of every request
	attempted int64
	failed    int64
	passes    int
	elapsed   time.Duration // phase wall time, less hooks and answer checks
	// exact holds the counters of the first pass that must repeat
	// bit for bit on every run with the same seed.
	exact map[string]int64
}

// maxErrorsShown bounds how many wrong answers a replay describes on
// standard error.
const maxErrorsShown = 5

// replay sends seq pass after pass until done, called after each pass
// with the phase so far, reports true. Every reply is checked against
// the workload's answer key. A traced replay passes l, whose start runs
// just before each request is sent and whose finish runs right after
// its reply is read; time spent there and in the checks is excluded
// from the phase's wall time.
func replay(st *stack, c *client, w *workload, seq []request, l *layers, done func(*phase) bool) *phase {
	ph := &phase{}
	var paused time.Duration
	start := time.Now()
	for {
		var c0 service.CacheStats
		var b0 int64
		if ph.passes == 0 {
			c0, b0 = st.cacheTotals()
			ph.exact = map[string]int64{}
		}
		for i := range seq {
			r := &seq[i]
			t0 := time.Now()
			if l != nil {
				l.start(ph.passes, i)
			}
			paused += time.Since(t0)
			rep, wall, err := c.send(r)
			t1 := time.Now()
			if l != nil {
				l.finish(ph.passes, i, &rep, wall)
			}
			ph.attempted++
			ph.walls = append(ph.walls, wall)
			if err == nil {
				err = w.check(st.data, r, &rep)
			}
			if err != nil {
				ph.failed++
				if ph.failed <= maxErrorsShown {
					fmt.Fprintf(os.Stderr, "servebench: %s request %d (pass %d): %v\n", w.name, i, ph.passes, err)
				}
			} else if ph.passes == 0 {
				ph.countFirstPass(rep)
			}
			paused += time.Since(t1)
		}
		if ph.passes == 0 {
			c1, b1 := st.cacheTotals()
			ph.exact["cache.hits"] = c1.Hits - c0.Hits
			ph.exact["cache.misses"] = c1.Misses - c0.Misses
			ph.exact["cache.evictions"] = c1.Evictions - c0.Evictions
			ph.exact["service.builds"] = b1 - b0
		}
		ph.passes++
		ph.elapsed = time.Since(start) - paused
		if done(ph) {
			return ph
		}
	}
}

// countFirstPass adds one correct reply to the first pass's exact
// counters: embeddings answered, and the JSON size of the embeddings
// (the response minus its timing fields, whose printed width varies).
func (ph *phase) countFirstPass(rep reply) {
	if len(rep.body.Embeddings) == 0 {
		ph.exact["served.embeddings"] += rep.body.Count
		return
	}
	ph.exact["served.embeddings"] += int64(len(rep.body.Embeddings))
	b, _ := json.Marshal(rep.body.Embeddings) // a slice of ints always marshals
	ph.exact["served.embedding_bytes"] += int64(len(b))
}
