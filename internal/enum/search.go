package enum

import (
	"time"

	"ceci/internal/bitset"
	"ceci/internal/ceci"
	"ceci/internal/graph"
	"ceci/internal/setops"
	"ceci/internal/workload"
)

// searcher is one worker's backtracking state. All buffers are owned by
// the worker; nothing here is shared.
type searcher struct {
	m    *Matcher
	ctl  *control
	tree queryShape

	emb     []graph.VertexID    // partial embedding, indexed by query vertex
	matched []bool              // indexed by query vertex
	used    bitset.Bits         // indexed by data vertex (injectivity bitmap)
	scratch []ceci.MatchScratch // per-depth intersection buffers

	// Cumulative counters for the searcher's lifetime; flush pushes the
	// delta beyond flushed* to the Stats/Progress sinks so live snapshots
	// advance mid-run without an atomic per embedding.
	recursiveCalls int64
	embeddings     int64
	flushedCalls   int64
	flushedEmbs    int64

	// Ledger watermarks: the portion of the cumulative counters already
	// charged to the resource ledger at the last work-unit boundary.
	ledCalls   int64
	ledEmbs    int64
	ledKernels setops.KernelStats

	// Per-depth selectivity counters (nil unless Options.Depth is set):
	// depthLookups/depthEmitted accumulate plainly inside the depth step;
	// ledDepth* are the watermarks drained into the shared DepthStats
	// atomics at work-unit boundaries.
	depthLookups []int64
	depthEmitted []int64
	ledDepthL    []int64
	ledDepthE    []int64
}

// liveFlushMask batches sink updates: counters drain every 4096
// embeddings (and at each unit boundary), keeping the hot path
// atomic-free.
const liveFlushMask = 1<<12 - 1

// queryShape caches the tree fields the inner loop touches.
type queryShape struct {
	order []graph.VertexID
	n     int
}

func newSearcher(m *Matcher, ctl *control) *searcher {
	n := m.ix.Tree.NumVertices()
	s := &searcher{
		m:       m,
		ctl:     ctl,
		tree:    queryShape{order: m.ix.Tree.Order, n: n},
		emb:     make([]graph.VertexID, n),
		matched: make([]bool, n),
		used:    bitset.New(m.ix.Data.NumVertices()),
		scratch: make([]ceci.MatchScratch, n+1),
	}
	if d := m.opts.Depth; d != nil && d.Depths() >= n {
		s.depthLookups = make([]int64, n)
		s.depthEmitted = make([]int64, n)
		s.ledDepthL = make([]int64, n)
		s.ledDepthE = make([]int64, n)
	}
	return s
}

// runUnit enumerates the embeddings of one work unit: the prefix is
// installed (it was validated during decomposition) and the search
// continues from the next matching-order position. Returns false when
// the enumeration should stop globally.
func (s *searcher) runUnit(u workload.Unit) bool {
	// Invalidate the per-depth stable-intersection caches: correctness
	// does not require it (cache keys are compared on every lookup), but
	// resetting at unit boundaries makes the rebuild counts — and so the
	// per-kernel profile — independent of which worker ran which
	// consecutive units.
	for i := range s.scratch {
		s.scratch[i].ResetUnitCache()
	}
	for i, v := range u.Prefix {
		q := s.tree.order[i]
		s.emb[q] = v
		s.matched[q] = true
		s.used.Set(v)
	}
	ok := s.search(len(u.Prefix))
	for i, v := range u.Prefix {
		q := s.tree.order[i]
		s.matched[q] = false
		s.used.Clear(v)
	}
	return ok
}

// search extends the embedding at the given matching-order depth.
// Returns false to stop enumeration (limit reached, consumer stop, or
// context cancellation).
func (s *searcher) search(depth int) bool {
	// The entry check gives depth-step cancellation granularity: once the
	// stop flag is up — limit, consumer, or a context deadline — no new
	// depth is entered, even on a worker's first descent. One relaxed
	// atomic load; nothing allocates.
	if s.ctl.stop.Load() {
		return false
	}
	if depth == s.tree.n {
		delivered, cont := s.ctl.emit(s.emb)
		if delivered {
			s.embeddings++
			if s.embeddings&liveFlushMask == 0 {
				s.flush()
			}
		}
		return cont
	}
	u := s.tree.order[depth]
	s.recursiveCalls++

	// Symmetry breaking bounds the lookup itself: every candidate it
	// returns already satisfies the ordering constraints.
	lo, hi := s.m.cons.Bounds(u, s.emb, s.matched)
	var cands []graph.VertexID
	if s.m.opts.EdgeVerification {
		cands = s.m.ix.CandidatesForEdgeVerify(u, s.emb, lo, hi)
	} else {
		cands = s.m.ix.CandidatesFor(u, s.emb, lo, hi, &s.scratch[depth])
	}
	if s.depthLookups != nil {
		s.depthLookups[depth]++
		s.depthEmitted[depth] += int64(len(cands))
	}
	if len(cands) == 0 {
		return true
	}
	for _, v := range cands {
		if s.used.Get(v) {
			continue
		}
		if s.m.opts.EdgeVerification && !s.m.ix.VerifyNTE(u, v, s.emb) {
			continue
		}
		s.emb[u] = v
		s.matched[u] = true
		s.used.Set(v)
		ok := s.search(depth + 1)
		s.matched[u] = false
		s.used.Clear(v)
		if !ok {
			return false
		}
		// Periodically observe the global stop flag so deep subtrees
		// terminate promptly once a limit is hit elsewhere.
		if s.ctl.stop.Load() {
			return false
		}
	}
	return true
}

// chargeLedger pushes this worker's deltas since the previous charge to
// the query's resource ledger: the unit's busy time, recursive-call and
// embedding deltas, the per-kernel work summed across the per-depth
// scratches, and the worker's current scratch footprint (a handful of
// atomic adds — runWorker calls it once per completed unit, never inside
// the depth step).
func (s *searcher) chargeLedger(elapsed time.Duration) {
	led := s.m.opts.Ledger
	var kern setops.KernelStats
	var scratchBytes int64
	for i := range s.scratch {
		k := s.scratch[i].KernelTotals()
		for j := 0; j < setops.NumKernels; j++ {
			kern.Calls[j] += k.Calls[j]
			kern.Scanned[j] += k.Scanned[j]
			kern.Emitted[j] += k.Emitted[j]
		}
		scratchBytes += s.scratch[i].FootprintBytes()
	}
	scratchBytes += int64(cap(s.emb))*4 + int64(cap(s.matched)) + int64(len(s.used))*8
	led.AddUnit(elapsed, s.recursiveCalls-s.ledCalls, s.embeddings-s.ledEmbs, scratchBytes)
	led.AddKernels(kern.Sub(s.ledKernels))
	s.ledCalls = s.recursiveCalls
	s.ledEmbs = s.embeddings
	s.ledKernels = kern
}

// chargeDepth drains per-depth lookup/output deltas since the previous
// charge into the shared DepthStats atomics — the same unit-boundary
// watermark discipline as chargeLedger, so the depth step itself stays
// atomic-free and allocation-free.
func (s *searcher) chargeDepth() {
	d := s.m.opts.Depth
	if d == nil || s.depthLookups == nil {
		return
	}
	for i := range s.depthLookups {
		dl := s.depthLookups[i] - s.ledDepthL[i]
		de := s.depthEmitted[i] - s.ledDepthE[i]
		if dl == 0 && de == 0 {
			continue
		}
		d.add(i, dl, de)
		s.ledDepthL[i] = s.depthLookups[i]
		s.ledDepthE[i] = s.depthEmitted[i]
	}
}

// flush pushes counter deltas since the last flush to the Stats counters
// and the Progress reporter. Cumulative fields are never reset, so
// callers (MeasureUnits) can still read them across units.
func (s *searcher) flush() {
	dCalls := s.recursiveCalls - s.flushedCalls
	dEmbs := s.embeddings - s.flushedEmbs
	if dCalls == 0 && dEmbs == 0 {
		return
	}
	if st := s.m.opts.Stats; st != nil {
		st.RecursiveCalls.Add(dCalls)
		st.Embeddings.Add(dEmbs)
	}
	s.m.opts.Progress.AddEmbeddings(dEmbs)
	s.flushedCalls = s.recursiveCalls
	s.flushedEmbs = s.embeddings
}
