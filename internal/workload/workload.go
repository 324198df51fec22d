// Package workload implements the paper's workload distribution schemes
// (Sections 4.2–4.3): static distribution (ST), coarse-grained dynamic
// pull-based distribution (CGD), and fine-grained dynamic distribution
// (FGD) with cardinality-driven ExtremeCluster decomposition
// (Algorithm 3).
package workload

import (
	"cmp"
	"fmt"
	"slices"
	"sync/atomic"

	"ceci/internal/auto"
	"ceci/internal/ceci"
	"ceci/internal/graph"
)

// Strategy selects a distribution scheme.
type Strategy int

const (
	// ST assigns an equal number of embedding clusters to each worker up
	// front, with no re-adjustment.
	ST Strategy = iota
	// CGD lets idle workers pull whole clusters from a shared pool.
	CGD
	// FGD additionally decomposes ExtremeClusters — clusters whose
	// cardinality exceeds β × expected-per-worker — into sub-clusters
	// before pulling, and sorts the pool by descending cardinality so
	// large units start first.
	FGD
)

func (s Strategy) String() string {
	switch s {
	case ST:
		return "ST"
	case CGD:
		return "CGD"
	case FGD:
		return "FGD"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// DefaultBeta is the paper's workload-balancing default (§6.3 fixes
// β = 0.2 for the Figure 11 experiments).
const DefaultBeta = 0.2

// Unit is a schedulable piece of the search space: a consistent prefix of
// the matching order (Prefix[i] matches query vertex Order[i]) plus its
// estimated workload. A depth-1 unit is a whole embedding cluster.
type Unit struct {
	Prefix []graph.VertexID
	Card   int64
}

// Schedule is the ordered work of one enumeration, handed out by unit
// index. Unit i is either the i-th decomposed FGD unit or, when nothing
// was decomposed, the embedding cluster of the i-th pivot, read straight
// from the frozen index: its prefix is a view of the pivot list and its
// card the root's cardinality column. Scheduling whole clusters thus
// copies nothing per pivot and does no per-pivot lookup.
type Schedule struct {
	pivots []graph.VertexID // the index's pivots (shared, read-only)
	cards  []int64          // cluster cardinalities, parallel to pivots
	units  []Unit           // the decomposed pool, or nil
}

// Clusters schedules one depth-1 unit per pivot, in pivot order.
func Clusters(ix *ceci.Index) Schedule {
	return Schedule{pivots: ix.Pivots(), cards: ix.ClusterCards()}
}

// Len returns the number of units.
func (s Schedule) Len() int {
	if s.units != nil {
		return len(s.units)
	}
	return len(s.pivots)
}

// Unit returns unit i, 0 <= i < Len().
func (s Schedule) Unit(i int) Unit {
	if s.units != nil {
		return s.units[i]
	}
	return s.cluster(i)
}

func (s Schedule) cluster(i int) Unit {
	return Unit{Prefix: s.pivots[i : i+1 : i+1], Card: s.cards[i]}
}

// Decompose implements Algorithm 3: every unit whose workload exceeds
// β × (total/workers) is recursively split along the matching order into
// per-matching-node sub-units. Injectivity and symmetry-breaking
// constraints are honored during splitting so the resulting units
// partition exactly the search space the enumerator would explore.
func Decompose(ix *ceci.Index, cons *auto.Constraints, beta float64, workers int) Schedule {
	s := Clusters(ix)
	if workers <= 1 {
		return s
	}
	if beta <= 0 {
		beta = DefaultBeta
	}
	var total int64
	for _, c := range s.cards {
		total += c
	}
	if total <= 0 {
		return s
	}
	threshold := beta * float64(total) / float64(workers)
	if threshold < 1 {
		threshold = 1
	}

	n := ix.Tree.NumVertices()
	d := decomposer{
		ix:        ix,
		cons:      cons,
		threshold: threshold,
		m:         make([]graph.VertexID, n),
		matched:   make([]bool, n),
		scratch:   make([]ceci.MatchScratch, n),
	}
	out := make([]Unit, 0, len(s.pivots))
	for i := range s.pivots {
		u := s.cluster(i)
		out = d.split(out, u.Prefix, float64(u.Card))
	}
	// Largest units first smooths worker finishing times (§4.3).
	slices.SortFunc(out, func(a, b Unit) int { return cmp.Compare(b.Card, a.Card) })
	s.units = out
	return s
}

type decomposer struct {
	ix        *ceci.Index
	cons      *auto.Constraints
	threshold float64
	m         []graph.VertexID
	matched   []bool
	// scratch is per depth, as in the enumerator: a lookup's stable
	// cache is keyed by ancestor assignments only, so lookups for
	// different query vertices must not share one.
	scratch []ceci.MatchScratch

	// prefixes is the arena backing every emitted sub-unit prefix: one
	// growing allocation instead of one slice per unit. Growth may
	// reallocate the backing array; already-carved prefixes keep pointing
	// into the old one, which stays valid because prefixes are write-once.
	prefixes []graph.VertexID
	// cands is the per-depth candidate scratch: split recurses with
	// depth+1, so each depth owns its slot and capacity is reused across
	// the whole decomposition.
	cands [][]cardCand
}

type cardCand struct {
	v graph.VertexID
	c int64
}

// carve appends prefix+v to the prefix arena and returns the carved,
// capacity-clamped view.
func (d *decomposer) carve(prefix []graph.VertexID, v graph.VertexID) []graph.VertexID {
	start := len(d.prefixes)
	d.prefixes = append(d.prefixes, prefix...)
	d.prefixes = append(d.prefixes, v)
	end := len(d.prefixes)
	return d.prefixes[start:end:end]
}

// split appends to out either the unit itself (small enough or fully
// expanded) or its recursively decomposed sub-units.
func (d *decomposer) split(out []Unit, prefix []graph.VertexID, work float64) []Unit {
	tree := d.ix.Tree
	depth := len(prefix)
	if work <= d.threshold || depth == tree.NumVertices() {
		return append(out, Unit{Prefix: prefix, Card: int64(work + 0.5)})
	}

	// Install the prefix into the scratch embedding. Recursive calls
	// work on superset prefixes and clear their flags on return, so the
	// caller re-installs after each recursion (see below).
	d.install(prefix)
	defer func() {
		for i := range prefix {
			d.matched[tree.Order[i]] = false
		}
	}()

	uNext := tree.Order[depth]
	lo, hi := d.cons.Bounds(uNext, d.m, d.matched)
	matching := d.ix.CandidatesFor(uNext, d.m, lo, hi, &d.scratch[depth])

	// Filter to assignments the enumerator would actually make, and
	// collect their cardinalities for proportional workload split. The
	// candidate buffer is per-depth scratch: recursion below uses depth+1.
	for len(d.cands) <= depth {
		d.cands = append(d.cands, nil)
	}
	cands := d.cands[depth][:0]
	node := &d.ix.Nodes[uNext]
	var total int64
	for _, v := range matching {
		if d.used(prefix, v) {
			continue
		}
		c := node.CardOf(v)
		if c <= 0 {
			c = 1 // refinement disabled or stale: keep a floor
		}
		cands = append(cands, cardCand{v, c})
		total += c
	}
	d.cands[depth] = cands
	if len(cands) == 0 {
		// The unit is a dead end; keep it so accounting stays simple —
		// it costs one candidate lookup at run time.
		return append(out, Unit{Prefix: prefix, Card: 0})
	}
	for _, c := range cands {
		myWork := work * float64(c.c) / float64(total)
		sub := d.carve(prefix, c.v)
		if myWork <= d.threshold {
			out = append(out, Unit{Prefix: sub, Card: int64(myWork + 0.5)})
		} else {
			out = d.split(out, sub, myWork)
			// The recursion cleared the matched flags of its (superset)
			// prefix; restore ours for the remaining loop iterations.
			d.install(prefix)
		}
	}
	return out
}

func (d *decomposer) install(prefix []graph.VertexID) {
	tree := d.ix.Tree
	for i, v := range prefix {
		u := tree.Order[i]
		d.m[u] = v
		d.matched[u] = true
	}
}

func (d *decomposer) used(prefix []graph.VertexID, v graph.VertexID) bool {
	for _, p := range prefix {
		if p == v {
			return true
		}
	}
	return false
}

// Pool is a shared work pool workers pull from (the classical pull-based
// dynamic model the paper cites). Safe for concurrent Next calls.
type Pool struct {
	s      Schedule
	cursor atomic.Int64
}

// NewPool wraps a schedule in a pool.
func NewPool(s Schedule) *Pool { return &Pool{s: s} }

// Next returns the next unit, or false when the pool is drained.
func (p *Pool) Next() (Unit, bool) {
	i := p.cursor.Add(1) - 1
	if i >= int64(p.s.Len()) {
		return Unit{}, false
	}
	return p.s.Unit(int(i)), true
}

// Share is one worker's static ST assignment: every k-th unit of a
// schedule starting at the worker's own index, in schedule order. Not
// safe for concurrent use; each worker owns its share.
type Share struct {
	s          Schedule
	next, step int
}

// Partition returns worker w's share of the round-robin split of s into
// k static groups (ST): units w, w+k, w+2k, …. The groups are walked in
// place; no unit is copied. k < 1 collapses to one group.
func (s Schedule) Partition(w, k int) *Share {
	if k < 1 {
		k = 1
	}
	return &Share{s: s, next: w, step: k}
}

// Next returns the share's next unit, or false when it is exhausted.
func (sh *Share) Next() (Unit, bool) {
	if sh.next >= sh.s.Len() {
		return Unit{}, false
	}
	u := sh.s.Unit(sh.next)
	sh.next += sh.step
	return u, true
}
