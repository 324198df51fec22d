package ceci

import (
	"slices"

	"ceci/internal/graph"
	"ceci/internal/setops"
)

// MatchScratch holds per-depth reusable buffers for CandidatesFor. Each
// enumeration worker keeps one scratch per backtracking depth so results
// remain valid while deeper levels recurse.
//
// The scratch also carries the cached stable intersection for its depth
// (see cachePlan): consecutive CandidatesFor calls at one depth differ
// only in the predecessor's assignment, so the intersection of every
// input list keyed by an older ancestor is computed once per distinct
// ancestor assignment and reused across the whole sibling loop. This is
// the embedding-cluster observation of Section 4.1 applied one level up.
type MatchScratch struct {
	S     setops.Scratch
	lists [][]uint32
	// prune receives the label-pair-prune survivors of the base list.
	prune []uint32
	// last is the kernel-stats watermark: the delta since the previous
	// drain is what the current CandidatesFor call charged.
	last setops.KernelStats

	// Stable-intersection cache, valid until the stable ancestor
	// assignments change or ResetUnitCache is called.
	nteKeys []graph.VertexID // stable assignments the cache was built for
	nteOK   bool
	nteRes  []uint32 // cached ∩ of the stable lists (aliases S's buffers)
	out     []uint32 // result buffer for the volatile per-sibling step
}

// KernelTotals returns the cumulative per-kernel work recorded on this
// scratch (all CandidatesFor calls at its depth). The enumeration ledger
// diffs consecutive reads at work-unit boundaries.
func (sc *MatchScratch) KernelTotals() setops.KernelStats { return sc.S.Stats }

// FootprintBytes returns the scratch's allocated backing size: the
// setops buffers plus this package's per-depth slices. nteRes aliases
// the setops buffers and out, so it is not counted separately.
func (sc *MatchScratch) FootprintBytes() int64 {
	return sc.S.FootprintBytes() +
		int64(cap(sc.lists))*24 + // slice headers
		int64(cap(sc.prune))*4 +
		int64(cap(sc.nteKeys))*4 +
		int64(cap(sc.out))*4
}

// ResetUnitCache invalidates the cached stable intersection. Enumeration
// workers call it at work-unit boundaries: the cache would remain
// correct across units (keys are compared on every lookup), but resets
// make the rebuild counts — and therefore the per-kernel profile — a
// deterministic function of the unit set rather than of which worker
// happened to run consecutive units.
func (sc *MatchScratch) ResetUnitCache() { sc.nteOK = false }

// CandidatesFor returns the matching nodes for query vertex u given the
// partial embedding m (indexed by query vertex ID): the intersection of
// u's TE candidates under the matched parent with each NTE candidate list
// under the matched non-tree parents (Section 4). The parent and every
// NTE parent of u must already be assigned in m. When the label-pair
// prune is enabled, base candidates whose neighborhood provably lacks a
// label required by u's later-matched query neighbors are dropped first.
//
// Only candidates strictly inside the open interval (lo, hi) are
// returned: the symmetry-breaking bounds of auto.Constraints.Bounds.
// Every input list is clipped to the interval by binary search before
// it is intersected, so the kernels never scan or emit a candidate the
// ordering constraints would reject; (auto.NoLower, auto.NoUpper)
// leaves the lists whole. The stable-intersection cache is built from
// unclipped lists, and only the view of it that a lookup reads is
// clipped, so the cache stays valid across sibling lookups whose
// bounds differ.
//
// The returned slice may alias index storage or scratch buffers: it is
// valid only until the next CandidatesFor call with the same scratch, and
// must not be modified.
func (ix *Index) CandidatesFor(u graph.VertexID, m []graph.VertexID, lo, hi int64, sc *MatchScratch) []graph.VertexID {
	tree := ix.Tree
	node := &ix.Nodes[u]
	var plan cachePlan
	if ix.ntePlan != nil {
		plan = ix.ntePlan[u]
	}
	base := node.TE.Get(m[tree.Parent[u]])
	if !plan.use || plan.volBase {
		// A stable base feeds the cached intersection whole; every other
		// base is read only by this lookup.
		base = clip(base, lo, hi)
	}
	if len(base) == 0 {
		return nil
	}
	var pruned int64
	if sigs := ix.nbrSig; sigs != nil {
		if req := ix.reqMask[u]; req != 0 {
			kept := sc.prune[:0]
			for _, v := range base {
				if sigs[v]&req == req {
					kept = append(kept, v)
				}
			}
			pruned = int64(len(base) - len(kept))
			sc.prune = kept
			base = kept
			if len(base) == 0 {
				if p := ix.opts.Profile; p != nil {
					vc := p.Vertex(int(u))
					vc.EnumLookups.Add(1)
					vc.EnumLabelPruned.Add(pruned)
				}
				return nil
			}
		}
	}
	if len(node.NTE) == 0 {
		if p := ix.opts.Profile; p != nil {
			vc := p.Vertex(int(u))
			vc.EnumLookups.Add(1)
			vc.EnumOutput.Add(int64(len(base)))
			if pruned != 0 {
				vc.EnumLabelPruned.Add(pruned)
			}
			p.ObserveEnumOutput(len(base))
		}
		return base
	}

	nparents := tree.NTEParents[u]
	if !plan.use {
		// Fewer than two stable inputs (or an unfrozen index): the cache
		// would precompute nothing, and its fixed pairing order would
		// forfeit IntersectK's smallest-first ordering (measured 2x
		// slower on the clique queries). Direct k-way intersection.
		lists := sc.lists[:0]
		lists = append(lists, base)
		for j, un := range nparents {
			l := clip(node.NTE[j].Get(m[un]), lo, hi)
			if len(l) == 0 {
				sc.lists = lists
				if p := ix.opts.Profile; p != nil {
					vc := p.Vertex(int(u))
					vc.EnumLookups.Add(1)
					if pruned != 0 {
						vc.EnumLabelPruned.Add(pruned)
					}
				}
				return nil
			}
			lists = append(lists, l)
		}
		sc.lists = lists
		if ix.opts.Stats != nil {
			ix.opts.Stats.IntersectionOps.Add(int64(len(lists) - 1))
		}
		result := setops.IntersectK(&sc.S, lists)
		if p := ix.opts.Profile; p != nil {
			var cmp int64
			for _, l := range lists {
				cmp += int64(len(l))
			}
			vc := p.Vertex(int(u))
			vc.EnumLookups.Add(1)
			vc.EnumIntersections.Add(int64(len(lists) - 1))
			vc.EnumComparisons.Add(cmp)
			vc.EnumOutput.Add(int64(len(result)))
			if pruned != 0 {
				vc.EnumLabelPruned.Add(pruned)
			}
			// Drain the per-kernel work recorded since the last drain on
			// this scratch into the profile's atomics.
			vc.AddKernelStats(sc.S.Stats.Sub(sc.last))
			sc.last = sc.S.Stats
			p.ObserveEnumOutput(len(result))
		}
		return result
	}

	// Stable-cache path. The cache is keyed by every stable assignment:
	// the tree parent's (unless the base list is the volatile input) and
	// each non-volatile NTE parent's.
	hit := sc.nteOK
	if hit {
		ki := 0
		if !plan.volBase {
			if sc.nteKeys[0] != m[tree.Parent[u]] {
				hit = false
			}
			ki = 1
		}
		if hit {
			for j, un := range nparents {
				if j == plan.volNTE {
					continue
				}
				if sc.nteKeys[ki] != m[un] {
					hit = false
					break
				}
				ki++
			}
		}
	}
	var rebuildCmp, rebuilt int64
	if !hit {
		// Record the full key set first: a rebuild that stops early on an
		// empty list must still leave a complete key for the next lookup.
		sc.nteKeys = sc.nteKeys[:0]
		if !plan.volBase {
			sc.nteKeys = append(sc.nteKeys, m[tree.Parent[u]])
		}
		for j, un := range nparents {
			if j != plan.volNTE {
				sc.nteKeys = append(sc.nteKeys, m[un])
			}
		}
		sc.nteOK = true
		lists := sc.lists[:0]
		if !plan.volBase {
			lists = append(lists, base)
			rebuildCmp += int64(len(base))
		}
		empty := false
		for j, un := range nparents {
			if j == plan.volNTE {
				continue
			}
			l := node.NTE[j].Get(m[un])
			if len(l) == 0 {
				empty = true
				break
			}
			rebuildCmp += int64(len(l))
			lists = append(lists, l)
		}
		sc.lists = lists
		if empty {
			sc.nteRes = nil
		} else {
			rebuilt = int64(len(lists) - 1)
			if ix.opts.Stats != nil {
				ix.opts.Stats.IntersectionOps.Add(rebuilt)
			}
			sc.nteRes = setops.IntersectK(&sc.S, lists)
		}
	}
	// The lookup reads the cached result through its bounds.
	stable := clip(sc.nteRes, lo, hi)
	if len(stable) == 0 {
		// Empty: the cached intersection is empty (every sibling under
		// these stable assignments fails the same way) or holds nothing
		// inside this lookup's bounds.
		if p := ix.opts.Profile; p != nil {
			vc := p.Vertex(int(u))
			vc.EnumLookups.Add(1)
			vc.EnumIntersections.Add(rebuilt)
			vc.EnumComparisons.Add(rebuildCmp)
			if pruned != 0 {
				vc.EnumLabelPruned.Add(pruned)
			}
			vc.AddKernelStats(sc.S.Stats.Sub(sc.last))
			sc.last = sc.S.Stats
		}
		return nil
	}

	// Volatile step: intersect the clipped stable result with the one
	// input keyed by the predecessor — the TE base list (clipped above),
	// a single clipped NTE list, or nothing at all (the clipped cached
	// result is the answer).
	var result []uint32
	var volCmp int64
	intersections := rebuilt
	switch {
	case plan.volBase:
		volCmp = int64(len(stable)) + int64(len(base))
		result = setops.IntersectWith(setops.ChooseKernel(stable, base), sc.out[:0], stable, base, &sc.S)
		sc.out = result
		intersections++
		if ix.opts.Stats != nil {
			ix.opts.Stats.IntersectionOps.Add(1)
		}
	case plan.volNTE >= 0:
		lv := clip(node.NTE[plan.volNTE].Get(m[nparents[plan.volNTE]]), lo, hi)
		volCmp = int64(len(stable)) + int64(len(lv))
		if len(lv) == 0 {
			result = nil
		} else {
			result = setops.IntersectWith(setops.ChooseKernel(stable, lv), sc.out[:0], stable, lv, &sc.S)
			sc.out = result
			intersections++
			if ix.opts.Stats != nil {
				ix.opts.Stats.IntersectionOps.Add(1)
			}
		}
	default:
		result = stable
	}
	if p := ix.opts.Profile; p != nil {
		vc := p.Vertex(int(u))
		vc.EnumLookups.Add(1)
		vc.EnumIntersections.Add(intersections)
		vc.EnumComparisons.Add(rebuildCmp + volCmp)
		vc.EnumOutput.Add(int64(len(result)))
		if pruned != 0 {
			vc.EnumLabelPruned.Add(pruned)
		}
		// Drain the per-kernel work recorded since the last drain on
		// this scratch into the profile's atomics.
		vc.AddKernelStats(sc.S.Stats.Sub(sc.last))
		sc.last = sc.S.Stats
		p.ObserveEnumOutput(len(result))
	}
	return result
}

// CandidatesForEdgeVerify is the ablation variant (Section 4.1, Lemma 2):
// it returns only the TE candidates inside the bounds (lo, hi), and
// leaves non-tree edges to be verified by adjacency probes, the way
// TurboIso/CFLMatch-style systems operate. VerifyNTE performs those
// probes.
func (ix *Index) CandidatesForEdgeVerify(u graph.VertexID, m []graph.VertexID, lo, hi int64) []graph.VertexID {
	return clip(ix.Nodes[u].TE.Get(m[ix.Tree.Parent[u]]), lo, hi)
}

// clip returns the view of sorted list l strictly inside the open
// interval (lo, hi). A side that cuts nothing off costs one compare;
// only a bound that falls inside the list costs a binary search.
func clip(l []graph.VertexID, lo, hi int64) []graph.VertexID {
	if len(l) == 0 {
		return l
	}
	if lo >= int64(l[0]) {
		if lo >= int64(l[len(l)-1]) {
			return nil
		}
		i, _ := slices.BinarySearch(l, graph.VertexID(lo+1))
		l = l[i:]
	}
	if hi <= int64(l[len(l)-1]) {
		if hi <= int64(l[0]) {
			return nil
		}
		j, _ := slices.BinarySearch(l, graph.VertexID(hi))
		l = l[:j]
	}
	return l
}

// VerifyNTE checks v against every non-tree edge of u by binary-search
// adjacency probes on the data graph.
func (ix *Index) VerifyNTE(u graph.VertexID, v graph.VertexID, m []graph.VertexID) bool {
	for _, un := range ix.Tree.NTEParents[u] {
		if ix.opts.Stats != nil {
			ix.opts.Stats.EdgeVerifications.Add(1)
		}
		if !ix.Data.HasEdge(m[un], v) {
			return false
		}
	}
	return true
}
