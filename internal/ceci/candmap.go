package ceci

import (
	"math/bits"

	"ceci/internal/graph"
	"ceci/internal/setops"
)

// CandMap is the key-value structure backing TE_Candidates and
// NTE_Candidates (Section 3.1): keys are candidates of the parent (or
// NTE-neighbor) query vertex, values are the sorted candidates of the
// child adjacent to that key. Keys are kept sorted, mirroring the
// paper's sorted-vector implementation (§3.6).
//
// The map has two storage modes:
//
//   - mutable (construction and refinement): one heap slice per key, so
//     cascade deletion can shrink individual value lists in place;
//   - frozen flat (steady state, after Index.Freeze): all values live in
//     one shared arena and the i-th key holds the [offs[i], offs[i+1])
//     range of it — the paper's ~4-bytes-per-candidate-edge layout
//     (Table 2) with no per-entry slice headers or pointer chasing.
//
// A frozen map finds a key's rank i through one of two key directories,
// whichever is smaller: the sorted key list (4 B per key, Get is a
// binary search), or, when keys are dense in their range, a presence
// bitmap plus the rank of each 64-bit word's first key (12 B per word,
// Get is a bit test and a popcount).
//
// Frozen maps are immutable: the mutating methods panic.
type CandMap struct {
	keys  []graph.VertexID   // mutable mode and the sparse frozen directory
	vals  [][]graph.VertexID // mutable mode; nil once frozen
	offs  []uint32           // frozen mode: Len()+1 offsets into arena
	arena []graph.VertexID   // frozen mode: contiguous value storage
	dense *keyBitmap         // frozen dense directory (keys is nil), or nil
}

// keyBitmap is the dense key directory of a frozen CandMap: bit k of
// bits[w] marks key 64·(base+w)+k present, and rank[w] counts the keys
// in earlier words. It sits behind a pointer so maps that keep the
// sparse form pay one word for it.
type keyBitmap struct {
	base uint32
	bits []uint64
	rank []uint32
}

// Len returns the number of live keys.
func (m *CandMap) Len() int {
	if m.offs != nil {
		return len(m.offs) - 1
	}
	return len(m.keys)
}

// Frozen reports whether the map is in the flat arena-backed mode.
func (m *CandMap) Frozen() bool { return m.offs != nil }

// Get returns the value list for key, or nil. On a frozen map the result
// is a view of the shared arena; it must not be modified.
func (m *CandMap) Get(key graph.VertexID) []graph.VertexID {
	if d := m.dense; d != nil {
		// Keys below the first word wrap around to a huge w.
		w := key>>6 - d.base
		if w >= uint32(len(d.bits)) {
			return nil
		}
		word, bit := d.bits[w], uint64(1)<<(key&63)
		if word&bit == 0 {
			return nil
		}
		i := d.rank[w] + uint32(bits.OnesCount64(word&(bit-1)))
		return m.arena[m.offs[i]:m.offs[i+1]]
	}
	keys := m.keys
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if keys[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(keys) && keys[lo] == key {
		if m.offs != nil {
			return m.arena[m.offs[lo]:m.offs[lo+1]]
		}
		return m.vals[lo]
	}
	return nil
}

func (m *CandMap) search(key graph.VertexID) int {
	lo, hi := 0, len(m.keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if m.keys[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// mutable panics when the map has been frozen: every structural change
// must happen before Index.Freeze.
func (m *CandMap) mutable() {
	if m.offs != nil {
		panic("ceci: mutation of frozen CandMap")
	}
}

// AppendKey adds (key, values) assuming key is strictly greater than every
// existing key — the natural case during construction, where frontiers are
// expanded in ascending order. values must be sorted.
func (m *CandMap) AppendKey(key graph.VertexID, values []graph.VertexID) {
	m.mutable()
	if n := len(m.keys); n > 0 && m.keys[n-1] >= key {
		m.insertKey(key, values)
		return
	}
	m.keys = append(m.keys, key)
	m.vals = append(m.vals, values)
}

func (m *CandMap) insertKey(key graph.VertexID, values []graph.VertexID) {
	i := m.search(key)
	if i < len(m.keys) && m.keys[i] == key {
		m.vals[i] = values
		return
	}
	m.keys = append(m.keys, 0)
	m.vals = append(m.vals, nil)
	copy(m.keys[i+1:], m.keys[i:])
	copy(m.vals[i+1:], m.vals[i:])
	m.keys[i] = key
	m.vals[i] = values
}

// Delete removes key (no-op if absent).
func (m *CandMap) Delete(key graph.VertexID) {
	m.mutable()
	i := m.search(key)
	if i == len(m.keys) || m.keys[i] != key {
		return
	}
	m.keys = append(m.keys[:i], m.keys[i+1:]...)
	m.vals = append(m.vals[:i], m.vals[i+1:]...)
}

// DeleteValue removes vertex v from every value list, returning the keys
// whose lists became empty (callers cascade those deletions).
func (m *CandMap) DeleteValue(v graph.VertexID, emptied []graph.VertexID) []graph.VertexID {
	m.mutable()
	for i := range m.keys {
		lst := m.vals[i]
		lo, hi := 0, len(lst)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if lst[mid] < v {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < len(lst) && lst[lo] == v {
			m.vals[i] = append(lst[:lo], lst[lo+1:]...)
			if len(m.vals[i]) == 0 {
				emptied = append(emptied, m.keys[i])
			}
		}
	}
	return emptied
}

// ForEach visits live (key, values) pairs in ascending key order.
func (m *CandMap) ForEach(fn func(key graph.VertexID, values []graph.VertexID)) {
	switch {
	case m.dense != nil:
		i := 0
		for w, word := range m.dense.bits {
			for ; word != 0; word &= word - 1 {
				key := (m.dense.base+uint32(w))<<6 | uint32(bits.TrailingZeros64(word))
				fn(key, m.arena[m.offs[i]:m.offs[i+1]])
				i++
			}
		}
	case m.offs != nil:
		for i := range m.keys {
			fn(m.keys[i], m.arena[m.offs[i]:m.offs[i+1]])
		}
	default:
		for i := range m.keys {
			fn(m.keys[i], m.vals[i])
		}
	}
}

// ValueUnion returns the sorted union of all value lists.
func (m *CandMap) ValueUnion() []graph.VertexID {
	lists := make([][]uint32, 0, len(m.keys))
	m.ForEach(func(_ graph.VertexID, vals []graph.VertexID) {
		lists = append(lists, vals)
	})
	return setops.UnionMany(lists)
}

// CandidateEdges counts the (key, value) pairs, i.e. candidate data edges
// — the unit of the paper's Table 2 size accounting.
func (m *CandMap) CandidateEdges() int64 {
	if n := len(m.offs); n > 0 {
		return int64(m.offs[n-1]) - int64(m.offs[0])
	}
	var n int64
	for _, v := range m.vals {
		n += int64(len(v))
	}
	return n
}

// freezeInto compacts the map into the flat mode, appending every value
// list to arena (which must have enough spare capacity that no append
// reallocates — Node.freeze presizes it) and installing [start, end)
// offsets plus the smaller key directory. The mutable per-key slices are
// released. Returns the extended arena.
func (m *CandMap) freezeInto(arena []graph.VertexID) []graph.VertexID {
	if m.offs != nil {
		return arena
	}
	offs := make([]uint32, len(m.keys)+1)
	start := len(arena)
	for i, v := range m.vals {
		offs[i] = uint32(len(arena) - start)
		arena = append(arena, v...)
	}
	offs[len(m.keys)] = uint32(len(arena) - start)
	m.offs = offs
	m.arena = arena[start:len(arena):len(arena)]
	m.vals = nil
	if n := len(m.keys); n > 0 {
		base := m.keys[0] >> 6
		if words := int64(m.keys[n-1]>>6-base) + 1; 12*words < 4*int64(n) {
			d := &keyBitmap{base: base, bits: make([]uint64, words), rank: make([]uint32, words)}
			for _, k := range m.keys {
				d.bits[k>>6-base] |= 1 << (k & 63)
			}
			var r uint32
			for w, word := range d.bits {
				d.rank[w] = r
				r += uint32(bits.OnesCount64(word))
			}
			m.dense = d
			m.keys = nil
		}
	}
	return arena
}

// flatBytes is the physical footprint of the frozen representation:
// the key directory (4 bytes per key, or 12 per bitmap word), 4 bytes
// per offset and 4 per arena entry. Zero when mutable.
func (m *CandMap) flatBytes() int64 {
	if m.offs == nil {
		return 0
	}
	b := 4 * int64(len(m.keys)+len(m.offs)+len(m.arena))
	if d := m.dense; d != nil {
		b += 12 * int64(len(d.bits))
	}
	return b
}
