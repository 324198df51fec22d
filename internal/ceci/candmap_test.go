package ceci

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"ceci/internal/gen"
	"ceci/internal/graph"
	"ceci/internal/order"
)

func TestCandMapAppendGet(t *testing.T) {
	var m CandMap
	m.AppendKey(2, []graph.VertexID{10, 20})
	m.AppendKey(5, []graph.VertexID{30})
	m.AppendKey(9, []graph.VertexID{40, 50, 60})
	if m.Len() != 3 {
		t.Fatalf("len = %d", m.Len())
	}
	if got := m.Get(5); len(got) != 1 || got[0] != 30 {
		t.Fatalf("Get(5) = %v", got)
	}
	if m.Get(3) != nil {
		t.Fatal("phantom key")
	}
	if got := m.CandidateEdges(); got != 6 {
		t.Fatalf("edges = %d", got)
	}
}

func TestCandMapOutOfOrderInsert(t *testing.T) {
	var m CandMap
	m.AppendKey(5, []graph.VertexID{1})
	m.AppendKey(2, []graph.VertexID{2}) // triggers the insert path
	m.AppendKey(5, []graph.VertexID{3}) // overwrite
	keys := keysOf(&m)
	if len(keys) != 2 || keys[0] != 2 || keys[1] != 5 {
		t.Fatalf("keys = %v", keys)
	}
	if got := m.Get(5); len(got) != 1 || got[0] != 3 {
		t.Fatalf("overwrite failed: %v", got)
	}
}

func TestCandMapDelete(t *testing.T) {
	var m CandMap
	for _, k := range []graph.VertexID{1, 3, 5} {
		m.AppendKey(k, []graph.VertexID{k * 10})
	}
	m.Delete(3)
	m.Delete(99) // no-op
	if m.Len() != 2 || m.Get(3) != nil {
		t.Fatal("delete failed")
	}
	if got := m.Get(5); got == nil {
		t.Fatal("wrong entry removed")
	}
}

func TestCandMapDeleteValue(t *testing.T) {
	var m CandMap
	m.AppendKey(1, []graph.VertexID{7, 8})
	m.AppendKey(2, []graph.VertexID{8})
	m.AppendKey(3, []graph.VertexID{9})
	emptied := m.DeleteValue(8, nil)
	if len(emptied) != 1 || emptied[0] != 2 {
		t.Fatalf("emptied = %v", emptied)
	}
	if got := m.Get(1); len(got) != 1 || got[0] != 7 {
		t.Fatalf("Get(1) = %v", got)
	}
	// The emptied key remains until the caller deletes it (cascade).
	if got := m.Get(2); got == nil || len(got) != 0 {
		t.Fatalf("Get(2) = %v, want empty non-nil entry", got)
	}
}

func TestCandMapForEachOrder(t *testing.T) {
	var m CandMap
	m.AppendKey(4, []graph.VertexID{1})
	m.AppendKey(1, []graph.VertexID{2})
	m.AppendKey(2, []graph.VertexID{3})
	var keys []graph.VertexID
	m.ForEach(func(k graph.VertexID, _ []graph.VertexID) {
		keys = append(keys, k)
	})
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("ForEach not in key order: %v", keys)
		}
	}
}

func TestCandMapValueUnion(t *testing.T) {
	var m CandMap
	m.AppendKey(1, []graph.VertexID{3, 5})
	m.AppendKey(2, []graph.VertexID{5, 7})
	union := m.ValueUnion()
	want := []graph.VertexID{3, 5, 7}
	if len(union) != 3 {
		t.Fatalf("union = %v", union)
	}
	for i := range want {
		if union[i] != want[i] {
			t.Fatalf("union = %v, want %v", union, want)
		}
	}
}

func TestSaturatingArithmetic(t *testing.T) {
	if got := satAdd(CardSaturation, 1); got != CardSaturation {
		t.Fatalf("satAdd overflowed: %d", got)
	}
	if got := satMul(CardSaturation/2, 3); got != CardSaturation {
		t.Fatalf("satMul overflowed: %d", got)
	}
	if satMul(0, 5) != 0 || satMul(5, 0) != 0 {
		t.Fatal("satMul zero broken")
	}
	if satAdd(2, 3) != 5 || satMul(2, 3) != 6 {
		t.Fatal("basic arithmetic broken")
	}
}

// randomCandMap fills a mutable map with keys drawn from [lo, lo+span)
// with probability p each, every key holding a short sorted value list.
func randomCandMap(rng *rand.Rand, lo, span uint32, p float64) *CandMap {
	m := &CandMap{}
	for k := lo; k < lo+span; k++ {
		if rng.Float64() >= p {
			continue
		}
		vals := make([]graph.VertexID, 1+rng.Intn(4))
		v := graph.VertexID(rng.Intn(50))
		for i := range vals {
			vals[i] = v
			v += graph.VertexID(1 + rng.Intn(9))
		}
		m.AppendKey(k, vals)
	}
	return m
}

// frozenCopy returns a frozen map with m's content.
func frozenCopy(m *CandMap) *CandMap {
	f := &CandMap{}
	m.ForEach(func(k graph.VertexID, vals []graph.VertexID) { f.AppendKey(k, vals) })
	f.freezeInto(make([]graph.VertexID, 0, f.CandidateEdges()))
	return f
}

// TestCandMapForms: on random key sets, the mutable map and its frozen
// form — sparse key list or dense bitmap directory, whichever is smaller
// — agree on Get, ForEach and Len, including absent keys, key 0,
// keys below the first and beyond the last bitmap word, and report the
// footprint of the form they kept.
func TestCandMapForms(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	forms := map[bool]int{}
	for trial := 0; trial < 400; trial++ {
		var lo uint32
		if trial%3 != 0 {
			lo = uint32(rng.Intn(1 << 20))
		}
		span := uint32(1 + rng.Intn(2000))
		m := randomCandMap(rng, lo, span, rng.Float64())
		f := frozenCopy(m)
		n := m.Len()
		dense := f.dense != nil
		forms[dense]++
		if n > 0 {
			keys := keysOf(m)
			words := int64(keys[n-1]>>6-keys[0]>>6) + 1
			if want := 12*words < 4*int64(n); dense != want {
				t.Fatalf("trial %d: %d keys over %d words kept dense=%v, want %v", trial, n, words, dense, want)
			}
		}
		if f.Len() != n {
			t.Fatalf("trial %d: Len %d, want %d", trial, f.Len(), n)
		}
		assertSameCandMap(t, trial, "forms", m, f)
		probes := []graph.VertexID{0, lo, lo + span, lo + span + 64, math.MaxUint32}
		if lo >= 64 {
			probes = append(probes, lo-1, lo-64)
		}
		for i := 0; i < 50; i++ {
			probes = append(probes, lo+graph.VertexID(rng.Intn(int(span)+128)))
		}
		for _, k := range probes {
			if !eqVals(m.Get(k), f.Get(k)) {
				t.Fatalf("trial %d: Get(%d) = %v, want %v", trial, k, f.Get(k), m.Get(k))
			}
		}
		dir := int64(4 * n)
		if dense {
			dir = 12 * int64(len(f.dense.bits))
		}
		if want := dir + 4*int64(n+1) + 4*f.CandidateEdges(); f.flatBytes() != want {
			t.Fatalf("trial %d: flatBytes %d, want %d", trial, f.flatBytes(), want)
		}
	}
	if forms[true] == 0 || forms[false] == 0 {
		t.Fatalf("trials never produced both forms: %v", forms)
	}
}

// TestDenseDirectoryRoundTrip: an index whose maps take the dense
// directory survives WriteTo/ReadIndex with the same forms, content and
// footprint (ReadIndex rebuilds the directories through the same freeze).
func TestDenseDirectoryRoundTrip(t *testing.T) {
	data := gen.Kronecker(9, 12, 2)
	tree, err := order.Preprocess(data, gen.QG3(), order.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ix := Build(data, tree, Options{})
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadIndex(&buf, data, tree)
	if err != nil {
		t.Fatal(err)
	}
	dense := 0
	for u := range ix.Nodes {
		maps := []*CandMap{&ix.Nodes[u].TE}
		loaded := []*CandMap{&got.Nodes[u].TE}
		for j := range ix.Nodes[u].NTE {
			maps = append(maps, &ix.Nodes[u].NTE[j])
			loaded = append(loaded, &got.Nodes[u].NTE[j])
		}
		for i, m := range maps {
			if (m.dense != nil) != (loaded[i].dense != nil) {
				t.Fatalf("u%d map %d: form changed across the round trip", u, i)
			}
			if m.dense != nil {
				dense++
			}
			assertSameCandMap(t, u, "round-trip", m, loaded[i])
		}
	}
	if dense == 0 {
		t.Fatal("fixture produced no dense-directory map")
	}
	if ix.PhysicalBytes() != got.PhysicalBytes() {
		t.Fatalf("PhysicalBytes %d, loaded %d", ix.PhysicalBytes(), got.PhysicalBytes())
	}
}
