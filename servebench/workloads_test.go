package main

import (
	"bytes"
	"testing"
)

// sequenceBodies draws a short sequence and its warm-up requests and
// returns their wire bodies in order.
func sequenceBodies(t *testing.T, w *workload, seed int64) [][]byte {
	t.Helper()
	seq, warm, err := w.inputs(w.data(), seed, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != 12 {
		t.Fatalf("%s: %d requests, want 12", w.name, len(seq))
	}
	var out [][]byte
	for _, r := range append(seq, warm...) {
		out = append(out, r.body)
	}
	return out
}

func TestSequencesDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := sequenceBodies(t, w, 7), sequenceBodies(t, w, 7)
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Fatalf("%s: request %d differs between two draws with seed 7", w.name, i)
			}
		}
	}
}

func TestSequencesDifferAcrossSeeds(t *testing.T) {
	for _, w := range workloads {
		a, b := sequenceBodies(t, w, 7), sequenceBodies(t, w, 8)
		same := true
		for i := range a {
			same = same && bytes.Equal(a[i], b[i])
		}
		if same {
			t.Errorf("%s: seeds 7 and 8 drew the same sequence", w.name)
		}
	}
}
