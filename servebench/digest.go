package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
)

// digest is the record of a run's exact counters, kept under cfg.out so
// that later runs of the same binary, workload, seed and mode can be
// compared against it.
type digest struct {
	Binary   string           `json:"binary"`
	Counters map[string]int64 `json:"counters"`
}

// checkDigest compares counters with the record a previous run of this
// same binary left for the workload, seed and mode, and stores them
// when there is no such record. It reports false, and names every
// counter that differs on standard error, when they disagree.
func checkDigest(cfg config, mode string, counters map[string]int64) (bool, error) {
	bin, err := binaryHash()
	if err != nil {
		return false, err
	}
	path := filepath.Join(cfg.out, fmt.Sprintf("digest-%s-%s-%d.json", mode, cfg.workload, cfg.seed))
	cur := digest{Binary: bin, Counters: counters}
	raw, err := os.ReadFile(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
	case err != nil:
		return false, err
	default:
		var prev digest
		if err := json.Unmarshal(raw, &prev); err != nil {
			return false, fmt.Errorf("%s: %w", path, err)
		}
		if prev.Binary == bin {
			for _, k := range slices.Sorted(maps.Keys(counters)) {
				if v, ok := prev.Counters[k]; !ok || v != counters[k] {
					fmt.Fprintf(os.Stderr, "servebench: exact counter %s = %d, an earlier run with this seed had %d\n", k, counters[k], v)
				}
			}
			for _, k := range slices.Sorted(maps.Keys(prev.Counters)) {
				if _, ok := counters[k]; !ok {
					fmt.Fprintf(os.Stderr, "servebench: exact counter %s is missing; an earlier run with this seed had it\n", k)
				}
			}
			return maps.Equal(prev.Counters, counters), nil
		}
	}
	out, err := json.MarshalIndent(cur, "", "  ")
	if err != nil {
		return false, err
	}
	return true, os.WriteFile(path, out, 0o644)
}

// binaryHash identifies the running executable by its SHA-256.
func binaryHash() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
