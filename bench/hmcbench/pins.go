package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
)

// pinsPath is where the SHA-256 digests of each workload's simulated
// statistics are pinned, per seed. Seeds 0 and 7 are pinned; any change
// to what the simulator computes for them fails the run until the pins
// are deliberately re-recorded with -pin.
var pinsPath = filepath.Join("bench", "testdata", "pins.json")

// pinFile maps workload name to seed (as a decimal string) to digest.
type pinFile map[string]map[string]string

func loadPins(root string) (pinFile, error) {
	blob, err := os.ReadFile(filepath.Join(root, pinsPath))
	if errors.Is(err, fs.ErrNotExist) {
		return pinFile{}, nil
	}
	if err != nil {
		return nil, err
	}
	p := pinFile{}
	if err := json.Unmarshal(blob, &p); err != nil {
		return nil, err
	}
	return p, nil
}

func (p pinFile) get(workload string, seed uint64) (string, bool) {
	d, ok := p[workload][strconv.FormatUint(seed, 10)]
	return d, ok
}

func (p pinFile) set(workload string, seed uint64, digest string) {
	if p[workload] == nil {
		p[workload] = map[string]string{}
	}
	p[workload][strconv.FormatUint(seed, 10)] = digest
}

func (p pinFile) save(root string) error {
	return writeJSON(filepath.Join(root, pinsPath), p)
}

// sha returns the hex SHA-256 of s.
func sha(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// shaJSON returns the hex SHA-256 of v's JSON encoding.
func shaJSON(v any) (string, error) {
	blob, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	return sha(string(blob)), nil
}
