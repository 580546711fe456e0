package hmcsim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// Spec is a serializable experiment request: which registered
// experiment to run and with which options. It is the unit of work the
// hmcsimd service accepts, and its canonical encoding is the
// content-address under which results are cached — two specs that mean
// the same experiment must hash to the same key, however their JSON was
// spelled.
//
// Options.Workers is deliberately excluded (json:"-"): it changes only
// wall-clock time, never results, so it must not split the cache.
type Spec struct {
	Exp     string  `json:"exp"`
	Options Options `json:"options"`
}

// TrafficExp is the registered name of the generic traffic experiment,
// the only runner that consumes Options.Traffic.
const TrafficExp = "traffic"

// Validate rejects specs that cannot run regardless of registry: bad
// option values such as an unknown traffic pattern, or a traffic spec
// attached to an experiment that would silently ignore it (and
// needlessly fork the result cache's content keys). The experiment
// name's existence is validated separately against whichever registry
// will run the spec.
func (s Spec) Validate() error {
	if s.Options.Traffic != nil && s.Exp != TrafficExp {
		return fmt.Errorf("hmcsim: options.traffic only applies to the %q experiment, not %q", TrafficExp, s.Exp)
	}
	return s.Options.Validate()
}

// Canonical returns the spec's canonical JSON encoding: object keys
// sorted, no insignificant whitespace, numbers preserved exactly. Any
// JSON spelling of the same spec — reordered fields, extra whitespace —
// canonicalizes to the same bytes.
func (s Spec) Canonical() ([]byte, error) {
	raw, err := json.Marshal(s)
	if err != nil {
		return nil, fmt.Errorf("hmcsim: marshal spec: %w", err)
	}
	// Round-trip through a generic value: encoding/json emits map keys
	// in sorted order, which is exactly the canonical form. UseNumber
	// keeps 64-bit seeds exact instead of routing them through float64.
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, fmt.Errorf("hmcsim: canonicalize spec: %w", err)
	}
	return json.Marshal(v)
}

// Key returns the spec's content address: the hex SHA-256 of its
// canonical encoding. Identical specs — whatever field order or
// formatting they were submitted with — share a key.
func (s Spec) Key() (string, error) {
	canon, err := s.Canonical()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(canon)
	return hex.EncodeToString(sum[:]), nil
}
