package hmcsim_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"hmcsim"
	"hmcsim/internal/traffic"
)

func TestResultJSONRoundTrip(t *testing.T) {
	in := hmcsim.Result{
		Name:    "fig6",
		Title:   "Figure 6",
		Options: hmcsim.Options{Quick: true, Seed: 42, Workers: 8},
		Series: []hmcsim.Series{
			{
				Name: "bandwidth", Unit: "GB/s",
				Points: []hmcsim.Point{
					{Label: "1 bank", X: 16, Y: 1.625},
					{Label: "16 vaults", X: 128, Y: 22.75},
				},
			},
			{
				Name:   "avg-latency", // no unit: omitempty path
				Points: []hmcsim.Point{{X: 0, Y: 0}},
			},
		},
		Text: "human form",
	}
	blob, err := in.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back hmcsim.Result
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	// Workers and Text are deliberately excluded from the wire form;
	// everything else must survive.
	in.Options.Workers = 0
	in.Text = ""
	if !reflect.DeepEqual(in, back) {
		t.Fatalf("round trip changed the result:\n in: %+v\nout: %+v", in, back)
	}
}

func TestSeriesJSONRoundTrip(t *testing.T) {
	in := hmcsim.Series{
		Name: "max-latency", Unit: "ns",
		Points: []hmcsim.Point{{Label: "pinned1/64B", X: 5, Y: 1234.5}, {X: 6, Y: 0}},
	}
	blob, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var back hmcsim.Series
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, back) {
		t.Fatalf("round trip changed the series:\n in: %+v\nout: %+v", in, back)
	}
}

func TestSpecKeyStability(t *testing.T) {
	// The same spec spelled with different JSON field orders and
	// whitespace must canonicalize to the same key.
	spellings := []string{
		`{"exp":"fig6","options":{"quick":true,"seed":7}}`,
		`{"options":{"seed":7,"quick":true},"exp":"fig6"}`,
		`{
			"options": { "quick": true, "seed": 7 },
			"exp": "fig6"
		}`,
	}
	keys := map[string]bool{}
	for _, src := range spellings {
		var s hmcsim.Spec
		if err := json.Unmarshal([]byte(src), &s); err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		k, err := s.Key()
		if err != nil {
			t.Fatal(err)
		}
		keys[k] = true
	}
	if len(keys) != 1 {
		t.Fatalf("field order changed the key: %v", keys)
	}

	// The key must be deterministic across calls...
	s := hmcsim.Spec{Exp: "fig6", Options: hmcsim.Options{Quick: true, Seed: 7}}
	k1, err := s.Key()
	if err != nil {
		t.Fatal(err)
	}
	k2, _ := s.Key()
	if k1 != k2 || !keys[k1] {
		t.Fatalf("struct-built key %s != JSON-built key set %v", k1, keys)
	}
	if len(k1) != 64 {
		t.Fatalf("key %q is not hex SHA-256", k1)
	}
}

func TestSpecKeyDiscriminates(t *testing.T) {
	base := hmcsim.Spec{Exp: "fig6", Options: hmcsim.Options{Quick: true, Seed: 7}}
	variants := []hmcsim.Spec{
		{Exp: "fig13", Options: base.Options},
		{Exp: "fig6", Options: hmcsim.Options{Quick: false, Seed: 7}},
		{Exp: "fig6", Options: hmcsim.Options{Quick: true, Seed: 8}},
	}
	bk, err := base.Key()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range variants {
		vk, err := v.Key()
		if err != nil {
			t.Fatal(err)
		}
		if vk == bk {
			t.Errorf("distinct spec %+v collides with %+v", v, base)
		}
	}

	// Workers changes only wall-clock time, never results, so it must
	// not split the cache.
	w := base
	w.Options.Workers = 16
	wk, err := w.Key()
	if err != nil {
		t.Fatal(err)
	}
	if wk != bk {
		t.Error("Workers changed the content address")
	}
}

// TestSpecKeyStableAcrossTrafficExtension pins the canonical encoding
// of a pre-traffic spec: adding the options.traffic field must not
// change the keys of specs that do not use it, or every daemon cache
// entry from before the traffic subsystem would be silently orphaned.
func TestSpecKeyStableAcrossTrafficExtension(t *testing.T) {
	s := hmcsim.Spec{Exp: "fig6", Options: hmcsim.Options{Quick: true, Seed: 7}}
	canon, err := s.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	// The exact canonical bytes from before Options.Traffic existed.
	want := `{"exp":"fig6","options":{"quick":true,"seed":7}}`
	if string(canon) != want {
		t.Fatalf("canonical form drifted:\n got: %s\nwant: %s", canon, want)
	}
}

func TestSpecKeyCoversTrafficFields(t *testing.T) {
	base := hmcsim.Spec{Exp: "traffic", Options: hmcsim.Options{Quick: true}}
	zipf := base
	zipf.Options.Traffic = &hmcsim.TrafficSpec{Pattern: hmcsim.TrafficZipf, ZipfTheta: 1.2}
	bk, err := base.Key()
	if err != nil {
		t.Fatal(err)
	}
	zk, err := zipf.Key()
	if err != nil {
		t.Fatal(err)
	}
	if bk == zk {
		t.Fatal("traffic spec did not change the content address")
	}

	// Identical traffic specs share a key however they were built.
	var fromJSON hmcsim.Spec
	src := `{"options":{"traffic":{"zipfTheta":1.2,"pattern":"zipf"},"seed":0,"quick":true},"exp":"traffic"}`
	if err := json.Unmarshal([]byte(src), &fromJSON); err != nil {
		t.Fatal(err)
	}
	jk, err := fromJSON.Key()
	if err != nil {
		t.Fatal(err)
	}
	if jk != zk {
		t.Fatalf("JSON-built traffic key %s != struct-built %s", jk, zk)
	}

	// Every traffic field must discriminate the key.
	variants := []hmcsim.TrafficSpec{
		{Pattern: hmcsim.TrafficZipf, ZipfTheta: 1.1},
		{Pattern: hmcsim.TrafficHotspot, ZipfTheta: 1.2},
		{Pattern: hmcsim.TrafficZipf, ZipfTheta: 1.2, WriteFraction: 0.5},
		{Pattern: hmcsim.TrafficZipf, ZipfTheta: 1.2, Discipline: hmcsim.TrafficOpenLoop, RateGBps: 2},
		{Pattern: hmcsim.TrafficZipf, ZipfTheta: 1.2, Phases: []hmcsim.TrafficPhase{{DurationUs: 10}}},
	}
	for _, v := range variants {
		s := base
		v := v
		s.Options.Traffic = &v
		vk, err := s.Key()
		if err != nil {
			t.Fatal(err)
		}
		if vk == zk {
			t.Errorf("traffic variant %+v collides with the zipf base spec", v)
		}
	}
}

func TestSpecValidateTraffic(t *testing.T) {
	bad := hmcsim.Spec{Exp: "traffic", Options: hmcsim.Options{
		Traffic: &hmcsim.TrafficSpec{Pattern: "zipfian"},
	}}
	err := bad.Validate()
	if err == nil {
		t.Fatal("unknown traffic pattern accepted")
	}
	for _, name := range hmcsim.TrafficPatterns() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list pattern %q", err, name)
		}
	}
	ok := hmcsim.Spec{Exp: "traffic", Options: hmcsim.Options{
		Traffic: &hmcsim.TrafficSpec{Pattern: hmcsim.TrafficChase},
	}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid traffic spec rejected: %v", err)
	}
	if err := (hmcsim.Spec{Exp: "fig6"}).Validate(); err != nil {
		t.Errorf("traffic-less spec rejected: %v", err)
	}

	// A traffic spec on an experiment that ignores it would silently
	// fork the cache keys, so it is rejected at validation.
	misapplied := hmcsim.Spec{Exp: "fig6", Options: hmcsim.Options{
		Traffic: &hmcsim.TrafficSpec{Pattern: hmcsim.TrafficZipf},
	}}
	if err := misapplied.Validate(); err == nil || !strings.Contains(err.Error(), "traffic") {
		t.Errorf("traffic spec on fig6 accepted (err = %v)", err)
	}

	// Cross-field violations must fail Spec validation too, not just
	// compilation: this is what turns them into HTTP 400s.
	uncompilable := hmcsim.Spec{Exp: "traffic", Options: hmcsim.Options{
		Traffic: &hmcsim.TrafficSpec{Pattern: hmcsim.TrafficStride, StrideBytes: 8192, WorkingSetBytes: 8192},
	}}
	if err := uncompilable.Validate(); err == nil {
		t.Error("uncompilable stride spec accepted")
	}
}

func TestSpecKeyPreservesLargeSeeds(t *testing.T) {
	// Seeds above 2^53 must survive canonicalization exactly (no float64
	// round-trip): nearby seeds that a float64 would conflate must keep
	// distinct keys.
	a := hmcsim.Spec{Exp: "fig6", Options: hmcsim.Options{Seed: 1<<63 + 1}}
	b := hmcsim.Spec{Exp: "fig6", Options: hmcsim.Options{Seed: 1<<63 + 2}}
	ak, err := a.Key()
	if err != nil {
		t.Fatal(err)
	}
	bk, err := b.Key()
	if err != nil {
		t.Fatal(err)
	}
	if ak == bk {
		t.Fatal("adjacent 64-bit seeds collapsed to one key")
	}
	canon, err := a.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	var back hmcsim.Spec
	if err := json.Unmarshal(canon, &back); err != nil {
		t.Fatal(err)
	}
	if back.Options.Seed != a.Options.Seed {
		t.Fatalf("canonical form altered the seed: %d -> %d", a.Options.Seed, back.Options.Seed)
	}
}

// FuzzSpec decodes arbitrary bytes as hmcsimd's job endpoints do (one
// JSON object, unknown fields rejected). Whatever Validate accepts must
// have a content key that survives a marshal/unmarshal round trip, and
// a traffic spec must compile into phases that each last some simulated
// time. The seed corpus lives in testdata/fuzz/FuzzSpec; go test runs
// it as an ordinary test. To fuzz further:
//
//	go test -run '^$' -fuzz '^FuzzSpec$' -fuzztime 30s .
func FuzzSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		var s hmcsim.Spec
		if dec.Decode(&s) != nil || s.Validate() != nil {
			return
		}
		key, err := s.Key()
		if err != nil {
			t.Fatalf("valid spec %s has no key: %v", raw, err)
		}
		blob, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("valid spec %s does not marshal: %v", raw, err)
		}
		var back hmcsim.Spec
		if err := json.Unmarshal(blob, &back); err != nil {
			t.Fatalf("marshalled spec %s does not unmarshal: %v", blob, err)
		}
		if again, err := back.Key(); err != nil || again != key {
			t.Fatalf("key of %s changed in a round trip: %s -> %s (%v)", raw, key, again, err)
		}
		o := s.Options
		if o.Traffic == nil {
			return
		}
		g, err := traffic.Compile(*o.Traffic, 128, o.Seed)
		if err != nil {
			t.Fatalf("valid traffic spec %s does not compile: %v", raw, err)
		}
		for i, p := range g.Phases() {
			if p.Duration <= 0 {
				t.Fatalf("spec %s: phase %d compiled to duration %d ps", raw, i, p.Duration)
			}
		}
	})
}
