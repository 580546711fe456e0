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
// of a pre-traffic spec, whose key must not move when options.traffic
// exists but is unused, and of a spec that sets every traffic and phase
// field, whose key moves if any of their JSON names does. Either would
// silently orphan every daemon cache entry keyed before the change.
func TestSpecKeyStableAcrossTrafficExtension(t *testing.T) {
	full := &hmcsim.TrafficSpec{
		Pattern: hmcsim.TrafficZipf, WorkingSetBytes: 1 << 24, StrideBytes: 256,
		HotFraction: 0.8, HotSetBytes: 1 << 20, ZipfTheta: 0.9, ChaseNodes: 64,
		WriteFraction: 0.3, MixRunLength: 4, Discipline: hmcsim.TrafficOpenLoop, RateGBps: 1.5,
		Phases: []hmcsim.TrafficPhase{{Pattern: hmcsim.TrafficStride, DurationUs: 2.5, RateGBps: 3, Off: true}},
	}
	for _, c := range []struct {
		spec hmcsim.Spec
		want string
	}{
		{hmcsim.Spec{Exp: "fig6", Options: hmcsim.Options{Quick: true, Seed: 7}},
			`{"exp":"fig6","options":{"quick":true,"seed":7}}`},
		{hmcsim.Spec{Exp: "traffic", Options: hmcsim.Options{Seed: 3, Traffic: full}},
			`{"exp":"traffic","options":{"quick":false,"seed":3,"traffic":{"chaseNodes":64,"discipline":"open",` +
				`"hotFraction":0.8,"hotSetBytes":1048576,"mixRunLength":4,"pattern":"zipf","phases":[{"durationUs":2.5,` +
				`"off":true,"pattern":"stride","rateGBps":3}],"rateGBps":1.5,"strideBytes":256,"workingSetBytes":16777216,` +
				`"writeFraction":0.3,"zipfTheta":0.9}}}`},
	} {
		canon, err := c.spec.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		if string(canon) != c.want {
			t.Errorf("canonical form drifted:\n got: %s\nwant: %s", canon, c.want)
		}
	}
}

// TestSpecFieldsKeepOldKeys walks the JSON closure of Spec: a field that
// always serializes would change the key of every spec written before
// it, so each exported field must be tagged json:"-" or omitempty. The
// founding fields, in every key since the first, are the exceptions.
func TestSpecFieldsKeepOldKeys(t *testing.T) {
	founding := map[string]bool{
		"hmcsim.Spec.Exp": true, "hmcsim.Spec.Options": true, "hmcsim.Options.Quick": true,
		"hmcsim.Options.Seed": true, "traffic.Phase.DurationUs": true,
	}
	seen := map[reflect.Type]bool{}
	var walk func(reflect.Type)
	walk = func(typ reflect.Type) {
		for k := typ.Kind(); k == reflect.Pointer || k == reflect.Slice || k == reflect.Array || k == reflect.Map; k = typ.Kind() {
			typ = typ.Elem()
		}
		if typ.Kind() != reflect.Struct || seen[typ] {
			return
		}
		seen[typ] = true
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			tag, _ := f.Tag.Lookup("json")
			name := typ.String() + "." + f.Name
			_, opts, _ := strings.Cut(tag, ",")
			switch {
			case f.Anonymous && tag == "": // its fields inline into the object
			case !f.IsExported() || tag == "-":
				continue
			case founding[name]:
				delete(founding, name)
			case !strings.Contains(","+opts+",", ",omitempty,"):
				t.Errorf("%s (json:%q) always serializes, so adding such a field moves every existing key; tag it omitempty or \"-\"", name, tag)
			}
			walk(f.Type)
		}
	}
	walk(reflect.TypeOf(hmcsim.Spec{}))
	for name := range founding {
		t.Errorf("founding field %s is no longer in the key", name)
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
