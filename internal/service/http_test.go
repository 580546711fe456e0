package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"hmcsim"
)

// TestSubmitRejectsTrailingData: a submission body must be exactly one
// JSON value. A second value or garbage after the first gets a 400 and
// creates no job, on both submission endpoints.
func TestSubmitRejectsTrailingData(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1}, newFake("eq1"), newFake("fig13"))
	for _, tc := range []struct {
		path, body string
	}{
		{"/v1/jobs", `{"exp":"eq1","options":{"quick":true}} {"exp":"fig13"} trailing-garbage`},
		{"/v1/jobs", `{"exp":"eq1"} {"exp":"fig13"}`},
		{"/v1/jobs", `{"exp":"eq1"}}`},
		{"/v1/jobs", `{"exp":"eq1"} 7`},
		{"/v1/batch", `[{"exp":"eq1","options":{"quick":true}}] garbage`},
		{"/v1/batch", `[{"exp":"eq1"}] [{"exp":"fig13"}]`},
		{"/v1/batch", `[{"exp":"eq1"}]]`},
	} {
		resp, err := c.httpClient().Post(c.Base+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s %s = %s, want 400", tc.path, tc.body, resp.Status)
		}
	}
	if n := len(s.Snapshot().Jobs); n != 0 {
		t.Fatalf("rejected submissions left jobs behind: %v", s.Snapshot().Jobs)
	}
	// Whitespace after the value is not data.
	resp, err := c.httpClient().Post(c.Base+"/v1/jobs", "application/json", strings.NewReader("{\"exp\":\"eq1\"}\n \t\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/jobs with trailing whitespace = %s, want 200 or 202", resp.Status)
	}
}

// strictSpecs decodes body as the submission endpoints must: exactly
// one JSON value, a spec or (batch) an array of specs, with no unknown
// field. json.Valid, not the decoder, decides "exactly one value".
func strictSpecs(body []byte, batch bool) ([]hmcsim.Spec, bool) {
	if !json.Valid(body) {
		return nil, false
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if batch {
		var specs []hmcsim.Spec
		return specs, dec.Decode(&specs) == nil
	}
	var spec hmcsim.Spec
	return []hmcsim.Spec{spec}, dec.Decode(&spec) == nil
}

// FuzzSubmitBody posts every input to both submission endpoints, on a
// server whose fake runners answer at once and whose queue never fills.
// Neither endpoint may answer 500. A body that is not exactly one JSON
// value of the endpoint's shape, or that exceeds its limit, gets a 400.
// A 200 or 202 comes only when Validate accepts every spec, and a
// well-formed body of 1 to MaxBatchSpecs valid specs that name known
// experiments gets one.
func FuzzSubmitBody(f *testing.F) {
	s := New(Config{Workers: 1, QueueDepth: 1 << 16, Retain: -1}, []hmcsim.Runner{newFake("eq1"), newFake("fig13")})
	f.Cleanup(s.Close)
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, ep := range []struct {
			path  string
			limit int
			batch bool
			shape string
		}{
			{"/v1/jobs", 1 << 20, false, "spec"},
			{"/v1/batch", 16 << 20, true, "array of specs"},
		} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, ep.path, bytes.NewReader(body)))
			code := rec.Code
			specs, ok := strictSpecs(body, ep.batch)
			ok = ok && len(body) <= ep.limit
			valid := ok && len(specs) > 0 && len(specs) <= MaxBatchSpecs
			for _, sp := range specs {
				valid = valid && sp.Validate() == nil && (sp.Exp == "eq1" || sp.Exp == "fig13")
			}
			accepted := code == http.StatusOK || code == http.StatusAccepted
			switch {
			case code != http.StatusBadRequest && !accepted:
				t.Fatalf("POST %s %q = %d: %s", ep.path, body, code, rec.Body)
			case !ok && code != http.StatusBadRequest:
				t.Fatalf("POST %s %q = %d, want 400 for a body that is not one %s", ep.path, body, code, ep.shape)
			case accepted && !valid:
				t.Fatalf("POST %s %q = %d, want 400 unless every spec is valid and names a known experiment", ep.path, body, code)
			case valid && !accepted:
				t.Fatalf("POST %s %q = %d for valid specs: %s", ep.path, body, code, rec.Body)
			}
		}
	})
}
