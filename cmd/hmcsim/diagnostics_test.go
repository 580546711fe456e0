package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestTimelineFlagWritesChromeTrace: `hmcsim -exp fig6 -quick -timeline
// out.json` simulates normally and writes a valid Chrome trace_event
// file with per-component counter series.
func TestTimelineFlagWritesChromeTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	var out, stderr bytes.Buffer
	code := run(context.Background(), []string{"-exp", "fig6", "-quick", "-timeline", path}, &out, &stderr)
	if code != 0 {
		t.Fatalf("exited %d: %s", code, stderr.String())
	}
	if !strings.Contains(out.String(), "fig6") {
		t.Fatalf("results missing from stdout:\n%s", out.String())
	}
	if !strings.Contains(stderr.String(), "timeline written to "+path) {
		t.Fatalf("stderr missing the timeline note:\n%s", stderr.String())
	}
	blob := readFile(t, path)
	var trace struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(blob, &trace); err != nil {
		t.Fatalf("timeline is not valid JSON: %v", err)
	}
	if trace.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit %q, want ms", trace.DisplayTimeUnit)
	}
	counters := map[string]bool{}
	meta := 0
	for _, ev := range trace.TraceEvents {
		switch ev.Ph {
		case "C":
			counters[ev.Name] = true
		case "M":
			meta++
		default:
			t.Fatalf("unexpected event phase %q", ev.Ph)
		}
	}
	if meta == 0 {
		t.Fatal("trace has no process_name metadata events")
	}
	for _, want := range []string{"vault 0", "noc hops", "host tags"} {
		if !counters[want] {
			t.Fatalf("trace missing counter series %q (have %v)", want, counters)
		}
	}
}

// TestTimelineRejectedWithServer: -timeline rides inside the local
// simulation contexts, so combining it with -server is a usage error.
func TestTimelineRejectedWithServer(t *testing.T) {
	var out, stderr bytes.Buffer
	code := run(context.Background(), []string{"-server", "http://localhost:1", "-exp", "fig6", "-timeline", "x.json"}, &out, &stderr)
	if code != 2 {
		t.Fatalf("exited %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "-timeline is local-only") {
		t.Fatalf("stderr: %s", stderr.String())
	}
}
