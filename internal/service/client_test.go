package service

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestClientResponseBounded: the client caps how much of a response it
// buffers, so a misbehaving endpoint cannot balloon client memory the
// way an unbounded io.ReadAll would.
func TestClientResponseBounded(t *testing.T) {
	huge := strings.Repeat("x", maxViewBytes+4096)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"id":"` + huge + `"}`)) //nolint:errcheck
	}))
	t.Cleanup(ts.Close)
	c := &Client{Base: ts.URL, HTTP: ts.Client()}
	_, err := c.Job(context.Background(), "j000001")
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized response: err = %v, want body-bound error", err)
	}
}
