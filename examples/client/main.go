// Client example: drive one or more running hmcsimd daemons, first with
// nothing but net/http — showing the wire protocol end to end — and
// then through the fleet scheduler, farming a seed-stability sweep out
// across every daemon.
//
// Part 1 lists the registry, submits a job, polls until it completes,
// and prints the result plus the daemon's cache statistics. Submit the
// same spec twice and the second run comes back instantly with
// "cached": true.
//
// Part 2 builds a service.Fleet over the -server list (comma-separated
// URLs shard across daemons) and runs the same experiment under four
// different seeds in one Fleet.Run: the four specs are batched to the
// daemons, deduped by content key, and failed over if a daemon dies.
// Each returned view decodes into the hmcsim.Result a local run would
// return.
//
// Start one or more daemons first:
//
//	go run ./cmd/hmcsimd -addr :8080
//	go run ./cmd/hmcsimd -addr :8081
//	go run ./examples/client -server http://localhost:8080,http://localhost:8081 -exp eq1
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"hmcsim"
	"hmcsim/internal/service"
)

type job struct {
	ID        string          `json:"id"`
	State     string          `json:"state"`
	Cached    bool            `json:"cached"`
	Error     string          `json:"error"`
	Text      string          `json:"text"`
	Result    json.RawMessage `json:"result"`
	ElapsedMs float64         `json:"elapsedMs"`
}

func main() {
	servers := "http://localhost:8080"
	exp := "eq1"
	quick := true
	args := os.Args[1:]
	for i := 0; i < len(args)-1; i++ {
		switch args[i] {
		case "-server":
			servers = args[i+1]
		case "-exp":
			exp = args[i+1]
		}
	}
	first := strings.Split(servers, ",")[0]

	// ---- Part 1: the wire protocol, by hand against the first daemon.

	// GET /v1/experiments — what can this daemon run?
	var exps []struct{ Name, Title string }
	getJSON(first+"/v1/experiments", &exps)
	fmt.Printf("daemon serves %d experiments:\n", len(exps))
	for _, e := range exps {
		fmt.Printf("  %-8s %s\n", e.Name, e.Title)
	}

	// POST /v1/jobs — submit a spec. 202 means queued; 200 means the
	// result came straight from the content-addressed cache.
	spec := fmt.Sprintf(`{"exp": %q, "options": {"quick": %v}}`, exp, quick)
	resp, err := http.Post(first+"/v1/jobs", "application/json", bytes.NewBufferString(spec))
	if err != nil {
		fail(err)
	}
	var j job
	decodeInto(resp, &j)
	fmt.Printf("\nsubmitted %s: job %s is %s\n", exp, j.ID, j.State)

	// GET /v1/jobs/{id} — poll until terminal.
	for j.State == "queued" || j.State == "running" {
		time.Sleep(100 * time.Millisecond)
		getJSON(first+"/v1/jobs/"+j.ID, &j)
	}
	switch j.State {
	case "done":
		how := "simulated"
		if j.Cached {
			how = "served from cache"
		}
		fmt.Printf("job %s done (%s, %.1f ms):\n\n%s\n", j.ID, how, j.ElapsedMs, j.Text)
	case "failed":
		fail(fmt.Errorf("job failed: %s", j.Error))
	default:
		fail(fmt.Errorf("job ended %s", j.State))
	}

	// ---- Part 2: farm a seed sweep out across the whole fleet.
	//
	// One Fleet.Run takes every point: the specs are batched to the
	// daemons, deduped by content key, and failed over if a daemon dies.
	fleet := service.NewFleet(servers)
	fleet.Logf = func(format string, a ...any) { fmt.Fprintf(os.Stderr, "fleet: "+format+"\n", a...) }

	seeds := []uint64{1, 2, 3, 4}
	specs := make([]hmcsim.Spec, len(seeds))
	for i, seed := range seeds {
		specs[i] = hmcsim.Spec{Exp: exp, Options: hmcsim.Options{Quick: quick, Seed: seed}}
	}
	fmt.Printf("sweeping %s over seeds %v across %d daemon(s)...\n", exp, seeds, len(fleet.Clients))
	start := time.Now()
	views, err := fleet.Run(context.Background(), specs)
	if err != nil {
		fail(err)
	}
	for i, v := range views {
		res, err := v.Decode()
		if err != nil {
			fail(fmt.Errorf("seed %d: %w", seeds[i], err))
		}
		fmt.Printf("  seed %d: %s, %d series\n", seeds[i], res.Name, len(res.Series))
	}
	fmt.Printf("fleet sweep of %d points took %v\n\n", len(seeds), time.Since(start).Round(time.Millisecond))

	// GET /v1/stats — run this program twice and watch hits climb; the
	// batch and inflight counters show the fleet filling the pool.
	var stats struct {
		Cache struct {
			Hits, Misses, Entries uint64
		}
		Batches      uint64
		InflightPeak int
	}
	getJSON(first+"/v1/stats", &stats)
	fmt.Printf("cache: %d hits, %d misses, %d entries; %d batches, inflight peak %d\n",
		stats.Cache.Hits, stats.Cache.Misses, stats.Cache.Entries, stats.Batches, stats.InflightPeak)
}

func getJSON(url string, out any) {
	resp, err := http.Get(url)
	if err != nil {
		fail(err)
	}
	decodeInto(resp, out)
}

func decodeInto(resp *http.Response, out any) {
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		fail(err)
	}
	if resp.StatusCode >= 300 {
		fail(fmt.Errorf("%s: %s: %s", resp.Request.URL, resp.Status, blob))
	}
	if err := json.Unmarshal(blob, out); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "client:", err)
	os.Exit(1)
}
