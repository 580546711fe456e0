package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"time"

	"hmcsim"
	"hmcsim/internal/exp"
	"hmcsim/internal/service"
)

// daemon is a serve workload's in-process hmcsimd daemon, with one
// worker, behind its own HTTP server, and a client of it.
type daemon struct {
	srv    *service.Server
	http   *httptest.Server
	client *service.Client
}

func startDaemon() *daemon {
	// Retain -1 prunes job records strictly at MaxJobs, so memory tracks
	// the daemon's steady state rather than how many requests the last
	// 30 s happened to fit.
	srv := service.New(service.Config{Workers: 1, Retain: -1}, exp.Runners())
	ts := httptest.NewServer(srv.Handler())
	return &daemon{srv: srv, http: ts, client: &service.Client{Base: ts.URL}}
}

func (d *daemon) close() {
	d.http.Close()
	d.srv.Close()
}

// recordStats samples the daemon's cache hit ratio and its peak
// concurrent simulations since start-up.
func (d *daemon) recordStats(b *bench) {
	st := d.srv.Snapshot()
	if lookups := st.Cache.Hits + st.Cache.Misses; lookups > 0 {
		b.sample("service.cache_hit_ratio", float64(st.Cache.Hits)/float64(lookups))
	}
	b.sample("service.inflight_peak", float64(st.InflightPeak))
}

// serveSpec is the job every serve workload submits: the traffic
// experiment at full fidelity with the traffic-rw spec and the given
// seed.
func serveSpec(seed uint64) hmcsim.Spec {
	ts := trafficRW
	return hmcsim.Spec{Exp: hmcsim.TrafficExp, Options: hmcsim.Options{Seed: seed, Traffic: &ts}}
}

// jobSeed derives the seed of job k of a stream from the run seed, so
// every job of a run simulates a distinct spec (and misses the cache)
// while the same run seed always yields the same jobs.
func jobSeed(base uint64, stream, k int) uint64 {
	x := base*0x9e3779b97f4a7c15 + uint64(stream)<<40 + uint64(k) + 1
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x | 1 // seed 0 would select the config default
}

// submit runs one job through a client as hmcsim -server does without a
// fleet: Client.Submit, then Client.WatchJob until the job is terminal.
// It checks that the daemon keyed the job by the spec's content address.
func submit(b *bench, c *service.Client, spec hmcsim.Spec, span, i int) (service.JobView, time.Duration, error) {
	ctx := context.Background()
	t0 := time.Now()
	id := b.tr.begin("service.Client.Submit", span, i)
	v, err := c.Submit(ctx, spec)
	b.tr.end(id)
	if err == nil && !v.State.Terminal() {
		id = b.tr.begin("service.Client.WatchJob", span, i)
		v, err = c.WatchJob(ctx, v.ID, nil)
		b.tr.end(id)
	}
	lat := time.Since(t0)
	if err != nil {
		return v, lat, err
	}
	if b.traced {
		b.sample("service.request_ms", float64(lat.Microseconds())/1e3)
	}
	id = b.tr.begin("hmcsim.Spec.Key", span, i)
	key, err := spec.Key()
	b.tr.end(id)
	if err != nil {
		return v, lat, err
	}
	if v.Key != key {
		return v, lat, fmt.Errorf("job %s: key %.12s, spec key %.12s", v.ID, v.Key, key)
	}
	return v, lat, checkView(v)
}

// checkView checks that a terminal view carries a non-empty traffic
// result with a positive bandwidth.
func checkView(v service.JobView) error {
	res, err := v.Decode()
	if err != nil {
		return err
	}
	bw, ok := res.Get("bandwidth")
	if !ok || len(bw.Points) == 0 || bw.Points[0].Y <= 0 {
		return fmt.Errorf("job %s: empty result", v.ID)
	}
	return nil
}

// recordView samples the daemon-side stage breakdown of one job and the
// model figures of its result (traced phase only).
func recordView(b *bench, c *service.Client, v service.JobView, lat time.Duration) error {
	sv, err := c.Spans(context.Background(), v.ID)
	if err != nil {
		return err
	}
	recordSpans(b, sv)
	b.sample("service.http_overhead_ms", float64(lat.Microseconds())/1e3-v.ElapsedMs)
	res, err := v.Decode()
	if err != nil {
		return err
	}
	recordTrafficModel(b, res)
	if !v.Cached {
		for _, st := range sv.Stages {
			if st.Name == "running" && st.DurMs > 0 {
				// At full fidelity the traffic experiment simulates the
				// core workloads' warm-up and window.
				b.sample("sim.us_per_s", (coreWarmup+coreWindow).Microseconds()/(st.DurMs/1e3))
			}
		}
	}
	return nil
}

// recordSpans samples a job's time queued, simulating and marshalling
// inside the daemon.
func recordSpans(b *bench, sv service.SpanView) {
	for _, st := range sv.Stages {
		switch st.Name {
		case "queued":
			b.sample("service.queue_wait_ms", st.DurMs)
		case "running":
			b.sample("service.run_ms", st.DurMs)
		case "marshal":
			b.sample("service.marshal_ms", st.DurMs)
		}
	}
}

func recordTrafficModel(b *bench, res hmcsim.Result) {
	if s, ok := res.Get("bandwidth"); ok && len(s.Points) > 0 {
		b.sample("model.gbps", s.Points[0].Y)
	}
	if s, ok := res.Get("avg-latency"); ok && len(s.Points) > 0 {
		b.sample("model.lat_avg_ns", s.Points[0].Y)
	}
}

// matchesLocal reports whether a daemon's result for spec equals, byte
// for byte up to JSON whitespace, the result of running spec in-process
// as hmcsim without -server does.
func matchesLocal(spec hmcsim.Spec, remote json.RawMessage) (bool, error) {
	o := spec.Options
	o.Workers = 1
	res, err := exp.Run(context.Background(), spec.Exp, o)
	if err != nil {
		return false, err
	}
	local, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, remote); err != nil {
		return false, err
	}
	return bytes.Equal(compact.Bytes(), local), nil
}

// startServeCold sets up serve-cold: a client submits cold jobs, every
// one a distinct seed, to a daemon. A rep is one job, from Submit to its
// terminal view.
func startServeCold(b *bench) (*session, error) {
	d := startDaemon()
	c := d.client
	var first *service.JobView // the first timed job, checked after the loop
	rep := func(i, span int) error {
		spec := serveSpec(jobSeed(b.opt.seed, 0, i+1))
		v, lat, err := submit(b, c, spec, span, i)
		if err != nil {
			return err
		}
		if v.Cached {
			return fmt.Errorf("job %s: cold job served from the cache", v.ID)
		}
		if i < 0 {
			// The warm-up job is the same spec in every set-up; it must
			// match a local run of that spec.
			if ok, err := matchesLocal(spec, v.Result); err != nil || !ok {
				return fmt.Errorf("job %s: daemon result differs from the local run (%v)", v.ID, err)
			}
			return b.agree("warm-up job", sha(string(v.Result)))
		}
		if first == nil {
			first = &v
		}
		if b.traced {
			return recordView(b, c, v, lat)
		}
		return nil
	}
	after := func() error {
		d.recordStats(b)
		if first == nil {
			return nil
		}
		v := *first
		first = nil
		if ok, err := matchesLocal(v.Spec, v.Result); err != nil || !ok {
			return fmt.Errorf("job %s: daemon result differs from the local run (%v)", v.ID, err)
		}
		return nil
	}
	return &session{rep: rep, after: after, close: d.close}, nil
}

// serve-warm caches warmSpecs specs during set-up; a rep resubmits them
// warmBurst times in turn, about as long as a core workload's rep, so
// that the host-speed probe around each rep costs as little of the loop.
const (
	warmSpecs = 4
	warmBurst = 500
)

// startServeWarm sets up serve-warm: a client first runs warmSpecs cold
// jobs on a daemon, then a rep is warmBurst resubmissions of those
// specs, each answered from the cache with the cold run's exact bytes.
func startServeWarm(b *bench) (*session, error) {
	d := startDaemon()
	c := d.client
	var specs []hmcsim.Spec
	var cold [][]byte
	for j := 0; j < warmSpecs; j++ {
		spec := serveSpec(jobSeed(b.opt.seed, 10, j))
		v, _, err := submit(b, c, spec, 0, -1)
		if err == nil {
			err = b.agree(fmt.Sprintf("cold job %d", j), sha(string(v.Result)))
		}
		if err != nil {
			d.close()
			return nil, err
		}
		specs = append(specs, spec)
		cold = append(cold, v.Result)
	}
	rep := func(i, span int) error {
		for k := 0; k < warmBurst; k++ {
			j := k % warmSpecs
			v, lat, err := submit(b, c, specs[j], span, i)
			if err != nil {
				return err
			}
			if !v.Cached || !bytes.Equal(v.Result, cold[j]) {
				return fmt.Errorf("job %s: resubmission not served byte-identically from the cache", v.ID)
			}
			if b.traced {
				if err := recordView(b, c, v, lat); err != nil {
					return err
				}
			}
		}
		return nil
	}
	after := func() error {
		d.recordStats(b)
		return nil
	}
	return &session{rep: rep, after: after, close: d.close}, nil
}

// fleetSpecs is the size of a serve-fleet batch. A batch of 4 lasts
// about 0.3 s, so an 8 s run holds about twenty, enough for a steady
// median.
const fleetSpecs = 4

// startServeFleet sets up serve-fleet: a service.Fleet over a daemon,
// one job in flight, streaming progress over SSE as hmcsim -server does.
// A rep is one Fleet.Run of fleetSpecs fresh specs.
func startServeFleet(b *bench) (*session, error) {
	d := startDaemon()
	fleet := &service.Fleet{
		Clients:     []*service.Client{d.client},
		MaxInflight: 1,
		OnProgress:  func(hmcsim.Spec, service.JobProgress) {},
		OnSpans: func(_ string, _ hmcsim.Spec, sv service.SpanView) {
			if b.traced {
				recordSpans(b, sv)
			}
		},
	}
	const n = fleetSpecs
	rep := func(i, span int) error {
		specs := make([]hmcsim.Spec, n)
		for j := range specs {
			specs[j] = serveSpec(jobSeed(b.opt.seed, 20, (i+1)*n+j))
		}
		id := b.tr.begin("service.Fleet.Run", span, i)
		views, err := fleet.Run(context.Background(), specs)
		b.tr.end(id)
		if err != nil {
			return err
		}
		var all bytes.Buffer
		for _, v := range views {
			if err := checkView(v); err != nil {
				return err
			}
			all.Write(v.Result)
			if b.traced {
				res, err := v.Decode()
				if err != nil {
					return err
				}
				recordTrafficModel(b, res)
			}
		}
		if i < 0 {
			return b.agree("warm-up batch", sha(all.String()))
		}
		return nil
	}
	after := func() error {
		d.recordStats(b)
		return nil
	}
	return &session{rep: rep, after: after, close: d.close}, nil
}
