package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/serve"
)

// sample is one request as a client saw it.
type sample struct {
	rq     *request
	ms     float64 // send to full body read
	status int
	body   []byte
	err    error // transport failure
}

// service is one fresh in-process server on a loopback port with the
// closed-loop clients' shared HTTP client (one connection per client).
type service struct {
	srv  *serve.Server
	hs   *serve.HTTPServer
	hc   *http.Client
	base string
}

func startService() (*service, error) {
	srv := serve.New(serve.Config{})
	hs, err := serve.StartHTTP("127.0.0.1:0", srv.Handler())
	if err != nil {
		return nil, errors.Join(err, srv.Shutdown(context.Background()))
	}
	tr := &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}
	return &service{srv: srv, hs: hs, hc: &http.Client{Transport: tr}, base: "http://" + hs.Addr()}, nil
}

// stop shuts the HTTP layer and the worker pool down and waits for both.
func (s *service) stop() error {
	s.hc.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return errors.Join(s.hs.Stop(ctx), s.srv.Shutdown(ctx))
}

func (s *service) send(rq *request) sample {
	req, err := http.NewRequest(rq.method, s.base+rq.path, rq.body())
	if err != nil {
		return sample{rq: rq, err: err}
	}
	req.ContentLength = rq.size()
	req.Header.Set("Content-Type", "application/json")
	t := time.Now()
	resp, err := s.hc.Do(req)
	if err != nil {
		return sample{rq: rq, err: err}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return sample{rq: rq, ms: msSince(t), status: resp.StatusCode, body: body, err: err}
}

// phase runs every client's ops as a closed loop, all clients at once, and
// returns when the last reply has been read.
func (s *service) phase(ops [clients][]*request) [clients][]sample {
	var out [clients][]sample
	var wg sync.WaitGroup
	for c := range ops {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out[c] = make([]sample, 0, len(ops[c]))
			for _, rq := range ops[c] {
				out[c] = append(out[c], s.send(rq))
			}
		}(c)
	}
	wg.Wait()
	return out
}

// metricsSnapshot scrapes GET /metrics.
func (s *service) metricsSnapshot() (map[string]obs.Snapshot, error) {
	resp, err := s.hc.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var snaps []obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snaps); err != nil {
		return nil, fmt.Errorf("decoding /metrics: %w", err)
	}
	out := make(map[string]obs.Snapshot, len(snaps))
	for _, sn := range snaps {
		out[sn.Name] = sn
	}
	return out, nil
}

// roundStats is what one e2e round measured.
type roundStats struct {
	setupS    float64 // input generation, server start, priming and warm-up
	windowS   float64
	latencies []float64 // timed requests, ms
	timed     int
	timedOK   int
	sentBytes int64 // request bodies of the timed window
	attempted int   // every request of the round, priming and warm-up included
	failed    int
	quality   float64 // mean lifetime ratio over the distinct instances answered
	allocB    float64 // heap bytes allocated during the timed window
	gcCycles  float64 // GC cycles completed during the timed window
	cpuS      float64 // process CPU time during the timed window
	counters  map[string]obs.Snapshot
	errs      []error
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

func runtimeCounters() (allocBytes, gcCycles float64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()), float64(s[1].Value.Uint64())
}

// splitOps returns ops [lo, hi) of every client's sequence (hi < 0: to the
// end).
func splitOps(in *inputs, lo, hi int) [clients][]*request {
	var out [clients][]*request
	for c, ops := range in.clients {
		if hi < 0 {
			out[c] = ops[lo:]
		} else {
			out[c] = ops[lo:hi]
		}
	}
	return out
}

// runRound sets up a fresh server, primes and warms it, measures one timed
// window of both closed-loop clients, scrapes the server counters, and then,
// outside the timing, checks every response.
func runRound(w *workload, seed uint64, timed int) (*roundStats, error) {
	t0 := time.Now()
	runtime.GC()
	in, err := w.gen(rng.New(seed), timed)
	if err != nil {
		return nil, err
	}
	svc, err := startService()
	if err != nil {
		return nil, err
	}
	var prime [clients][]*request
	for i, rq := range in.prime {
		prime[i%clients] = append(prime[i%clients], rq)
	}
	primed := svc.phase(prime)
	warmed := svc.phase(splitOps(in, 0, in.warm))
	st := &roundStats{setupS: time.Since(t0).Seconds()}

	alloc0, gc0 := runtimeCounters()
	cpu0 := cpuSeconds()
	start := time.Now()
	measured := svc.phase(splitOps(in, in.warm, -1))
	st.windowS = time.Since(start).Seconds()
	st.cpuS = cpuSeconds() - cpu0
	alloc1, gc1 := runtimeCounters()
	st.allocB, st.gcCycles = alloc1-alloc0, gc1-gc0

	st.counters, err = svc.metricsSnapshot()
	if stopErr := svc.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return nil, err
	}

	vf := newVerifier()
	for c := range measured {
		for _, s := range primed[c] {
			st.add(vf, c, s, false)
		}
		for _, s := range warmed[c] {
			st.add(vf, c, s, false)
		}
		for _, s := range measured[c] {
			st.add(vf, c, s, true)
		}
	}
	st.quality = vf.meanQuality()
	return st, nil
}

// add checks one response (client c's, in send order) and accounts for it.
func (st *roundStats) add(vf *verifier, c int, s sample, timed bool) {
	st.attempted++
	if timed {
		st.timed++
		st.sentBytes += s.rq.size()
		st.latencies = append(st.latencies, s.ms)
	}
	err := s.err
	if err == nil {
		err = vf.check(c, s.rq, s.status, s.body)
	}
	switch {
	case err != nil:
		st.failed++
		if len(st.errs) < 5 {
			st.errs = append(st.errs, err)
		}
	case timed:
		st.timedOK++
	}
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }
