package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/solver"
)

// maxBodyBytes bounds request bodies before JSON decoding: a graph of
// MaxNodes nodes fits comfortably, anything bigger is rejected with 413 by
// MaxBytesReader before it can balloon memory.
const maxBodyBytes = 64 << 20

// Handler returns the service mux:
//
//	GET   /healthz               liveness + drain state (503 while draining)
//	GET   /metrics               obs.Registry snapshot (same registry as the
//	                             service counters — one scrape shows everything)
//	POST  /v1/schedule           compute (or fetch) a schedule; ?async via body
//	PATCH /v1/schedule/{fp}      apply a live graph delta against the cached
//	                             schedule for graph fingerprint fp: plans a
//	                             verified overlap transition and invalidates
//	                             the superseded entries
//	GET   /v1/jobs/{key}         poll an async job
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.Handle("GET /metrics", s.cfg.Registry)
	mux.HandleFunc("POST /v1/schedule", s.handleSchedule)
	mux.HandleFunc("PATCH /v1/schedule/{fp}", s.handlePatch)
	mux.HandleFunc("GET /v1/jobs/{key}", s.handleJob)
	return mux
}

// response is the HTTP envelope around a Result: the immutable cached
// payload plus per-delivery metadata.
type response struct {
	*Result
	Cached    bool `json:"cached"`
	Coalesced bool `json:"coalesced,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // best-effort over HTTP
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	status := http.StatusOK
	state := "ok"
	if s.Draining() {
		status = http.StatusServiceUnavailable
		state = "draining"
	}
	s.mu.Lock()
	pending := len(s.pending)
	s.mu.Unlock()
	writeJSON(w, status, map[string]any{
		"status":      state,
		"queue_depth": s.pool.QueueLen(),
		"pending":     pending,
	})
}

// bodyPool recycles the buffers request bodies are read into. A buffer goes
// back to the pool when its handler returns, so nothing decoded from a body
// may alias it: encoding/json copies strings, and graph.EdgeList parses
// integers.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readBody reads r's body, capped at maxBodyBytes, into a buffer from
// bodyPool; the caller puts it back. The buffer is not presized from
// Content-Length, which a client can set to the cap and then send nothing.
// On failure readBody has answered 413 (over the cap) or 400 and returns
// nil.
func readBody(w http.ResponseWriter, r *http.Request) *bytes.Buffer {
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes)); err != nil {
		bodyPool.Put(buf)
		writeError(w, errorStatus(err), "reading request: %v", err)
		return nil
	}
	return buf
}

// decodeStrict decodes the JSON object in body into v, rejecting unknown
// fields and anything but whitespace after the object.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decoding request: %w", err)
	}
	if dec.Decode(&struct{}{}) != io.EOF {
		return errors.New("decoding request: data after the JSON object")
	}
	return nil
}

// decodeRequest reads and strictly decodes the body of a PATCH request
// into v. On failure it has answered the error and returns false.
func decodeRequest(w http.ResponseWriter, r *http.Request, v any) bool {
	body := readBody(w, r)
	if body == nil {
		return false
	}
	defer bodyPool.Put(body)
	if err := decodeStrict(body.Bytes(), v); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return false
	}
	return true
}

// errorStatus maps a request error onto HTTP: a body over maxBodyBytes or a
// graph over the node cap is 413, anything else 400.
func errorStatus(err error) int {
	var tooBig *http.MaxBytesError
	var tooLarge errTooLarge
	if errors.As(err, &tooBig) || errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// handleSchedule serves POST /v1/schedule. A body whose SHA-256 is the
// alias of a cached entry is answered from that entry without being
// decoded; any other body takes the full path — decode, resolve, key,
// admission — and becomes the entry's alias if that path answers 200 from
// the cache or a completed job.
func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	body := readBody(w, r)
	if body == nil {
		return
	}
	defer bodyPool.Put(body)
	digest := sha256.Sum256(body.Bytes())
	if res := s.aliasHit(digest); res != nil {
		writeJSON(w, http.StatusOK, response{Result: res, Cached: true})
		return
	}
	req, inst, key, err := parseSchedule(body.Bytes(), s.cfg.MaxNodes)
	if err != nil {
		writeError(w, errorStatus(err), "%v", err)
		return
	}
	run := func(cancel func() bool) (*Result, error) {
		width := s.cfg.RaceWidth
		if width > 1 {
			s.met.solverRaced.Inc()
		} else {
			s.met.solverSequential.Inc()
		}
		defs := SolveDefaults{Budget: s.cfg.DefaultBudget, TimeBudget: s.cfg.DefaultTimeBudget}
		ctx := &scheduleCtx{inst: inst}
		var err error
		if req.Shards > 1 {
			// resolve admits no partitioner but bfs.
			if ctx.part, err = shard.BFS(inst.Graph, req.Shards, req.seed()); err != nil {
				return nil, err
			}
			opt := shard.Options{Spec: req.spec(), Solver: req.options(width, defs, s.hooks, cancel),
				Seed: req.seed(), TransientPool: true, Cache: shardCache{s}}
			ctx.sched, err = s.solveShards(inst, ctx.part, opt)
			// A PATCH replays the options under its own cancel.
			opt.Solver.Cancel, opt.Solver.Deadline, opt.Solver.Src = nil, time.Time{}, nil
			ctx.shards = opt
		} else {
			ctx.sched, err = Solve(inst, req, width, defs, s.hooks, cancel)
		}
		if err != nil {
			return nil, err
		}
		return newResult(key, "schedule", req.Algorithm, ctx)
	}
	if s.dispatch(w, r, key, "schedule",
		timeoutFromMS(req.TimeoutMS, s.cfg.DefaultTimeout), req.Async, run) {
		s.mu.Lock()
		s.cache.alias(digest, key)
		s.mu.Unlock()
	}
}

// aliasHit returns the cached result whose request body had the given
// SHA-256, counting it as a request, a cache hit and an alias hit, or nil.
// While the server drains it returns nil, so the full path answers 503.
func (s *Server) aliasHit(digest [32]byte) *Result {
	if s.draining.Load() {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	res, ok := s.cache.getAlias(digest)
	if !ok {
		return nil
	}
	s.met.requests.Inc()
	s.met.cacheHits.Inc()
	s.met.aliasHits.Inc()
	return res
}

// dispatch is the shared tail of the body endpoints: admission, then either
// the async 202 or a bounded wait for the (possibly coalesced) job. It
// reports whether it answered 200 with a result: a cache hit, or a
// completed job, whose result is cached by then.
func (s *Server) dispatch(w http.ResponseWriter, r *http.Request,
	key, kind string, timeout time.Duration, async bool,
	run func(cancel func() bool) (*Result, error)) bool {

	res, j, coalesced, status := s.admit(key, kind, timeout, run)
	switch status {
	case http.StatusTooManyRequests:
		w.Header().Set("Retry-After", "1")
		writeError(w, status, "server at capacity; retry later")
		return false
	case http.StatusServiceUnavailable:
		writeError(w, status, "server is draining; not accepting new work")
		return false
	}
	if res != nil {
		writeJSON(w, http.StatusOK, response{Result: res, Cached: true})
		return true
	}
	if async {
		writeJSON(w, http.StatusAccepted, map[string]string{
			"key":    key,
			"kind":   kind,
			"status": "accepted",
			"poll":   "/v1/jobs/" + key,
		})
		return false
	}

	// Synchronous wait, bounded by the caller's own patience: the job keeps
	// its deadline either way, so an abandoned wait does not abandon the
	// computation (it finishes and fills the cache).
	ctx, cancelWait := context.WithTimeout(r.Context(), timeout)
	defer cancelWait()
	select {
	case <-j.done:
		if j.err != nil {
			s.writeJobError(w, j.err)
			return false
		}
		writeJSON(w, http.StatusOK, response{Result: j.result, Coalesced: coalesced})
		return true
	case <-ctx.Done():
		writeJSON(w, http.StatusGatewayTimeout, map[string]string{
			"error": "deadline exceeded waiting for result",
			"key":   key,
			"poll":  "/v1/jobs/" + key,
		})
		return false
	}
}

// writeJobError maps a failed job onto HTTP: cancellation (the
// solver.ErrCanceled contract) is the caller's deadline → 504; everything
// else — including injected chaos worker faults — is a server failure → 500.
func (s *Server) writeJobError(w http.ResponseWriter, err error) {
	if errors.Is(err, solver.ErrCanceled) {
		writeError(w, http.StatusGatewayTimeout, "%v", err)
		return
	}
	writeError(w, http.StatusInternalServerError, "%v", err)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	state, kind, res, ok := s.jobStatus(key)
	if !ok {
		writeError(w, http.StatusNotFound, "no job or cached result under key %s", key)
		return
	}
	if res != nil {
		writeJSON(w, http.StatusOK, response{Result: res, Cached: true})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"key": key, "kind": kind, "status": state})
}

// ObsMux is the observability-only mux for processes that are not the
// scheduling service but still want the standard endpoints (ltsim's
// -obs-addr): /healthz always reports ok, /metrics serves the registry
// snapshot, and the root path keeps serving the full snapshot for
// compatibility with the pre-serve ltsim endpoint.
func ObsMux(reg *obs.Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.Handle("GET /metrics", reg)
	mux.Handle("/", reg)
	return mux
}

// HTTPServer pairs a bound listener with an http.Server so every binary
// gets the same lifecycle: StartHTTP binds and serves in the background
// (":0" picks a free port — Addr tells you which), Stop shuts down
// gracefully within ctx and hard-closes on expiry.
type HTTPServer struct {
	ln  net.Listener
	srv *http.Server
}

// StartHTTP binds addr and serves h until Stop.
func StartHTTP(addr string, h http.Handler) (*HTTPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	s := &HTTPServer{ln: ln, srv: &http.Server{Handler: h}}
	go s.srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Stop
	return s, nil
}

// Addr returns the bound address (host:port), useful with ":0".
func (s *HTTPServer) Addr() string { return s.ln.Addr().String() }

// Stop gracefully shuts the HTTP layer down: stop accepting connections,
// wait for in-flight handlers up to ctx, then hard-close stragglers.
func (s *HTTPServer) Stop(ctx context.Context) error {
	err := s.srv.Shutdown(ctx)
	if err != nil {
		s.srv.Close()
	}
	return err
}
