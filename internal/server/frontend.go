package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/obs"
)

// executor is what differs between the two lttad tiers behind the
// shared front end: the daemon's local pool (Server, batch.go) and the
// coordinator's shard dispatcher (Coordinator, coordbatch.go).
type executor interface {
	// upload registers a decoded circuit upload under its content
	// address and reports whether this call created the entry.
	upload(up *UploadRequest) (api.Hash, *circuit.Circuit, bool, error)
	// lookup pins the circuit registered under h for one batch.
	lookup(h api.Hash) (circuitRef, bool)
	// inline resolves the netlist an inline submission carries.
	inline(req *Request) (circuitRef, error)
	// execute runs an admitted batch, emitting its events on em when
	// the client streams (em is nil otherwise). It returns an error
	// only before anything was emitted.
	execute(ctx context.Context, j *job, em *emitter) (*Response, *apiError)
	// isReady reports whether the tier can serve a batch: the daemon's
	// warm-up canary passed, or the coordinator found a live worker.
	isReady() bool
	// workerCount is the worker count /healthz and /readyz report.
	workerCount() int
	// metrics declares the tier's own counters and gauges.
	metrics() []metric
}

// circuitRef is the circuit a submission resolved to, held until its
// response is written.
type circuitRef interface {
	Circuit() *circuit.Circuit
	Hash() api.Hash // empty for a daemon's inline circuit
	Release()
}

// job is one admitted batch as the front end hands it to its executor.
type job struct {
	req    *Request
	ref    circuitRef
	c      *circuit.Circuit
	checks []resolvedCheck
	id     int64
	log    *slog.Logger      // request-scoped: carries the batch id and trace id
	trace  *api.TraceContext // completed trace context (id always set)
}

// metric declares one counter or gauge once for both exposition
// endpoints: /metrics renders name, labels and help, /metrics.json
// renders key.
type metric struct {
	name   string
	labels obs.Labels
	help   string
	key    string
	gauge  bool
	value  func() int64
}

// frontConfig is what a tier tells the front end about itself. The
// fields shared with Config and CoordConfig take their defaults here.
type frontConfig struct {
	ns            string // Prometheus namespace of the front-end counters
	noun          string // how drain rejections name the tier
	queueDepth    int
	maxBody       int64
	maxChecks     int
	batchTimeout  time.Duration
	retryAfter    time.Duration
	log           *slog.Logger
	flightLast    int
	flightSlowest int
	// checkSeconds is the check-latency histogram whose exemplars
	// /debug/checks serves.
	checkSeconds *obs.Histogram
	// eng is the engine tracer behind the /metrics.json engine block;
	// nil on a coordinator, which runs no checks.
	eng *obs.Tracer
}

// frontEnd is the HTTP tier both lttad roles share: routing, request
// decoding, rejections, bounded admission, the drain state machine,
// batch contexts, response writing, health, and both metric endpoints.
//
// Lifecycle: accepting → draining → stopped. Accepting, submissions
// are admitted up to queueDepth concurrent batches (429 beyond).
// Draining (entered by BeginDrain or Shutdown), every new submission
// is rejected with 503 while admitted batches run to completion; at
// the drain deadline the base context cancels what is left, so each
// check still produces exactly one terminal result (verdict C).
type frontEnd struct {
	exec executor
	mux  *http.ServeMux
	log  *slog.Logger

	noun         string
	queueDepth   int
	maxBody      int64
	maxChecks    int
	batchTimeout time.Duration
	retryAfter   string // Retry-After seconds on 429 and 503

	slots    chan struct{} // admission tokens, cap queueDepth
	drainMu  sync.Mutex
	draining bool // guarded by drainMu
	// inflight counts admitted batches. It is joined only in enter,
	// under drainMu and while not draining, so Shutdown's Wait never
	// races an admission.
	inflight sync.WaitGroup

	baseCtx      context.Context // cancelled at the drain deadline
	baseCancel   context.CancelFunc
	shutdownOnce sync.Once

	batchSeq     atomic.Int64 // batch ids for request-scoped log attrs
	reg          *obs.Registry
	metricDecls  []metric
	flight       *obs.FlightRecorder // always-on last-N/slowest-K record behind /debug/checks
	checkSeconds *obs.Histogram
	eng          *obs.Tracer

	accepted      atomic.Int64
	rejectedFull  atomic.Int64
	rejectedDrain atomic.Int64
	badRequests   atomic.Int64
	streams       atomic.Int64
}

func newFrontEnd(fc frontConfig, exec executor) *frontEnd {
	if fc.queueDepth <= 0 {
		fc.queueDepth = 64
	}
	if fc.maxBody <= 0 {
		fc.maxBody = 32 << 20
	}
	if fc.maxChecks <= 0 {
		fc.maxChecks = 100000
	}
	if fc.log == nil {
		fc.log = obs.NopLogger()
	}
	f := &frontEnd{
		exec: exec, mux: http.NewServeMux(), log: fc.log,
		noun: fc.noun, queueDepth: fc.queueDepth, maxBody: fc.maxBody, maxChecks: fc.maxChecks,
		batchTimeout: fc.batchTimeout,
		retryAfter:   strconv.Itoa(max(int(fc.retryAfter/time.Second), 1)),
		slots:        make(chan struct{}, fc.queueDepth),
		reg:          obs.NewRegistry(),
		flight:       obs.NewFlightRecorder(fc.flightLast, fc.flightSlowest),
		checkSeconds: fc.checkSeconds,
		eng:          fc.eng,
	}
	f.baseCtx, f.baseCancel = context.WithCancel(context.Background())
	if f.eng != nil {
		f.eng.MustRegister(f.reg, "ltta")
	}
	f.metricDecls = append(f.frontMetrics(fc.ns), exec.metrics()...)
	for _, m := range f.metricDecls {
		if m.gauge {
			value := m.value
			f.reg.GaugeFunc(m.name, m.help, m.labels, func() float64 { return float64(value()) })
		} else {
			f.reg.CounterFunc(m.name, m.help, m.labels, m.value)
		}
	}
	f.mux.HandleFunc("/v1/check", f.handleCheck)
	f.mux.HandleFunc("PUT /v1/circuits", f.handleUpload)
	f.mux.HandleFunc("POST /v1/circuits/{hash}/check", f.handleCheckByHash)
	f.mux.HandleFunc("/healthz", f.handleHealthz)
	f.mux.HandleFunc("/readyz", f.handleReadyz)
	f.mux.HandleFunc("/metrics", f.handleMetricsProm)
	f.mux.HandleFunc("/metrics.json", f.handleMetricsJSON)
	f.mux.HandleFunc("GET /debug/checks", f.handleDebugChecks)
	return f
}

// frontMetrics declares the admission counters every tier exposes.
func (f *frontEnd) frontMetrics(ns string) []metric {
	const rejected = "Batches rejected by backpressure."
	return []metric{
		{name: ns + "_batches_accepted_total", help: "Batches admitted past the bounded queue.",
			key: "acceptedBatches", value: f.accepted.Load},
		{name: ns + "_batches_rejected_total", labels: obs.Labels{"reason": "queue_full"}, help: rejected,
			key: "rejectedFull", value: f.rejectedFull.Load},
		{name: ns + "_batches_rejected_total", labels: obs.Labels{"reason": "draining"}, help: rejected,
			key: "rejectedDraining", value: f.rejectedDrain.Load},
		{name: ns + "_bad_requests_total", help: "Submissions rejected before admission (parse/validate).",
			key: "badRequests", value: f.badRequests.Load},
		{name: ns + "_streams_total", help: "Batches served as NDJSON streams.",
			key: "streams", value: f.streams.Load},
		{name: ns + "_queued_batches", help: "Admitted batches currently holding a queue slot.",
			key: "queuedBatches", gauge: true, value: func() int64 { return int64(len(f.slots)) }},
		{name: ns + "_queue_depth", help: "Admission queue capacity.",
			key: "queueDepth", gauge: true, value: func() int64 { return int64(f.queueDepth) }},
	}
}

func (f *frontEnd) ServeHTTP(w http.ResponseWriter, r *http.Request) { f.mux.ServeHTTP(w, r) }

// BeginDrain moves the tier to draining: new submissions are rejected
// with 503 + Retry-After immediately; admitted batches keep running.
// Idempotent.
func (f *frontEnd) BeginDrain() {
	f.drainMu.Lock()
	f.draining = true
	f.drainMu.Unlock()
}

func (f *frontEnd) isDraining() bool {
	f.drainMu.Lock()
	defer f.drainMu.Unlock()
	return f.draining
}

// enter joins the in-flight set unless the tier is draining. The test
// and the join are one step under drainMu, and BeginDrain flips
// draining under drainMu before Shutdown waits, so a submission whose
// body was still arriving when the drain began is rejected instead of
// admitted after the wait.
func (f *frontEnd) enter() bool {
	f.drainMu.Lock()
	defer f.drainMu.Unlock()
	if f.draining {
		return false
	}
	f.inflight.Add(1)
	return true
}

// shutdown drains the tier: it stops admitting, waits for the admitted
// batches, and cancels them through the base context if ctx expires
// first. stop, the tier's own teardown, runs once after every admitted
// batch has finished. It returns ctx.Err() when the deadline forced
// cancellation.
func (f *frontEnd) shutdown(ctx context.Context, stop func()) error {
	f.BeginDrain()
	var err error
	f.shutdownOnce.Do(func() {
		done := make(chan struct{})
		go func() {
			f.inflight.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-ctx.Done():
			err = ctx.Err()
			f.baseCancel()
			<-done
		}
		f.baseCancel()
		stop()
	})
	return err
}

// writeJSON answers with one JSON document.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError emits the structured error envelope.
func writeError(w http.ResponseWriter, e *apiError) {
	writeJSON(w, e.status, ErrorBody{Error: ErrorInfo{Code: e.code, Message: e.msg, Hash: e.hash}})
}

// rejectDraining answers a submission arriving during drain.
func (f *frontEnd) rejectDraining(ctx context.Context, w http.ResponseWriter, what string) {
	f.rejectedDrain.Add(1)
	f.log.LogAttrs(ctx, slog.LevelWarn, what+" rejected", slog.String("reason", "draining"))
	w.Header().Set("Retry-After", f.retryAfter)
	writeError(w, &apiError{status: http.StatusServiceUnavailable, code: "draining",
		msg: f.noun + " is draining; resubmit elsewhere"})
}

// rejectBadRequest tallies, logs, and answers a pre-admission error.
func (f *frontEnd) rejectBadRequest(ctx context.Context, w http.ResponseWriter, e *apiError) {
	f.badRequests.Add(1)
	f.log.LogAttrs(ctx, slog.LevelInfo, "bad request",
		slog.String("code", e.code), slog.String("message", e.msg))
	writeError(w, e)
}

// decodeCheck reads a check-request body under the body cap.
func (f *frontEnd) decodeCheck(w http.ResponseWriter, r *http.Request, byHash bool) (*Request, *apiError) {
	return decodeRequest(http.MaxBytesReader(w, r.Body, f.maxBody), byHash)
}

// handleCheck is POST /v1/check: decode, resolve the inline netlist,
// admit, execute, respond.
func (f *frontEnd) handleCheck(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, &apiError{status: http.StatusMethodNotAllowed, code: "method_not_allowed",
			msg: "POST required"})
		return
	}
	if f.isDraining() {
		f.rejectDraining(r.Context(), w, "batch")
		return
	}
	req, apiErr := f.decodeCheck(w, r, false)
	if apiErr != nil {
		f.rejectBadRequest(r.Context(), w, apiErr)
		return
	}
	ref, err := f.exec.inline(req)
	if err != nil {
		f.rejectBadRequest(r.Context(), w, uploadError(err))
		return
	}
	defer ref.Release()
	f.admitAndRun(w, r, req, ref)
}

// handleCheckByHash is POST /v1/circuits/{hash}/check: run a batch
// against a previously uploaded circuit. The request carries no
// netlist, and the circuit stays pinned until the response is written.
func (f *frontEnd) handleCheckByHash(w http.ResponseWriter, r *http.Request) {
	if f.isDraining() {
		f.rejectDraining(r.Context(), w, "batch")
		return
	}
	h := api.Hash(r.PathValue("hash"))
	if !h.Valid() {
		f.rejectBadRequest(r.Context(), w, badRequest("bad_hash",
			"malformed circuit hash %q (want sha256:<64 hex>)", string(h)))
		return
	}
	req, apiErr := f.decodeCheck(w, r, true)
	if apiErr != nil {
		f.rejectBadRequest(r.Context(), w, apiErr)
		return
	}
	ref, ok := f.exec.lookup(h)
	if !ok {
		f.badRequests.Add(1)
		f.log.LogAttrs(r.Context(), slog.LevelInfo, "unknown hash", slog.String("hash", string(h)))
		writeError(w, &apiError{status: http.StatusNotFound, code: "unknown_hash",
			msg:  "no circuit registered under this hash; PUT /v1/circuits and retry",
			hash: h})
		return
	}
	defer ref.Release()
	f.admitAndRun(w, r, req, ref)
}

// handleUpload is PUT /v1/circuits: canonicalize the upload, hash it,
// and register the parsed circuit under its content address. The call
// is idempotent — re-uploading a known circuit costs one hash and zero
// parses — and takes no admission slot: uploads are cheap bookkeeping
// next to check batches.
func (f *frontEnd) handleUpload(w http.ResponseWriter, r *http.Request) {
	if f.isDraining() {
		f.rejectDraining(r.Context(), w, "upload")
		return
	}
	var up UploadRequest
	if apiErr := decodeBody(http.MaxBytesReader(w, r.Body, f.maxBody), &up); apiErr != nil {
		f.rejectBadRequest(r.Context(), w, apiErr)
		return
	}
	if !api.AcceptsVersion(up.V) {
		f.rejectBadRequest(r.Context(), w, unsupportedVersion(up.V))
		return
	}
	hash, c, created, err := f.exec.upload(&up)
	if err != nil {
		f.rejectBadRequest(r.Context(), w, uploadError(err))
		return
	}
	f.log.LogAttrs(r.Context(), slog.LevelInfo, "circuit upload",
		slog.String("hash", string(hash)), slog.Bool("created", created),
		slog.String("circuit", c.Name))
	status := http.StatusOK
	if created {
		status = http.StatusCreated
	}
	writeJSON(w, status, UploadResponse{V: api.Version, Hash: hash, Created: created,
		Circuit: circuitInfo(c, 0)})
}

// admitAndRun is the admission and execution half shared by the
// inline and hash-addressed routes: resolve sinks, join the in-flight
// set (or 503 when the drain began meanwhile), take a queue slot (or
// 429), build the batch context, and hand the batch to the executor.
func (f *frontEnd) admitAndRun(w http.ResponseWriter, r *http.Request, req *Request, ref circuitRef) {
	c := ref.Circuit()
	checks, apiErr := resolveChecks(c, req.Checks)
	if apiErr != nil {
		f.rejectBadRequest(r.Context(), w, apiErr)
		return
	}
	if n := batchSize(c, req, checks); n > f.maxChecks {
		f.rejectBadRequest(r.Context(), w, badRequest("too_many_checks",
			"batch expands to %d checks, cap is %d", n, f.maxChecks))
		return
	}
	if !f.enter() {
		f.rejectDraining(r.Context(), w, "batch")
		return
	}
	defer f.inflight.Done()
	select {
	case f.slots <- struct{}{}:
	default:
		f.rejectedFull.Add(1)
		f.log.LogAttrs(r.Context(), slog.LevelWarn, "batch rejected",
			slog.String("reason", "queue_full"), slog.Int("queueDepth", f.queueDepth))
		w.Header().Set("Retry-After", f.retryAfter)
		writeError(w, &apiError{status: http.StatusTooManyRequests, code: "queue_full",
			msg: fmt.Sprintf("admission queue full (%d batches)", f.queueDepth)})
		return
	}
	defer func() { <-f.slots }()
	f.accepted.Add(1)

	ctx, cancel := f.batchContext(r.Context(), req)
	defer cancel()
	j := f.newJob(req, ref, checks)
	attrs := []slog.Attr{
		slog.String("circuit", c.Name), slog.Int("checks", batchSize(c, req, checks)),
		slog.Bool("stream", req.Stream),
	}
	if h := ref.Hash(); h != "" {
		attrs = append(attrs, slog.String("hash", string(h)))
	}
	if sh := req.Shard; sh != nil {
		// Stamped by a coordinator: which cluster placement this batch
		// is (primary, requeue, or hedge dispatch).
		attrs = append(attrs,
			slog.String("coordinator", sh.Coordinator), slog.Int64("coordBatch", sh.Batch),
			slog.Int("attempt", sh.Attempt), slog.Bool("hedge", sh.Hedge))
	}
	j.log.LogAttrs(ctx, slog.LevelInfo, "batch accepted", attrs...)

	var em *emitter
	if req.Stream {
		f.streams.Add(1)
		w.Header().Set("Content-Type", "application/x-ndjson")
		em = &emitter{enc: json.NewEncoder(w), traceID: j.trace.TraceID}
		em.fl, _ = w.(http.Flusher)
	}
	resp, apiErr := f.exec.execute(ctx, j, em)
	switch {
	case apiErr != nil:
		writeError(w, apiErr)
	case em != nil:
		em.emit(Event{Type: "done", Done: &resp.Done})
	default:
		writeJSON(w, http.StatusOK, resp)
	}
}

// batchContext derives a batch's context: the base context (cancelled
// at the drain deadline), also cancelled when the client goes away,
// bounded by the smaller of the tier's and the request's batch timeout.
func (f *frontEnd) batchContext(reqCtx context.Context, req *Request) (context.Context, context.CancelFunc) {
	ctx, stop := mergeCancel(f.baseCtx, reqCtx)
	if d := minTimeout(f.batchTimeout, time.Duration(req.TimeoutMs)*time.Millisecond); d > 0 {
		tctx, cancel := context.WithTimeout(ctx, d)
		return tctx, func() { cancel(); stop() }
	}
	return ctx, stop
}

// newJob numbers an admitted batch and completes its trace context:
// the admitting tier mints a trace id when the client sent none (or a
// malformed one), and every event, log line, and flight record of the
// batch carries it.
func (f *frontEnd) newJob(req *Request, ref circuitRef, checks []resolvedCheck) *job {
	id := f.batchSeq.Add(1)
	trace := api.EnsureTrace(req.Trace)
	logger := f.log.With(slog.Int64("batch", id), slog.String("trace_id", trace.TraceID))
	if trace.Tenant != "" {
		logger = logger.With(slog.String("tenant", trace.Tenant))
	}
	if sh := req.Shard; sh != nil && sh.Attempt > 0 {
		logger = logger.With(slog.Int("attempt", sh.Attempt))
	}
	return &job{req: req, ref: ref, c: ref.Circuit(), checks: checks, id: id, log: logger, trace: trace}
}

// writeTrace dumps one batch's timeline to dir/batch-<id>.trace.json.
func (j *job) writeTrace(ctx context.Context, dir string, t interface {
	WriteTrace(io.Writer) error
	Len() int
}) {
	path := filepath.Join(dir, "batch-"+strconv.FormatInt(j.id, 10)+".trace.json")
	f, err := os.Create(path)
	if err == nil {
		err = t.WriteTrace(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		j.log.LogAttrs(ctx, slog.LevelWarn, "trace write failed",
			slog.String("path", path), slog.String("error", err.Error()))
		return
	}
	j.log.LogAttrs(ctx, slog.LevelInfo, "trace written",
		slog.String("path", path), slog.Int("events", t.Len()))
}

// mergeCancel derives a context from a that is additionally cancelled
// when b ends (context.WithoutCancel-free two-parent merge).
func mergeCancel(a, b context.Context) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(a)
	stopCh := make(chan struct{})
	go func() {
		select {
		case <-b.Done():
			cancel()
		case <-ctx.Done():
		case <-stopCh:
		}
	}()
	return ctx, func() { close(stopCh); cancel() }
}

// minTimeout composes two optional timeouts: the smaller positive one.
func minTimeout(a, b time.Duration) time.Duration {
	switch {
	case a <= 0:
		return b
	case b <= 0:
		return a
	case a < b:
		return a
	}
	return b
}

// emitter serialises streamed events; nil for buffered responses.
// Events from concurrent producers interleave, so emission is locked.
// Every emitted event echoes the batch's trace id (unless the producer
// already stamped one).
type emitter struct {
	mu      sync.Mutex
	enc     *json.Encoder
	fl      http.Flusher
	traceID string
}

func (e *emitter) emit(ev Event) {
	if e == nil {
		return
	}
	if ev.TraceID == "" {
		ev.TraceID = e.traceID
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	_ = e.enc.Encode(ev)
	if e.fl != nil {
		e.fl.Flush()
	}
}

func (f *frontEnd) health() Health {
	h := Health{Status: "ok", Workers: f.exec.workerCount(), Queued: len(f.slots), Capacity: f.queueDepth}
	switch {
	case f.isDraining():
		h.Status = "draining"
	case !f.exec.isReady():
		h.Status = "starting"
	}
	return h
}

// handleHealthz is pure liveness: the process is up and serving HTTP,
// so it always answers 200 — the status field is informational.
// Restart-deciders probe here; load balancers probe /readyz.
func (f *frontEnd) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, f.health())
}

// handleReadyz is readiness: 503 while starting (the daemon's warm-up
// canary, the coordinator's first live worker) and from the moment
// draining begins, 200 in between — exactly the window in which a new
// submission would be admitted.
func (f *frontEnd) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	h := f.health()
	code := http.StatusOK
	if h.Status != "ok" {
		code = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", f.retryAfter)
	}
	writeJSON(w, code, h)
}

// handleMetricsProm is GET /metrics: the Prometheus text exposition —
// the tier's counters, the engine's per-stage latency and work
// histograms on a daemon, and runtime/metrics samples.
func (f *frontEnd) handleMetricsProm(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	f.reg.WritePrometheus(w)
	obs.WriteRuntimeProm(w)
}

// handleMetricsJSON is GET /metrics.json: the same counter
// declarations as a structured document, plus a daemon's engine block
// and flat engine totals, both from one snapshot of its own tracer.
func (f *frontEnd) handleMetricsJSON(w http.ResponseWriter, _ *http.Request) {
	m := Metrics{Server: make(map[string]int64, len(f.metricDecls)), Engine: map[string]int64{}}
	for _, d := range f.metricDecls {
		m.Server[d.key] = d.value()
	}
	if f.eng != nil {
		s := f.eng.Snapshot()
		m.Engine = map[string]int64{
			"ltta.checks":            s.TotalChecks(),
			"ltta.checks_refuted":    s.Checks[core.NoViolation],
			"ltta.checks_violations": s.Checks[core.ViolationFound],
			"ltta.checks_abandoned":  s.Checks[core.Abandoned],
			"ltta.checks_cancelled":  s.Checks[core.Cancelled],
			"ltta.propagations":      s.Propagations.Sum,
			"ltta.backtracks":        s.Backtracks.Sum,
			"ltta.narrowings":        s.Narrowings,
		}
		m.Checks = s.Totals()
	}
	writeJSON(w, http.StatusOK, m)
}

// debugChecksBody is the GET /debug/checks response: the flight
// recorder's snapshot plus the trace-id exemplars pinned on the check
// latency histogram (one per occupied bucket). Served identically by
// daemons and coordinators, so a cluster operator can chase one trace
// id from the coordinator's merge records into the worker that ran the
// slow check.
type debugChecksBody struct {
	obs.FlightSnapshot
	LatencyExemplars []obs.BucketExemplar `json:"latencyExemplars,omitempty"`
}

func (f *frontEnd) handleDebugChecks(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(debugChecksBody{
		FlightSnapshot:   f.flight.Snapshot(),
		LatencyExemplars: f.checkSeconds.Exemplars(),
	})
}
