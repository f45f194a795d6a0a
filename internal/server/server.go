package server

import (
	"context"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/registry"
)

// Config sizes the service. The zero value of every field selects a
// production-sane default.
type Config struct {
	// Workers is the shared check-execution pool size (default:
	// GOMAXPROCS). Every check of every in-flight batch runs on this
	// pool, so it is the server's hard CPU bound.
	Workers int
	// QueueDepth bounds admitted batches — in flight plus waiting for
	// workers (default 64). A submission beyond it is rejected with
	// 429 + Retry-After instead of queueing unboundedly.
	QueueDepth int
	// MaxBodyBytes caps the request body (default 32 MiB).
	MaxBodyBytes int64
	// MaxChecks caps the checks one batch may expand to (default
	// 100000).
	MaxChecks int
	// CheckTimeout caps each check's wall clock server-side, composing
	// with the client's checkTimeoutMs (smaller wins; 0 = none).
	CheckTimeout time.Duration
	// BatchTimeout caps each batch the same way (0 = none).
	BatchTimeout time.Duration
	// RetryAfter is the Retry-After hint on 429/503 responses
	// (default 1s).
	RetryAfter time.Duration
	// Logger receives the server's structured logs (default: discard).
	Logger *slog.Logger
	// TraceDir, when non-empty, writes a Chrome trace_event timeline
	// per batch to TraceDir/batch-<id>.trace.json (Perfetto-loadable).
	TraceDir string
	// FlightLast and FlightSlowest size the always-on flight recorder
	// behind GET /debug/checks: the last N completed checks and the K
	// slowest (defaults 256 and 32).
	FlightLast    int
	FlightSlowest int
	// RegistryMaxCircuits bounds the content-addressed circuit registry
	// behind PUT /v1/circuits (default 128 circuits; LRU beyond).
	RegistryMaxCircuits int
	// RegistryMaxBytes bounds the registry's estimated resident bytes —
	// circuits plus cached prepared state (default 1 GiB; negative =
	// unlimited).
	RegistryMaxBytes int64
}

// Server is the lttad daemon: the shared HTTP front end over a local
// check-execution pool. Create with New, serve with any http.Server
// (it implements http.Handler), stop with Shutdown. BeginDrain and
// Shutdown drive the accepting → draining → stopped lifecycle
// (DESIGN.md §10); stopped, the pool has exited.
type Server struct {
	*frontEnd
	cfg Config

	tasks     chan func()
	workersWG sync.WaitGroup
	ready     atomic.Bool // flips once the warm-up Prepare canary completes

	registry *registry.Registry // content-addressed circuits + prepared-state cache

	checksRun     atomic.Int64
	panics        atomic.Int64
	netlistParses atomic.Int64 // every parseNetlist call; warm hash checks stay at zero
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	s := &Server{
		cfg:   cfg,
		tasks: make(chan func()),
		registry: registry.New(registry.Config{
			MaxCircuits:      cfg.RegistryMaxCircuits,
			MaxResidentBytes: cfg.RegistryMaxBytes,
		}),
	}
	eng := obs.NewTracer()
	s.frontEnd = newFrontEnd(frontConfig{
		ns: "lttad", noun: "server",
		queueDepth: cfg.QueueDepth, maxBody: cfg.MaxBodyBytes, maxChecks: cfg.MaxChecks,
		batchTimeout: cfg.BatchTimeout, retryAfter: cfg.RetryAfter, log: cfg.Logger,
		flightLast: cfg.FlightLast, flightSlowest: cfg.FlightSlowest,
		checkSeconds: eng.CheckSeconds, eng: eng,
	}, s)
	for i := 0; i < cfg.Workers; i++ {
		s.workersWG.Add(1)
		go s.worker()
	}
	go s.warmup()
	return s
}

// warmup runs a tiny Prepare+check canary so /readyz only reports
// ready once the engine demonstrably works in this process — the
// first real batch then pays no first-use cost and a broken build
// never joins a load balancer.
func (s *Server) warmup() {
	c := gen.C17(10)
	v := core.Prepare(c).NewVerifier(core.Default())
	cr := v.RunAll(s.baseCtx, core.Request{Delta: v.Topological().Add(1)})
	s.ready.Store(true)
	s.log.LogAttrs(s.baseCtx, slog.LevelInfo, "ready",
		slog.String("canary", c.Name), slog.String("verdict", cr.Final.String()),
		slog.Int("workers", s.cfg.Workers), slog.Int("queueDepth", s.queueDepth))
}

func (s *Server) isReady() bool    { return s.ready.Load() }
func (s *Server) workerCount() int { return s.cfg.Workers }

// metrics declares the daemon's execution and registry counters.
func (s *Server) metrics() []metric {
	const evictions, uploads = "Registry entries evicted by capacity pressure.", "Circuit uploads by outcome."
	r := s.registry
	return []metric{
		{name: "lttad_checks_run_total", help: "Checks executed on the pool.",
			key: "checksRun", value: s.checksRun.Load},
		{name: "lttad_check_panics_total", help: "Checks that panicked and were isolated.",
			key: "panics", value: s.panics.Load},
		{name: "lttad_workers", help: "Check-execution pool size.",
			key: "workers", gauge: true, value: func() int64 { return int64(s.cfg.Workers) }},
		{name: "lttad_netlist_parses_total",
			help: "Netlist parses performed (uploads and inline checks; registry cache hits never parse).",
			key:  "netlistParses", value: s.netlistParses.Load},
		{name: "lttad_registry_hits_total",
			help: "Hash-addressed checks that found their prepared state resident.",
			key:  "registryHits", value: r.Hits},
		{name: "lttad_registry_misses_total",
			help: "Hash-addressed checks that arrived cold (led or joined a preparation).",
			key:  "registryMisses", value: r.Misses},
		{name: "lttad_registry_unknown_total",
			help: "Checks against hashes no circuit is registered under (404).",
			key:  "registryUnknown", value: r.Unknown},
		{name: "lttad_registry_prepares_total", help: "core.Prepare executions inside the registry.",
			key: "registryPrepares", value: r.Prepares},
		{name: "lttad_registry_singleflight_coalesced_total",
			help: "Cold checks that coalesced onto an in-flight preparation instead of running their own.",
			key:  "registryCoalesced", value: r.Coalesced},
		{name: "lttad_registry_evictions_total", labels: obs.Labels{"mode": "immediate"}, help: evictions,
			key: "registryEvictions", value: r.Evictions},
		{name: "lttad_registry_evictions_total", labels: obs.Labels{"mode": "deferred"}, help: evictions,
			key: "registryDeferredEvictions", value: r.DeferredEvictions},
		{name: "lttad_registry_uploads_total", labels: obs.Labels{"result": "created"}, help: uploads,
			key: "registryUploadsCreated", value: r.UploadsCreated},
		{name: "lttad_registry_uploads_total", labels: obs.Labels{"result": "existing"}, help: uploads,
			key: "registryUploadsExisting", value: r.UploadsExisting},
		{name: "lttad_registry_circuits", help: "Circuits currently registered (acquirable).",
			key: "registryCircuits", gauge: true, value: func() int64 { return int64(r.Circuits()) }},
		{name: "lttad_registry_resident_bytes",
			help: "Estimated bytes held by registered circuits and prepared state.",
			key:  "registryResidentBytes", gauge: true, value: r.ResidentBytes},
	}
}

// worker executes pool tasks; each task does its own panic isolation.
func (s *Server) worker() {
	defer s.workersWG.Done()
	for f := range s.tasks {
		f()
	}
}

// submit runs f on the pool, or synchronously reports a cancelled
// submission when ctx ends before a worker frees up. The returned
// value says whether f was (or will be) executed.
func (s *Server) submit(ctx context.Context, f func()) bool {
	select {
	case s.tasks <- f:
		return true
	case <-ctx.Done():
		return false
	}
}

// runOne executes one check on the calling pool worker with panic
// isolation: a crashing check yields a synthetic Abandoned report (the
// engine gave up; claiming N would be unsound) plus the panic message,
// and the rest of the batch is unaffected.
func (s *Server) runOne(ctx context.Context, v *core.Verifier, req core.Request) (rep *core.Report, panicMsg string) {
	defer func() {
		if p := recover(); p != nil {
			s.panics.Add(1)
			panicMsg = fmt.Sprintf("check panicked: %v", p)
			rep = &core.Report{
				Sink: req.Sink, Delta: req.Delta,
				BeforeGITD: core.PossibleViolation, AfterGITD: core.StageSkipped,
				AfterStem: core.StageSkipped, CaseAnalysis: core.StageSkipped,
				Backtracks: -1, Final: core.Abandoned,
			}
		}
	}()
	// Chain the server's engine tracer with any batch-level tracer
	// (span recording) the caller installed.
	req.Tracer = core.MultiTracer(s.eng, req.Tracer)
	rep = v.Run(ctx, req)
	s.checksRun.Add(1)
	return rep, ""
}

// Shutdown drains the server: it stops admitting work, waits for
// in-flight batches, and — if ctx expires first — cancels the
// remaining checks so every accepted check still reports exactly one
// terminal result (verdict C for the cancelled ones) and the batches
// finish promptly (the engine polls cancellation sub-millisecond).
// It returns ctx.Err() when the drain deadline forced cancellation,
// nil on a clean drain; either way all accepted work has been
// answered and the pool has exited when it returns.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.shutdown(ctx, func() { close(s.tasks) })
	s.workersWG.Wait()
	return err
}

// batchSize is the number of checks a request expands to (-1 when a
// table1 sweep discovers them during the delay search).
func batchSize(c *circuit.Circuit, req *Request, checks []resolvedCheck) int {
	if req.Sweep == nil {
		return len(checks)
	}
	if req.Sweep.Table1 {
		return -1
	}
	return len(req.Sweep.Deltas) * len(c.PrimaryOutputs())
}
