// Package obs is the engine's observability layer: lock-cheap
// fixed-bucket histograms, a Prometheus text-exposition registry, a
// Chrome trace_event span recorder, structured-logging setup, and a
// core.Tracer implementation tying them to the check pipeline.
//
// The paper's whole argument is *where the time goes* — which checks
// fall through to case analysis, how many propagations and backtracks
// each stage burns (Table 1). Flat totals answer "how much"; this
// package also answers the distributional questions a serving
// deployment actually asks: per-stage latency percentiles
// (ltta_stage_duration_seconds), how skewed the
// propagation cost is across checks (ltta_check_propagations), and an
// exportable per-worker timeline (SpanRecorder) that renders the
// parallel sweep in Perfetto.
//
// Everything here is stdlib-only and safe for concurrent use; the
// histogram hot path is a bounded binary search plus two atomic adds,
// so one shared Tracer can sit behind every worker of a parallel
// RunAll without serialising them.
package obs
