// Package api is the versioned wire vocabulary of the lttad service:
// every request and response body exchanged between internal/server
// and internal/client is declared here, once, and consumed by both
// sides. The package depends only on the standard library so the
// client never has to import the server (or the engine) to speak the
// protocol.
//
// Versioning: request and response envelopes carry an explicit "v"
// field. Version 1 is the current (and first explicit) protocol
// revision; a missing or zero "v" means 1, so bodies from pre-split
// clients keep decoding. Decoding is unknown-field tolerant in both
// directions — a v1 peer must ignore fields added by later minor
// revisions rather than reject them — and AcceptsVersion is the one
// place that decides whether an incoming major version is
// understood.
package api

import (
	"fmt"
	"strings"
)

// Version is the protocol revision this package speaks. Envelopes are
// stamped with it on encode; on decode a zero V means "pre-versioning
// body, treat as 1".
const Version = 1

// AcceptsVersion reports whether an envelope's declared version is one
// this package understands. Zero is accepted as the implicit v1.
func AcceptsVersion(v int) bool { return v == 0 || v == Version }

// Hash is the content address of a registered circuit:
// "sha256:" + 64 hex digits over the canonicalized upload (see
// internal/registry for the exact canonical form). It is stable across
// processes and releases for identical content, so clients may cache
// it durably.
type Hash string

// hashPrefix is the only hash scheme currently minted.
const hashPrefix = "sha256:"

// Valid reports whether h is a well-formed sha256 content address.
func (h Hash) Valid() bool {
	s := string(h)
	if !strings.HasPrefix(s, hashPrefix) || len(s) != len(hashPrefix)+64 {
		return false
	}
	for _, c := range s[len(hashPrefix):] {
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'f':
		default:
			return false
		}
	}
	return true
}

// NewHash mints a Hash from a raw sha256 digest.
func NewHash(sum [32]byte) Hash {
	return Hash(fmt.Sprintf("%s%x", hashPrefix, sum))
}

// CheckSpec names one timing check of an explicit batch.
type CheckSpec struct {
	// Sink is the net to check, by name.
	Sink string `json:"sink"`
	// Delta is the timing-check threshold δ.
	Delta int64 `json:"delta"`
	// VerifyOnly runs only the verify() stage (fixpoint + global
	// implications) and reports N or P without case analysis.
	VerifyOnly bool `json:"verifyOnly,omitempty"`
}

// SweepSpec describes a δ-sweep: every δ in Deltas is checked against
// every primary output. With Table1 set, Deltas is ignored — the
// server first computes the exact circuit floating delay D and then
// evaluates the paper's row pair δ = D+1 and δ = D, reproducing the
// harness protocol (including the first-witness-wins early exit)
// server-side.
type SweepSpec struct {
	Deltas []int64 `json:"deltas,omitempty"`
	Table1 bool    `json:"table1,omitempty"`
}

// OptionsSpec overrides the engine options, starting from the paper's
// full configuration (core.Default()).
type OptionsSpec struct {
	NoDominators bool `json:"noDominators,omitempty"`
	NoLearning   bool `json:"noLearning,omitempty"`
	NoStems      bool `json:"noStems,omitempty"`
	NoCone       bool `json:"noCone,omitempty"`
	// WarmStart opts a batch into warm-started δ-sweeps. Unlike the
	// library, the server defaults warm-start OFF: its worker pool can
	// run same-sink checks of one batch concurrently, making the work
	// counters in responses depend on scheduling. Verdicts are
	// warm-start-invariant, so opting in only perturbs the statistics.
	WarmStart bool `json:"warmStart,omitempty"`
	// MaxBacktracks bounds the case analysis (0 = the default 200000,
	// negative = unlimited).
	MaxBacktracks int `json:"maxBacktracks,omitempty"`
	// MaxStemSplits caps stems correlated per check (0 = default 64).
	MaxStemSplits int `json:"maxStemSplits,omitempty"`
}

// BudgetsSpec maps onto core.Budgets: per-check work bounds beyond the
// option defaults. Exhaustion yields the verdict A (abandoned).
type BudgetsSpec struct {
	MaxBacktracks   int   `json:"maxBacktracks,omitempty"`
	MaxStemSplits   int   `json:"maxStemSplits,omitempty"`
	MaxPropagations int64 `json:"maxPropagations,omitempty"`
}

// Request is the body of POST /v1/check (inline netlist) and of
// POST /v1/circuits/{hash}/check (hash-addressed; the netlist fields
// must then be empty — the circuit identity lives in the path).
type Request struct {
	// V is the protocol version of this envelope (0 means 1).
	V int `json:"v,omitempty"`

	// Netlist is the circuit source text. Inline submissions only; a
	// hash-addressed check names its circuit in the URL instead.
	Netlist string `json:"netlist,omitempty"`
	// Format is "bench" (default) or "verilog".
	Format string `json:"format,omitempty"`
	// Name names the circuit in responses (default: the parser's).
	Name string `json:"name,omitempty"`
	// DefaultDelay is the gate delay used when the netlist does not
	// annotate one (default 10, the paper's experiments).
	DefaultDelay int64 `json:"defaultDelay,omitempty"`

	// Exactly one of Checks and Sweep must be present.
	Checks []CheckSpec `json:"checks,omitempty"`
	Sweep  *SweepSpec  `json:"sweep,omitempty"`

	Options *OptionsSpec `json:"options,omitempty"`
	Budgets *BudgetsSpec `json:"budgets,omitempty"`

	// CheckTimeoutMs bounds each check's wall clock; an expired check
	// reports the terminal verdict C (cancelled). The server's own
	// per-check cap, when configured, wins if smaller.
	CheckTimeoutMs int64 `json:"checkTimeoutMs,omitempty"`
	// TimeoutMs bounds the whole batch the same way.
	TimeoutMs int64 `json:"timeoutMs,omitempty"`

	// Stream requests an NDJSON response: one Event per line as results
	// become available, instead of a single Response document.
	Stream bool `json:"stream,omitempty"`

	// Shard is stamped by a coordinator on the per-worker requests it
	// fans a batch out into: which coordinator batch this shard serves,
	// which worker it was aimed at, and which dispatch attempt it is.
	// Workers log it (so a cluster-wide batch can be traced across
	// daemons) and otherwise ignore it; plain clients leave it nil.
	Shard *ShardInfo `json:"shard,omitempty"`

	// Trace is the distributed-tracing context of this submission. A
	// client may send one (joining the batch to an outer trace); when it
	// is absent or malformed the admitting tier mints a fresh trace id.
	// A coordinator re-stamps ParentSpan with a per-attempt dispatch
	// span id on the shard requests it fans out.
	Trace *TraceContext `json:"trace,omitempty"`
}

// ShardInfo identifies one coordinator→worker dispatch of a sharded
// batch. Attempt counts dispatches of the same checks (1 = the primary
// placement; higher = a requeue after a worker failure, or — with
// Hedge set — a latency hedge racing the primary).
type ShardInfo struct {
	// Coordinator is the dispatching coordinator's instance name.
	Coordinator string `json:"coordinator,omitempty"`
	// Batch is the coordinator-side batch id the shard belongs to.
	Batch int64 `json:"batch,omitempty"`
	// Worker is the worker address this shard was routed to.
	Worker string `json:"worker,omitempty"`
	// Attempt is the dispatch attempt for these checks (1 = primary).
	Attempt int `json:"attempt,omitempty"`
	// Hedge marks a straggler hedge: the primary dispatch is still
	// running and the first terminal result per check wins.
	Hedge bool `json:"hedge,omitempty"`
}

// DelayAnnotation overrides the delay of the gate driving one net,
// on top of whatever the netlist text (and any SDF document) carries.
// The annotation list is canonicalized — sorted by net, identical
// duplicates collapsed — before hashing, so annotation order never
// changes a circuit's content address.
type DelayAnnotation struct {
	// Net names the annotated gate by its output net.
	Net string `json:"net"`
	// Delay is the gate's maximum delay d_max (must be > 0).
	Delay int64 `json:"delay"`
	// DMin optionally sets the minimum delay d_min (0 keeps the
	// netlist's).
	DMin int64 `json:"dmin,omitempty"`
}

// UploadRequest is the body of PUT /v1/circuits: a netlist plus
// optional delay annotations, registered under a content hash.
type UploadRequest struct {
	// V is the protocol version of this envelope (0 means 1).
	V int `json:"v,omitempty"`

	// Netlist is the circuit source text (hashed byte-identically:
	// formatting differences yield distinct addresses).
	Netlist string `json:"netlist"`
	// Format is "bench" (default) or "verilog".
	Format string `json:"format,omitempty"`
	// Name names the circuit in responses; it is part of the content
	// address so one tenant's name never leaks into another's results.
	Name string `json:"name,omitempty"`
	// DefaultDelay is the gate delay used when the netlist does not
	// annotate one (default 10).
	DefaultDelay int64 `json:"defaultDelay,omitempty"`

	// SDF optionally back-annotates gate delays from a Standard Delay
	// Format document before Delays apply. Hashed byte-identically.
	SDF string `json:"sdf,omitempty"`
	// Delays override individual gate delays; canonicalized before
	// hashing.
	Delays []DelayAnnotation `json:"delays,omitempty"`
}

// UploadResponse is the body of a successful PUT /v1/circuits.
type UploadResponse struct {
	V int `json:"v"`
	// Hash is the circuit's content address; POST
	// /v1/circuits/{hash}/check runs batches against it.
	Hash Hash `json:"hash"`
	// Created reports whether this upload registered a new circuit
	// (false: the hash was already resident and the upload was a no-op).
	Created bool `json:"created"`
	// Circuit summarises the parsed netlist (Checks is 0 — no batch).
	Circuit CircuitInfo `json:"circuit"`
}

// CircuitInfo describes the parsed netlist, echoed first in every
// response. Checks is the number of checks the batch was admitted
// with — for streaming clients, the exact number of "check" events the
// response will carry (table1 sweeps discover their checks during the
// delay search and announce -1).
type CircuitInfo struct {
	Name    string   `json:"name"`
	Gates   int      `json:"gates"`
	Nets    int      `json:"nets"`
	PIs     int      `json:"pis"`
	POs     int      `json:"pos"`
	Levels  int      `json:"levels"`
	PINames []string `json:"piNames"`
	Checks  int      `json:"checks"`
}

// CheckResult serialises one core.Report. Verdicts use the paper's
// single-letter codes (P, N, V, A, C, -). Witness is the violating
// input vector as a bit string indexed parallel to PINames.
type CheckResult struct {
	Sink  string `json:"sink"`
	Delta int64  `json:"delta"`
	// Index is the check's position in the batch (explicit batches) or
	// the primary-output index (sweeps).
	Index int `json:"index"`

	BeforeGITD   string `json:"beforeGITD"`
	AfterGITD    string `json:"afterGITD"`
	AfterStem    string `json:"afterStem"`
	CaseAnalysis string `json:"caseAnalysis"`
	Final        string `json:"final"`
	Backtracks   int    `json:"backtracks"`

	Witness       string `json:"witness,omitempty"`
	WitnessSettle int64  `json:"witnessSettle,omitempty"`

	Dominators      int   `json:"dominators"`
	DominatorRounds int   `json:"dominatorRounds"`
	Propagations    int64 `json:"propagations"`
	Narrowings      int64 `json:"narrowings"`
	QueueHighWater  int   `json:"queueHighWater"`
	Decisions       int64 `json:"decisions"`
	StemSplits      int   `json:"stemSplits"`
	ElapsedUs       int64 `json:"elapsedUs"`

	// Error reports a panic-isolated worker failure; the check carries
	// the sound verdict A (the engine gave up) and the batch continues.
	Error string `json:"error,omitempty"`

	// Worker and Attempt are placement metadata stamped by a
	// coordinator when it merges sharded results: the worker address
	// that produced this result and the dispatch attempt that won
	// (1 = primary, >1 = a requeue or hedge). Single-daemon responses
	// leave them zero; verdicts and statistics never depend on them.
	Worker  string `json:"worker,omitempty"`
	Attempt int    `json:"attempt,omitempty"`

	// TraceID/SpanID tie this result to the batch's distributed trace:
	// TraceID is the batch trace id, SpanID the id of the span the
	// check ran under. StartUnixUs anchors the check start in Unix
	// microseconds and StageUs carries the per-stage durations in
	// pipeline order (fixpoint, gitd, stems, casean) so flight records
	// and cluster timelines survive the wire round trip. All are
	// stamped at the emission layer, never inside report conversion,
	// and verdicts never depend on them.
	TraceID     string  `json:"traceId,omitempty"`
	SpanID      string  `json:"spanId,omitempty"`
	StartUnixUs int64   `json:"startUnixUs,omitempty"`
	StageUs     []int64 `json:"stageUs,omitempty"`
}

// SweepResult aggregates one δ of a sweep, mirroring
// core.CircuitReport. PerOutput lists the per-output results that
// entered the aggregate: every output for plain sweeps, the serial
// prefix up to the first witnessing output for table1 sweeps.
type SweepResult struct {
	Delta         int64         `json:"delta"`
	BeforeGITD    string        `json:"beforeGITD"`
	AfterGITD     string        `json:"afterGITD"`
	AfterStem     string        `json:"afterStem"`
	CaseAnalysis  string        `json:"caseAnalysis"`
	Final         string        `json:"final"`
	Backtracks    int           `json:"backtracks"`
	WitnessOutput int           `json:"witnessOutput"`
	Propagations  int64         `json:"propagations"`
	Dominators    int           `json:"dominators"`
	Rounds        int           `json:"dominatorRounds"`
	PerOutput     []CheckResult `json:"perOutput"`
}

// Row is one reproduced Table-1 line, field-compatible with the
// harness's JSON row rendering.
type Row struct {
	Circuit    string  `json:"circuit"`
	Gates      int     `json:"gates"`
	Top        int64   `json:"top"`
	Delta      int64   `json:"delta"`
	Exact      bool    `json:"exact"`
	Upper      bool    `json:"upperBound"`
	BeforeGITD string  `json:"beforeGITD"`
	AfterGITD  string  `json:"afterGITD"`
	AfterStem  string  `json:"afterStemCorrelation"`
	Backtracks int     `json:"backtracks"`
	CAResult   string  `json:"caseAnalysis"`
	CPUSeconds float64 `json:"cpuSeconds"`
}

// Response is the non-streaming body of POST /v1/check and
// POST /v1/circuits/{hash}/check.
type Response struct {
	V       int           `json:"v"`
	Circuit CircuitInfo   `json:"circuit"`
	Results []CheckResult `json:"results,omitempty"`
	Sweeps  []SweepResult `json:"sweeps,omitempty"`
	Rows    []Row         `json:"rows,omitempty"`
	Done    DoneInfo      `json:"done"`
	// TraceID is the batch's distributed trace id (minted by the
	// admitting tier when the request carried none).
	TraceID string `json:"traceId,omitempty"`
}

// DoneInfo closes a batch: how many checks ran and the batch wall
// clock.
type DoneInfo struct {
	ChecksRun int   `json:"checksRun"`
	ElapsedUs int64 `json:"elapsedUs"`
}

// Event is one NDJSON line of a streaming response. Type is "circuit"
// (first line), "check", "sweep", "rows", "spans", "error", or "done"
// (always the last line). Receivers must skip event types they do not
// know — later minor revisions add new types (as "spans" was added)
// without a version bump.
type Event struct {
	Type    string       `json:"type"`
	Circuit *CircuitInfo `json:"circuit,omitempty"`
	Check   *CheckResult `json:"check,omitempty"`
	Sweep   *SweepResult `json:"sweep,omitempty"`
	Rows    []Row        `json:"rows,omitempty"`
	Spans   *SpanSummary `json:"spans,omitempty"`
	Error   string       `json:"error,omitempty"`
	Done    *DoneInfo    `json:"done,omitempty"`
	// TraceID echoes the batch trace id on every event line, so a
	// streaming client can correlate a partial stream (even one cut
	// before "done") with server-side spans and flight records.
	TraceID string `json:"traceId,omitempty"`
}

// ErrorBody is the structured body of every non-2xx response.
type ErrorBody struct {
	Error ErrorInfo `json:"error"`
}

// ErrorInfo carries a stable machine-readable code plus a human
// message. Hash echoes the requested circuit address on
// "unknown_hash" answers so retry loops can re-upload without keeping
// their own request state.
type ErrorInfo struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	Hash    Hash   `json:"hash,omitempty"`
}

// Health is the /healthz and /readyz body.
type Health struct {
	Status   string `json:"status"` // "ok", "starting", or "draining"
	Workers  int    `json:"workers"`
	Queued   int    `json:"queuedBatches"`
	Capacity int    `json:"queueDepth"`
}

// Metrics is the /metrics.json body: the tier's counters plus, on a
// daemon, the ltta.* check totals and the flat engine telemetry of
// every check this daemon ran (both empty on a coordinator).
type Metrics struct {
	Server map[string]int64 `json:"server"`
	Engine map[string]int64 `json:"engine"`
	Checks string           `json:"checksSummary"`
}
