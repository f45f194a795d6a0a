package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/server"
)

// clients is the closed loop's size: lttad's callers each wait for their
// batch before sending the next, and the machine has two processors.
const clients = 2

// coordPatience is the cluster's hedge threshold and probe timeout.
const coordPatience = 30 * time.Second

// stack is the in-process service under load — one lttad, or a
// coordinator over workers — on loopback listeners.
type stack struct {
	base       string // URL the clients talk to
	workerURLs []string
	workers    []*server.Server
	coord      *server.Coordinator
	timers     []*timedHandler // one per worker, cluster only
	https      []*http.Server
	serving    sync.WaitGroup
	client     *http.Client
}

// timedHandler times a worker's ServeHTTP for the check requests a
// coordinator dispatches to it.
type timedHandler struct {
	h         http.Handler
	withTrace atomic.Bool // also read the trace id out of each body
	mu        sync.Mutex
	calls     []dispatch // guarded by mu
}

type dispatch struct {
	traceID string
	start   time.Time
	dur     time.Duration
}

func (t *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost || !strings.HasSuffix(r.URL.Path, "/check") {
		t.h.ServeHTTP(w, r)
		return
	}
	var d dispatch
	if t.withTrace.Load() {
		body, err := io.ReadAll(r.Body)
		if err == nil {
			var probe struct {
				Trace *api.TraceContext `json:"trace"`
			}
			if json.Unmarshal(body, &probe) == nil && probe.Trace != nil {
				d.traceID = probe.Trace.TraceID
			}
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
	}
	d.start = time.Now()
	t.h.ServeHTTP(w, r)
	d.dur = time.Since(d.start)
	t.mu.Lock()
	t.calls = append(t.calls, d)
	t.mu.Unlock()
}

// take returns and clears the recorded dispatches.
func (t *timedHandler) take() []dispatch {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.calls
	t.calls = nil
	return out
}

// serve starts h on a fresh loopback listener.
func (s *stack) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	s.https = append(s.https, hs)
	s.serving.Add(1)
	go func() {
		defer s.serving.Done()
		_ = hs.Serve(ln) // returns http.ErrServerClosed on shutdown
	}()
	return "http://" + ln.Addr().String(), nil
}

// startStack starts workers lttad daemons and, when coordinated, a
// coordinator over them; it returns once every tier answers /readyz.
func startStack(workers int, coordinated bool) (*stack, error) {
	s := &stack{client: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: clients, DisableCompression: true}}}
	for i := 0; i < workers; i++ {
		srv := server.New(server.Config{})
		s.workers = append(s.workers, srv)
		var h http.Handler = srv
		if coordinated {
			th := &timedHandler{h: srv}
			s.timers = append(s.timers, th)
			h = th
		}
		u, err := s.serve(h)
		if err != nil {
			s.close()
			return nil, err
		}
		s.workerURLs = append(s.workerURLs, u)
	}
	s.base = s.workerURLs[0]
	if coordinated {
		// The straggler and liveness thresholds sit far above any batch
		// (milliseconds) but also above a whole-process freeze of the
		// shared host: with the 2 s hedge and 1 s probe defaults, one
		// such freeze hedges or reroutes checks on its own and trips the
		// steady-state guards. The hedge timer and probe loop still run.
		s.coord = server.NewCoordinator(server.CoordConfig{Workers: s.workerURLs,
			HedgeAfter: coordPatience, ProbeTimeout: coordPatience})
		u, err := s.serve(s.coord)
		if err != nil {
			s.close()
			return nil, err
		}
		s.base = u
	}
	for _, u := range append(append([]string(nil), s.workerURLs...), s.base) {
		if err := s.waitReady(u); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

func (s *stack) waitReady(u string) error {
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := s.client.Get(u + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("%s never became ready", u)
}

// close stops every listener and tier and waits for them.
func (s *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, hs := range s.https {
		_ = hs.Shutdown(ctx)
	}
	if s.coord != nil {
		_ = s.coord.Shutdown(ctx)
	}
	for _, w := range s.workers {
		_ = w.Shutdown(ctx)
	}
	s.serving.Wait()
	s.client.CloseIdleConnections()
}

// counters is one /metrics.json server map per tier: workers first, then
// the coordinator if any.
type counters []map[string]int64

func (s *stack) scrape() (counters, error) {
	urls := append([]string(nil), s.workerURLs...)
	if s.coord != nil {
		urls = append(urls, s.base)
	}
	var out counters
	for _, u := range urls {
		resp, err := s.client.Get(u + "/metrics.json")
		if err != nil {
			return nil, err
		}
		var m api.Metrics
		err = json.NewDecoder(resp.Body).Decode(&m)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("metrics of %s: %w", u, err)
		}
		out = append(out, m.Server)
	}
	return out, nil
}

// delta sums a counter's movement over the worker tiers (coordinated:
// false) or reads it on the coordinator (true).
func (s *stack) delta(a, b counters, key string, coordinator bool) int64 {
	if coordinator {
		if s.coord == nil {
			return 0
		}
		return b[len(b)-1][key] - a[len(a)-1][key]
	}
	var d int64
	for i := range s.workers {
		d += b[i][key] - a[i][key]
	}
	return d
}

func (s *stack) gauge(b counters, key string) int64 {
	var v int64
	for i := range s.workers {
		v += b[i][key]
	}
	return v
}

// checkSeen is the compact record of one terminal check result, kept for
// the correctness pass after the timed window.
type checkSeen struct {
	index   int
	delta   int64
	final   string
	witness string
	settle  int64
}

// clientSpan is a span the client records with real timestamps on traced
// batches.
type clientSpan struct {
	name       string
	start, end time.Time
}

// batchRecord is one batch as the client saw it.
type batchRecord struct {
	idx        int
	client     int
	traceID    string
	sent, done time.Time
	ttfb       time.Duration // send of the check request → response headers
	encode     time.Duration // json.Marshal of every request body
	decode     time.Duration // json.Unmarshal of every response line
	events     int
	reqBytes   int
	respBytes  int
	doneChecks int
	doneUs     int64
	checks     []checkSeen
	seen       int               // terminal check events
	checkUs    int64             // their summed server-side elapsedUs
	wire       []api.CheckResult // full results, first traced batches only
	spans      []clientSpan      // first traced batches only
	err        string

	// The correctness outcome, filled once the batch has been checked.
	good      int // terminal checks that passed every oracle
	witnesses int
	replay    time.Duration // witness replay time
	bad       bool
	problems  []string
}

func (r *batchRecord) latency() time.Duration { return r.done.Sub(r.sent) }

// problem marks the batch failed, keeping the first few descriptions.
func (r *batchRecord) problem(p string) {
	r.bad = true
	if len(r.problems) < 3 {
		r.problems = append(r.problems, p)
	}
}

// spanBatches is how many batches of a traced phase keep full results
// and client spans for the span file.
const spanBatches = 200

// caller issues requests for one client goroutine and accounts their
// client-side layers into a batchRecord.
type caller struct {
	http   *http.Client
	base   string
	traced bool       // keep full results and client spans
	agg    *engineAgg // engine counters from the wire, when set
}

func (c *caller) span(rec *batchRecord, name string, start, end time.Time) {
	if c.traced && rec.idx < spanBatches {
		rec.spans = append(rec.spans, clientSpan{name, start, end})
	}
}

// encode marshals a request body, timing it.
func (c *caller) encode(rec *batchRecord, body any) ([]byte, error) {
	t0 := time.Now()
	b, err := json.Marshal(body)
	t1 := time.Now()
	rec.encode += t1.Sub(t0)
	rec.reqBytes += len(b)
	c.span(rec, "api.encode", t0, t1)
	return b, err
}

func (c *caller) send(ctx context.Context, method, path string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return nil, fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return resp, nil
}

// upload registers a netlist and returns its hash.
func (c *caller) upload(ctx context.Context, rec *batchRecord, up *api.UploadRequest) (api.Hash, error) {
	body, err := c.encode(rec, up)
	if err != nil {
		return "", err
	}
	t0 := time.Now()
	resp, err := c.send(ctx, http.MethodPut, "/v1/circuits", body)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	c.span(rec, "registry.upload", t0, time.Now())
	rec.respBytes += len(raw)
	var out api.UploadResponse
	t1 := time.Now()
	err = json.Unmarshal(raw, &out)
	rec.decode += time.Since(t1)
	if err != nil {
		return "", fmt.Errorf("upload response: %w", err)
	}
	return out.Hash, nil
}

// stream sends a streaming check request and reads its NDJSON events up
// to and including "done".
func (c *caller) stream(ctx context.Context, rec *batchRecord, path string, req *api.Request) error {
	req.Stream = true
	body, err := c.encode(rec, req)
	if err != nil {
		return err
	}
	t0 := time.Now()
	resp, err := c.send(ctx, http.MethodPost, path, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	rec.ttfb = time.Since(t0)
	c.span(rec, "server.ttfb", t0, t0.Add(rec.ttfb))
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		line := sc.Bytes()
		rec.respBytes += len(line) + 1
		var ev api.Event
		t1 := time.Now()
		err := json.Unmarshal(line, &ev)
		t2 := time.Now()
		rec.decode += t2.Sub(t1)
		c.span(rec, "api.event_decode", t1, t2)
		if err != nil {
			return fmt.Errorf("event %d: %w", rec.events, err)
		}
		rec.events++
		switch ev.Type {
		case "check":
			r := ev.Check
			rec.checks = append(rec.checks, checkSeen{index: r.Index, delta: r.Delta, final: r.Final,
				witness: r.Witness, settle: r.WitnessSettle})
			rec.checkUs += r.ElapsedUs
			if c.agg != nil {
				c.agg.addWire(r)
			}
			rec.seen++
			if c.traced && rec.idx < spanBatches {
				rec.wire = append(rec.wire, *r)
			}
		case "error":
			return fmt.Errorf("error event: %s", ev.Error)
		case "done":
			rec.done = time.Now()
			rec.doneChecks, rec.doneUs = ev.Done.ChecksRun, ev.Done.ElapsedUs
			_, _ = io.Copy(io.Discard, resp.Body)
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("truncated stream after %d events: %w", rec.events, err)
	}
	return fmt.Errorf("truncated stream: %d events, no done", rec.events)
}

// batchFunc runs batch i of the workload's sequence; it sets rec.sent
// right before its first request, after any untimed input generation.
type batchFunc func(c *caller, i int, rec *batchRecord) error

// checkFunc, when a workload has one, applies the oracles to a finished
// batch right away (after its latency is taken).
type checkFunc func(rec *batchRecord)

// batchTime is what the loop keeps of every batch: enough for the latency
// metrics, and small, so the client's own memory barely depends on how
// many batches a run completes.
type batchTime struct {
	idx        int32
	failed     bool  // transport failure: counts as an infinite latency
	sent, done int64 // nanoseconds since the window opened
}

func (b batchTime) ms() float64 { return float64(b.done-b.sent) / 1e6 }

// totals folds batches into the client-side layer sums and the
// correctness outcome of a window.
type totals struct {
	batches, ok         int // all batches; those without a transport error
	events, seen        int
	reqBytes, respBytes int
	encode, decode      time.Duration
	ttfb, latency       time.Duration // over ok batches
	execUs, checkUs     int64
	good, witnesses     int
	replay              time.Duration
	failed              int
	problems            []string
}

// addLayers folds in what the client measured of a batch.
func (t *totals) addLayers(r *batchRecord) {
	t.batches++
	t.seen += r.seen
	if r.err != "" {
		return
	}
	t.ok++
	t.events += r.events
	t.reqBytes += r.reqBytes
	t.respBytes += r.respBytes
	t.encode += r.encode
	t.decode += r.decode
	t.ttfb += r.ttfb
	t.latency += r.latency()
	t.execUs += r.doneUs
	t.checkUs += r.checkUs
}

// addOutcome folds in a checked batch's correctness outcome.
func (t *totals) addOutcome(r *batchRecord) {
	t.good += r.good
	t.witnesses += r.witnesses
	t.replay += r.replay
	if r.err == "" && !r.bad {
		return
	}
	t.failed++
	if len(t.problems) < 20 {
		if r.err != "" {
			t.problems = append(t.problems, fmt.Sprintf("batch %d: %s", r.idx, r.err))
		} else {
			t.problems = append(t.problems, strings.Join(r.problems, "; "))
		}
	}
}

// window is what one closed-loop window yields.
type window struct {
	times   []batchTime // in sequence order
	tot     totals
	kept    []batchRecord // full records: every batch with keepAll, else the first spanBatches of a traced window
	elapsed time.Duration
	engine  *engineAgg
}

// closedLoop runs clients goroutines, each sending batch after batch from
// one shared sequence until the duration has passed; a batch in flight
// at the deadline completes. traced attaches trace contexts and keeps the
// first batches for the span file; engine folds wire results into engine
// counters; keepAll keeps every record for checking after the window.
func closedLoop(s *stack, dur time.Duration, traced, engine, keepAll bool, do batchFunc, check checkFunc) *window {
	var next atomic.Int64
	w := &window{engine: &engineAgg{}}
	var mu sync.Mutex // guards w.tot and w.kept
	times := make([][]batchTime, clients)
	aggs := make([]*engineAgg, clients)
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			c := &caller{http: s.client, base: s.base, traced: traced}
			if engine {
				c.agg = &engineAgg{}
				aggs[k] = c.agg
			}
			// Sized past what a client completes in a run, so appending
			// does not grow the heap during the window.
			ts := make([]batchTime, 0, 1<<15)
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				rec := batchRecord{idx: i, client: k}
				if err := do(c, i, &rec); err != nil {
					rec.err = err.Error()
					if rec.sent.IsZero() {
						rec.sent = time.Now()
					}
					rec.done = time.Now()
				}
				if check != nil {
					check(&rec)
				}
				ts = append(ts, batchTime{idx: int32(i), failed: rec.err != "",
					sent: rec.sent.Sub(start).Nanoseconds(), done: rec.done.Sub(start).Nanoseconds()})
				mu.Lock()
				w.tot.addLayers(&rec)
				if check != nil {
					w.tot.addOutcome(&rec)
				}
				if keepAll || (traced && i < spanBatches) {
					w.kept = append(w.kept, rec)
				}
				mu.Unlock()
			}
			times[k] = ts
		}(k)
	}
	wg.Wait()
	w.elapsed = time.Since(start)
	w.times = make([]batchTime, next.Load())
	for _, ts := range times {
		for _, t := range ts {
			w.times[t.idx] = t
		}
	}
	for _, a := range aggs {
		if a != nil {
			w.engine.merge(a)
		}
	}
	return w
}

// phase is one measured window on a stack, with the counters, runtime
// and heap readings around it.
type phase struct {
	*window
	before, after counters
	rt0, rt1      runtimeCounters
	peakMB        float64
	dispatches    []dispatch
}

// measure runs the closed loop for dur (see closedLoop for the flags).
func measure(st *stack, dur time.Duration, traced, engine, keepAll bool, do batchFunc, check checkFunc) (*phase, error) {
	for _, t := range st.timers {
		t.withTrace.Store(traced)
		t.take()
	}
	p := &phase{}
	var err error
	if p.before, err = st.scrape(); err != nil {
		return nil, err
	}
	p.rt0 = readRuntime()
	heap := startHeapSampler()
	p.window = closedLoop(st, dur, traced, engine, keepAll, do, check)
	p.peakMB = heap.stopMB()
	p.rt1 = readRuntime()
	if p.after, err = st.scrape(); err != nil {
		return nil, err
	}
	for _, t := range st.timers {
		p.dispatches = append(p.dispatches, t.take()...)
	}
	return p, nil
}

// tally adds the phase's checked batches to the outcome, applies the
// guards, and returns the terminal checks that passed; warm workloads
// also get the steady-state guards.
func (p *phase) tally(o *outcome, st *stack, warm bool) int {
	o.attempted += p.tot.batches
	o.failed += p.tot.failed
	for _, pr := range p.tot.problems {
		o.problems = appendProblem(o.problems, pr)
	}
	p.guards(o, st, p.tot.seen, warm)
	return p.tot.good
}

func appendProblem(ps []string, p string) []string {
	if len(ps) < 20 {
		ps = append(ps, p)
	}
	return ps
}

// replayUs is the witness replay time per witness over the phase.
func (p *phase) replayUs() float64 {
	return us(p.tot.replay) / float64(max(p.tot.witnesses, 1))
}

// guards checks exactly-once delivery against the servers' own counters
// and, on warm workloads, that the measured phase did no cold work.
func (p *phase) guards(o *outcome, st *stack, seen int, warm bool) {
	ran := st.delta(p.before, p.after, "checksRun", false)
	if int64(seen) != ran {
		o.fail("exactly-once: clients saw %d terminal checks, workers ran %d", seen, ran)
	}
	if st.coord != nil {
		if merged := st.delta(p.before, p.after, "checksMerged", true); merged != int64(seen) {
			o.fail("exactly-once: clients saw %d terminal checks, coordinator merged %d", seen, merged)
		}
	}
	if !warm {
		return
	}
	for _, k := range []string{"netlistParses", "registryPrepares"} {
		if d := st.delta(p.before, p.after, k, false); d != 0 {
			o.fail("steady state: %s moved by %d during the measured phase", k, d)
		}
	}
	if st.coord != nil {
		for _, k := range []string{"netlistParses", "hedgedChecks", "requeuedChecks", "workerUploads",
			"shardDispatchesHedge", "shardDispatchesRequeue"} {
			if d := st.delta(p.before, p.after, k, true); d != 0 {
				o.fail("steady state: coordinator %s moved by %d during the measured phase", k, d)
			}
		}
	}
}

// layers reports the per-layer metrics one untraced phase yields: client
// api/server timings, server and registry counters, coordinator
// counters, engine counters from the wire, and the runtime.
func (p *phase) layers(m map[string]float64, st *stack) {
	t := &p.tot
	ok, events, checks := float64(max(t.ok, 1)), float64(max(t.events, 1)), float64(max(t.seen, 1))
	m["api.request_bytes"] = float64(t.reqBytes) / ok
	m["api.encode_us"] = us(t.encode) / ok
	m["api.event_decode_us"] = us(t.decode) / events
	m["api.bytes_per_check"] = float64(t.respBytes) / checks
	m["server.ttfb_ms"] = ms(t.ttfb) / ok
	m["server.exec_ms"] = float64(t.execUs) / 1000 / ok
	m["server.overhead_ms"] = (ms(t.latency) - float64(t.execUs)/1000) / ok
	m["server.check_us"] = float64(t.checkUs) / checks

	d := func(k string) float64 { return float64(st.delta(p.before, p.after, k, false)) }
	m["server.rejected"] = d("rejectedFull") + d("rejectedDraining")
	m["server.checks_run"] = d("checksRun")
	m["server.netlist_parses"] = d("netlistParses")
	m["registry.prepares"] = d("registryPrepares")
	m["registry.evictions"] = d("registryEvictions") + d("registryDeferredEvictions")
	m["registry.resident_mb"] = float64(st.gauge(p.after, "registryResidentBytes")) / (1 << 20)
	if hm := d("registryHits") + d("registryMisses"); hm > 0 {
		m["registry.hit_ratio"] = d("registryHits") / hm
	} else {
		m["registry.hit_ratio"] = 0
	}
	if st.coord != nil {
		cd := func(k string) float64 { return float64(st.delta(p.before, p.after, k, true)) }
		m["server.rejected"] += cd("rejectedFull") + cd("rejectedDraining")
		m["server.netlist_parses"] += cd("netlistParses")
		m["coord.requeues"] = cd("requeuedChecks")
		m["coord.hedges"] = cd("hedgedChecks")
		m["coord.duplicates_dropped"] = cd("duplicateResultsDropped")
		m["coord.worker_uploads"] = cd("workerUploads")
		m["coord.dispatches_per_batch"] = (cd("shardDispatchesPrimary") + cd("shardDispatchesRequeue") +
			cd("shardDispatchesHedge")) / float64(max(t.batches, 1))
		var total time.Duration
		for _, w := range p.dispatches {
			total += w.dur
		}
		m["coord.worker_ms"] = ms(total) / float64(max(len(p.dispatches), 1))
	}
	p.engine.report(m)
	runtimeLayer(m, p.rt0, p.rt1, t.seen)
}

// coordOverhead is the mean of batch latency minus the batch's longest
// worker dispatch, over the traced phase's kept batches.
func coordOverhead(p *phase) float64 {
	longest := map[string]time.Duration{}
	for _, w := range p.dispatches {
		if w.dur > longest[w.traceID] {
			longest[w.traceID] = w.dur
		}
	}
	var sum float64
	n := 0
	for i := range p.kept {
		r := &p.kept[i]
		if w, ok := longest[r.traceID]; ok && r.err == "" {
			sum += ms(r.latency() - w)
			n++
		}
	}
	return sum / float64(max(n, 1))
}

// spans turns the kept traced batches into spans: the client batch with
// its encode, first-byte and decode children, the worker dispatches of
// a coordinated batch, and every served check with its stages, laid out
// from the wire's start time and per-stage durations.
func (p *phase) spans(rec *spanRecorder) {
	byTrace := map[string][]dispatch{}
	for _, w := range p.dispatches {
		byTrace[w.traceID] = append(byTrace[w.traceID], w)
	}
	for k := 0; k < clients; k++ {
		rec.nameLane(k+1, fmt.Sprintf("client %d", k))
	}
	for i := range p.kept {
		r := &p.kept[i]
		if r.idx >= spanBatches {
			continue
		}
		lane := r.client + 1
		root := rec.add("client.batch", lane, 0, r.sent, r.done)
		for _, s := range r.spans {
			rec.add(s.name, lane, root, s.start, s.end)
		}
		for _, w := range byTrace[r.traceID] {
			rec.add("coord.worker", lane, root, w.start, w.start.Add(w.dur))
		}
		for _, w := range r.wire {
			start := time.UnixMicro(w.StartUnixUs)
			id := rec.add("server.check", lane, root, start, start.Add(time.Duration(w.ElapsedUs)*time.Microsecond))
			off := start
			for st, d := range w.StageUs {
				if d <= 0 || st >= len(stageLayer) {
					continue
				}
				end := off.Add(time.Duration(d) * time.Microsecond)
				rec.add(stageLayer[st], lane, id, off, end)
				off = end
			}
		}
	}
}

// latencyMetrics reports the served e2e metrics of one measured phase.
// good counts the terminal checks that passed correctness; suiteLen
// groups consecutive batches into the workload's suite; group names the
// circuit each batch ran on ("" = its own).
func latencyMetrics(m map[string]float64, w *window, good int, suiteLen int, group func(i int) string) {
	var lat []float64
	byGroup := map[string][]float64{}
	var singles []float64
	for _, t := range w.times {
		l := t.ms()
		if t.failed {
			l = math.Inf(1) // a failed batch misses every latency limit
		}
		lat = append(lat, l)
		if g := group(int(t.idx)); g != "" {
			byGroup[g] = append(byGroup[g], l)
		} else {
			singles = append(singles, l)
		}
	}
	for _, ls := range byGroup {
		singles = append(singles, median(ls))
	}
	var suites []float64
	for s := 0; (s+1)*suiteLen <= len(w.times); s++ {
		first, last := w.times[s*suiteLen].sent, w.times[s*suiteLen].done
		for _, t := range w.times[s*suiteLen : (s+1)*suiteLen] {
			first, last = min(first, t.sent), max(last, t.done)
		}
		suites = append(suites, float64(last-first)/1e9)
	}
	q := tailQuantile(len(lat), 0.99)
	m["suite_s"] = median(suites)
	m["circuit_geomean_ms"] = geomean(singles)
	m["checks_per_s"] = float64(good) / w.elapsed.Seconds()
	m["batch_p50_ms"] = quantile(lat, 0.5)
	m["batch_p99_ms"] = quantile(lat, q)
	logf("batches=%d suites=%d tail quantile=%.4f elapsed=%.2fs", len(lat), len(suites), q, w.elapsed.Seconds())
}

// setupRuns is how many times a served workload sets up (the last set-up
// is kept for measuring); setup_s is their median.
const setupRuns = 5

// warmup runs every circuit's batch once from both clients, so connection
// pools, worker uploads, prepares and cone builds are done before timing.
func warmup(s *stack, n int, do func(c *caller, k int, rec *batchRecord) error) error {
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			c := &caller{http: s.client, base: s.base}
			for i := 0; i < n; i++ {
				var rec batchRecord
				if err := do(c, (i+k)%n, &rec); err != nil && errs[k] == nil {
					errs[k] = fmt.Errorf("warm-up batch %d: %w", i, err)
				}
			}
		}(k)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
