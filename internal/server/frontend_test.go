package server_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/client"
	"repro/internal/gen"
	"repro/internal/server"
)

// tinyNetlist has one primary output, s, with a topological delay of
// 20 at the default gate delay.
const tinyNetlist = "INPUT(a)\nINPUT(b)\nOUTPUT(s)\nw = NAND(a, b)\ns = NOR(w, w)\n"

// lttadTier is one HTTP tier under test: a daemon or a coordinator.
type lttadTier interface {
	http.Handler
	BeginDrain()
	Shutdown(context.Context) error
}

// serve runs one request straight through a tier's handler and
// reports any handler panic as a test error.
func serve(t *testing.T, h http.Handler, req *http.Request) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	func() {
		defer func() {
			if p := recover(); p != nil {
				t.Errorf("%s %s: handler panicked: %v", req.Method, req.URL.Path, p)
			}
		}()
		h.ServeHTTP(rec, req)
	}()
	return rec
}

// errorCode is the structured error code of a response body ("" for
// a body that is not an error envelope).
func errorCode(rec *httptest.ResponseRecorder) string {
	var body server.ErrorBody
	_ = json.Unmarshal(rec.Body.Bytes(), &body)
	return body.Error.Code
}

// uploadTiny registers tinyNetlist on a tier and returns its hash.
func uploadTiny(t *testing.T, h http.Handler) string {
	t.Helper()
	rec := serve(t, h, httptest.NewRequest(http.MethodPut, "/v1/circuits",
		strings.NewReader(`{"netlist":`+jsonString(tinyNetlist)+`}`)))
	var up server.UploadResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &up); err != nil || up.Hash == "" {
		t.Fatalf("upload: status %d, body %s", rec.Code, rec.Body.String())
	}
	return string(up.Hash)
}

func jsonString(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

// drainRaceRoutes are the two admitting routes: inline (the netlist in
// the body) and hash-addressed (the circuit uploaded beforehand).
func drainRaceRoutes(t *testing.T, h http.Handler, byHash bool) (path, body string) {
	if byHash {
		return "/v1/circuits/" + uploadTiny(t, h) + "/check", `{"sweep":{"deltas":[10,20,21]}}`
	}
	return "/v1/check", `{"netlist":` + jsonString(tinyNetlist) + `,"sweep":{"deltas":[10,20,21]}}`
}

// assertDrainRace submits a batch whose body is still arriving when
// the tier shuts down: the handler has passed the entry check and is
// blocked in decode when Shutdown runs, and the rest of the body
// arrives only after it returned. The tier must answer 503 draining —
// not admit the batch after the drain, which on a daemon sends on the
// closed pool and on a coordinator runs the batch on a cancelled
// context.
func assertDrainRace(t *testing.T, tier lttadTier, path, body string) {
	t.Helper()
	pr, pw := io.Pipe()
	req := httptest.NewRequest(http.MethodPost, path, pr)
	recCh := make(chan *httptest.ResponseRecorder, 1)
	go func() { recCh <- serve(t, tier, req) }()

	// io.Pipe hands the bytes over only when the handler reads them,
	// so once this write returns the handler is inside decode.
	if _, err := pw.Write([]byte(body[:10])); err != nil {
		t.Fatal(err)
	}
	if err := tier.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := pw.Write([]byte(body[10:])); err != nil {
		t.Fatal(err)
	}
	_ = pw.Close()

	rec := <-recCh
	if rec.Code != http.StatusServiceUnavailable || errorCode(rec) != "draining" {
		t.Fatalf("%s: submission decoded across Shutdown answered %d %s, want 503 draining",
			path, rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Errorf("%s: draining rejection carries no Retry-After", path)
	}
}

// TestDrainAdmissionRaceDaemon pins the drain ordering on a daemon.
func TestDrainAdmissionRaceDaemon(t *testing.T) {
	for _, byHash := range []bool{false, true} {
		s := server.New(server.Config{Workers: 2, QueueDepth: 4})
		path, body := drainRaceRoutes(t, s, byHash)
		assertDrainRace(t, s, path, body)
	}
}

// TestDrainAdmissionRaceCoordinator pins the same ordering on a
// coordinator.
func TestDrainAdmissionRaceCoordinator(t *testing.T) {
	w := startClusterWorker(t, server.Config{Workers: 2, QueueDepth: 4})
	defer w.stop()
	for _, byHash := range []bool{false, true} {
		co := server.NewCoordinator(server.CoordConfig{Workers: []string{w.addr}, QueueDepth: 4})
		path, body := drainRaceRoutes(t, co, byHash)
		assertDrainRace(t, co, path, body)
	}
}

// TestEngineCountersPerInstance runs a batch on one of two daemons in
// the same process: each daemon's /metrics.json engine block counts
// its own checks only.
func TestEngineCountersPerInstance(t *testing.T) {
	var cls [2]*client.Client
	for i := range cls {
		s := server.New(server.Config{Workers: 2, QueueDepth: 4})
		ts := httptest.NewServer(s)
		defer ts.Close()
		defer func() { _ = s.Shutdown(context.Background()) }()
		cls[i] = client.New(ts.URL)
		waitReady(t, cls[i])
	}

	resp, err := cls[0].Check(context.Background(), server.Request{
		Netlist: circuit.BenchString(gen.C17(10)), Name: "c17",
		Sweep: &server.SweepSpec{Deltas: []int64{50, 51}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ran := int64(resp.Done.ChecksRun)
	if ran == 0 {
		t.Fatal("batch ran no checks")
	}

	for i, want := range []int64{ran, 0} {
		m, err := cls[i].Metrics(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Engine["ltta.checks"]; got != want {
			t.Errorf("daemon %d: engine ltta.checks = %d, want %d (engine block %v)", i, got, want, m.Engine)
		}
		if got := m.Server["checksRun"]; got != want {
			t.Errorf("daemon %d: checksRun = %d, want %d", i, got, want)
		}
	}
}

// TestFrontEndConformance runs one table of requests against a daemon
// and a coordinator over one worker: both tiers answer every case with
// the same status, error code, and Retry-After presence.
func TestFrontEndConformance(t *testing.T) {
	w := startClusterWorker(t, server.Config{Workers: 2, QueueDepth: 4})
	defer w.stop()
	const maxBody, maxChecks = 512, 4
	tiers := []struct {
		name string
		lttadTier
	}{
		{"daemon", server.New(server.Config{Workers: 2, QueueDepth: 4,
			MaxBodyBytes: maxBody, MaxChecks: maxChecks})},
		{"coordinator", server.NewCoordinator(server.CoordConfig{Workers: []string{w.addr},
			QueueDepth: 4, MaxBodyBytes: maxBody, MaxChecks: maxChecks})},
	}
	hashes := make([]string, len(tiers))
	for i, tier := range tiers {
		defer func() { _ = tier.Shutdown(context.Background()) }()
		hashes[i] = uploadTiny(t, tier)
	}
	if hashes[0] != hashes[1] {
		t.Fatalf("tiers hash the same upload differently: %s vs %s", hashes[0], hashes[1])
	}
	inline := func(extra string) string {
		return `{"netlist":` + jsonString(tinyNetlist) + extra + `}`
	}
	type tc struct {
		name, method, path, body string
		status                   int
		code                     string
		retryAfter               bool
	}
	byHash := "/v1/circuits/" + hashes[0] + "/check"
	accepting := []tc{
		{"method", http.MethodGet, "/v1/check", "", http.StatusMethodNotAllowed, "method_not_allowed", false},
		{"bad json", http.MethodPost, "/v1/check", `{`, http.StatusBadRequest, "bad_json", false},
		{"version", http.MethodPost, "/v1/check", inline(`,"v":99,"sweep":{"deltas":[20]}`),
			http.StatusBadRequest, "unsupported_version", false},
		{"body cap", http.MethodPost, "/v1/check", inline(`,"name":"` + strings.Repeat("x", maxBody) + `"`),
			http.StatusRequestEntityTooLarge, "body_too_large", false},
		{"check cap", http.MethodPost, "/v1/check", inline(`,"sweep":{"deltas":[1,2,3,4,5]}`),
			http.StatusBadRequest, "too_many_checks", false},
		{"bad hash", http.MethodPost, "/v1/circuits/sha256:zz/check", `{"sweep":{"deltas":[20]}}`,
			http.StatusBadRequest, "bad_hash", false},
		{"unknown hash", http.MethodPost, "/v1/circuits/sha256:" + strings.Repeat("0", 64) + "/check",
			`{"sweep":{"deltas":[20]}}`, http.StatusNotFound, "unknown_hash", false},
		{"batch", http.MethodPost, byHash, `{"sweep":{"deltas":[20,21]}}`, http.StatusOK, "", false},
	}
	draining := []tc{
		{"inline", http.MethodPost, "/v1/check", inline(`,"sweep":{"deltas":[20]}`),
			http.StatusServiceUnavailable, "draining", true},
		{"upload", http.MethodPut, "/v1/circuits", inline(""), http.StatusServiceUnavailable, "draining", true},
		{"by hash", http.MethodPost, byHash, `{"sweep":{"deltas":[20]}}`,
			http.StatusServiceUnavailable, "draining", true},
		{"readyz", http.MethodGet, "/readyz", "", http.StatusServiceUnavailable, "", true},
	}
	run := func(phase string, cases []tc) {
		for _, c := range cases {
			for _, tier := range tiers {
				rec := serve(t, tier, httptest.NewRequest(c.method, c.path, strings.NewReader(c.body)))
				got := tc{status: rec.Code, code: errorCode(rec), retryAfter: rec.Header().Get("Retry-After") != ""}
				if got.status != c.status || got.code != c.code || got.retryAfter != c.retryAfter {
					t.Errorf("%s %s on %s: got %d %q retry-after=%v, want %d %q retry-after=%v (body %s)",
						phase, c.name, tier.name, got.status, got.code, got.retryAfter,
						c.status, c.code, c.retryAfter, rec.Body.String())
				}
			}
		}
	}
	run("accepting", accepting)
	for _, tier := range tiers {
		tier.BeginDrain()
	}
	run("draining", draining)
}
