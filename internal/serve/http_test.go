package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func postRoute(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/route", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// TestHTTPAPI exercises the wire contract: a routed answer, input validation,
// method discipline, explicit 429 backpressure with Retry-After, the
// Prometheus scrape, health, and stats.
func TestHTTPAPI(t *testing.T) {
	nw := testNetwork(t)
	srv := newTestServer(t, nw, Config{Workers: 1, QueueSize: 2, MaxSourceFraction: 1})
	g := newGate()
	srv.workerGate = g.hook()
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	// Release the gate even on a failure path, or ts.Close would hang on
	// handlers parked behind it.
	released := false
	defer func() {
		if !released {
			close(g.release)
		}
	}()

	// Backpressure first, while the worker is parked: 1 in flight + 2 queued
	// saturates the server, the next POST is 429 with a Retry-After hint.
	// Distinct sources so only the queue bound binds (sourceCap is 2 here).
	saturate(t, ts, g)
	waitFor := func(cond func() bool, what string) {
		t.Helper()
		for start := time.Now(); !cond(); {
			if time.Since(start) > 5*time.Second {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitFor(func() bool { return srv.ServerStats().Accepted == 3 }, "3 accepted requests")
	resp, _ := postRoute(t, ts, `{"s":0,"t":5,"source":"y"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated POST /route = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 must carry a Retry-After hint")
	}
	released = true
	close(g.release)
	// Until the worker drains them the two queued requests still fill the
	// queue, and the next POST would be shed.
	waitFor(func() bool { return srv.ServerStats().Completed == 3 }, "the parked requests to complete")

	// A served request answers with the route.
	resp, body := postRoute(t, ts, `{"s":0,"t":`+itoa(nw.G.N()-1)+`}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /route = %d: %s", resp.StatusCode, body)
	}
	var rr routeResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if !rr.Reached || rr.Hops < 1 || len(rr.Path) != rr.Hops+1 {
		t.Fatalf("route answer implausible: %+v", rr)
	}

	// Validation and method discipline.
	if resp, body = postRoute(t, ts, `{"s":-1,"t":2}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range node = %d (%s), want 400", resp.StatusCode, body)
	}
	if resp, body = postRoute(t, ts, `{"s":0,"t":999999}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("huge node id = %d (%s), want 400", resp.StatusCode, body)
	}
	if resp, body = postRoute(t, ts, `not json`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage body = %d (%s), want 400", resp.StatusCode, body)
	}
	getResp, err := http.Get(ts.URL + "/route")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /route = %d, want 405", getResp.StatusCode)
	}

	// An expired deadline sheds with 504.
	if resp, body = postRoute(t, ts, `{"s":0,"t":5,"deadline_ms":-1}`); resp.StatusCode != http.StatusOK {
		// deadline_ms <= 0 means no deadline; this must serve normally.
		t.Fatalf("deadline_ms=-1 = %d (%s), want 200 (no deadline)", resp.StatusCode, body)
	}

	// /metrics scrape folds on demand and carries the serve counters.
	mResp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var mBuf bytes.Buffer
	if _, err := mBuf.ReadFrom(mResp.Body); err != nil {
		t.Fatal(err)
	}
	mResp.Body.Close()
	metrics := mBuf.String()
	if mResp.StatusCode != http.StatusOK || !strings.Contains(mResp.Header.Get("Content-Type"), "text/plain") {
		t.Fatalf("GET /metrics = %d %q", mResp.StatusCode, mResp.Header.Get("Content-Type"))
	}
	for _, want := range []string{
		"hybridroute_serve_accepted_total",
		"hybridroute_serve_completed_total",
		"hybridroute_serve_shed_full_total",
		"hybridroute_serve_queue_depth_max",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %s:\n%s", want, metrics)
		}
	}

	// /healthz (liveness) and /readyz (readiness) are both ok while serving.
	for _, ep := range []string{"/healthz", "/readyz"} {
		hResp, err := http.Get(ts.URL + ep)
		if err != nil {
			t.Fatal(err)
		}
		hResp.Body.Close()
		if hResp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d, want 200", ep, hResp.StatusCode)
		}
	}

	// /stats round-trips the accounting.
	sResp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(sResp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	sResp.Body.Close()
	if st.Accepted == 0 || st.ShedFull != 1 {
		t.Fatalf("/stats accounting off: %+v", st)
	}

	// Draining: /readyz flips to 503 and new routes are 503, while /healthz
	// (pure liveness) keeps answering ok — the process is still alive.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	rResp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rResp.Body.Close()
	if rResp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("GET /readyz while draining = %d, want 503", rResp.StatusCode)
	}
	hResp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hResp.Body.Close()
	if hResp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz while draining = %d, want 200 (liveness is not readiness)", hResp.StatusCode)
	}
	if resp, _ = postRoute(t, ts, `{"s":0,"t":5}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST /route while draining = %d, want 503", resp.StatusCode)
	}
}

// TestReadyzBeforeStart pins the readiness window a gateway depends on: a
// server that has been built (preprocessing done, engine live) but not
// Started answers /readyz with 503 and /healthz with 200, and flips ready
// only once Start completes.
func TestReadyzBeforeStart(t *testing.T) {
	nw := testNetwork(t)
	srv := newTestServer(t, nw, Config{Workers: 1, QueueSize: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(ep string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + ep)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("GET /readyz before Start = %d, want 503", got)
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("GET /healthz before Start = %d, want 200", got)
	}
	if srv.Ready() {
		t.Fatal("Ready() true before Start")
	}
	srv.Start()
	if got := get("/readyz"); got != http.StatusOK {
		t.Fatalf("GET /readyz after Start = %d, want 200", got)
	}
	if !srv.Ready() {
		t.Fatal("Ready() false after Start")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if srv.Ready() {
		t.Fatal("Ready() true after Shutdown")
	}
}

func itoa(n int) string {
	b, _ := json.Marshal(n)
	return string(b)
}

// TestRetryAfterDerivedFromDrainRate pins the satellite bugfix: the 429
// Retry-After hint is ceil(queue depth / observed drain rate) clamped to
// [1, 30], not a hardcoded second.
func TestRetryAfterDerivedFromDrainRate(t *testing.T) {
	cases := []struct {
		depth int
		rate  float64
		want  int
	}{
		{0, 100, 1},   // empty queue: come right back
		{10, 0, 1},    // cold start, shallow backlog: priced at coldStartRate
		{10, 1000, 1}, // fast drain: floor at 1
		{100, 50, 2},  // 100 queued at 50/s
		{5, 2, 3},     // ceil(2.5)
		{1000, 1, 30}, // wedged server: clamp
		{7, -1, 1},    // defensive: negative rate
		// Cold start with a real backlog: zero observed drain must not read
		// as "come back in 1s" — the backlog scales the hint at the
		// pessimistic assumed rate (640/64 = 10s), clamping like any other.
		{640, 0, 10},
		{64000, 0, 30},
		{320, -1, 5}, // negative rate is the same cold-start path
	}
	for _, c := range cases {
		if got := retryAfterHint(c.depth, c.rate); got != c.want {
			t.Errorf("retryAfterHint(%d, %v) = %d, want %d", c.depth, c.rate, got, c.want)
		}
	}

	// End to end: park the worker, saturate the queue, install a known drain
	// rate, and read the derived hint off the wire.
	nw := testNetwork(t)
	srv := newTestServer(t, nw, Config{Workers: 1, QueueSize: 2, MaxSourceFraction: 1})
	g := newGate()
	srv.workerGate = g.hook()
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	// Deferred after ts.Close, so it runs first: ts.Close waits for the
	// handlers parked behind the gate.
	released := false
	defer func() {
		if !released {
			close(g.release)
		}
	}()
	saturate(t, ts, g)
	for start := time.Now(); srv.ServerStats().Accepted != 3; {
		if time.Since(start) > 5*time.Second {
			t.Fatal("timed out waiting for saturation")
		}
		time.Sleep(time.Millisecond)
	}
	// 2 queued, draining at an observed 0.5 q/s → ceil(2/0.5) = 4 seconds.
	srv.drainRate.Store(math.Float64bits(0.5))
	resp, _ := postRoute(t, ts, `{"s":0,"t":5,"source":"y"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated POST = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "4" {
		t.Fatalf("Retry-After = %q, want 4 (depth 2 at 0.5 q/s)", got)
	}
	released = true
	close(g.release)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// saturate fills a one-worker, two-slot server parked on g: it posts "a",
// waits until the worker holds it, then posts "b" and "c" into the queue.
// Posting all three at once could queue two before the worker dequeues
// one and shed the third.
func saturate(t *testing.T, ts *httptest.Server, g *gate) {
	t.Helper()
	// The answers are not checked: a post that fails never reaches
	// Accepted, which the callers wait for.
	post := func(src string) {
		go func() {
			resp, err := http.Post(ts.URL+"/route", "application/json", strings.NewReader(`{"s":0,"t":5,"source":"`+src+`"}`))
			if err == nil {
				resp.Body.Close()
			}
		}()
	}
	post("a")
	select {
	case <-g.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for the worker to take the first request")
	}
	post("b")
	post("c")
}

// routeBodies are the POST /route bodies the HTTP tests send, plus the two
// deadlines either side of the largest that fits a time.Duration.
func routeBodies(n int) []string {
	return []string{
		`{"s":0,"t":5}`,
		`{"s":0,"t":5,"source":"y"}`,
		`{"s":0,"t":` + itoa(n-1) + `}`,
		`{"s":-1,"t":2}`,
		`{"s":0,"t":999999}`,
		`not json`,
		`{"s":0,"t":5,"deadline_ms":-1}`,
		`{"s":0,"t":5,"deadline_ms":60000}`,
		`{"s":0,"t":5,"deadline_ms":9223372036854}`,
		`{"s":0,"t":5,"deadline_ms":9223372036855}`,
		`{"s":3,"t":7,"deliver":true}`,
	}
}

// startedServer returns a started one-worker server over testNetwork that
// shuts down when the test ends.
func startedServer(t testing.TB) *Server {
	t.Helper()
	srv := newTestServer(t, testNetwork(t), Config{Workers: 1, QueueSize: 4})
	srv.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Error(err)
		}
	})
	return srv
}

// serveRoute posts body to h's /route and returns the recorded answer.
func serveRoute(h http.Handler, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/route", strings.NewReader(body)))
	return rec
}

// TestRouteInputBounds pins POST /route's two input bounds. A deadline_ms
// whose duration does not fit in an int64 is 400: it used to wrap to a
// deadline in the past and shed as 504 on an idle server. A body is read up
// to 1 MiB, as the gateway reads it, and one byte more is 400.
func TestRouteInputBounds(t *testing.T) {
	h := startedServer(t).Handler()
	const limit = 1 << 20
	pad := func(n int) string { return strings.Repeat(" ", n-len(`{"s":0,"t":5}`)) + `{"s":0,"t":5}` }
	for _, c := range []struct {
		name, body string
		want       int
	}{
		{"a minute", `{"s":0,"t":5,"deadline_ms":60000}`, http.StatusOK},
		{"the largest deadline", `{"s":0,"t":5,"deadline_ms":9223372036854}`, http.StatusOK},
		{"one ms past it", `{"s":0,"t":5,"deadline_ms":9223372036855}`, http.StatusBadRequest},
		{"10^13 ms", `{"s":0,"t":5,"deadline_ms":10000000000000}`, http.StatusBadRequest},
		{"largest int", `{"s":0,"t":5,"deadline_ms":9223372036854775807}`, http.StatusBadRequest},
		{"a body of 1 MiB", pad(limit), http.StatusOK},
		{"a byte more", pad(limit + 1), http.StatusBadRequest},
	} {
		rec := serveRoute(h, c.body)
		if rec.Code != c.want {
			t.Errorf("%s: POST /route = %d (%s), want %d", c.name, rec.Code, strings.TrimSpace(rec.Body.String()), c.want)
		}
	}
}

// FuzzRouteBody posts fuzzed bodies to one started server's /route. No body
// may panic the handler or draw a status outside the API's set. A routed
// answer that reached t must run from s to t. A body that decodes to node
// IDs in range and a deadline of at least a second must not be shed as
// expired: the server is idle, so only a deadline computed wrongly could
// have passed.
func FuzzRouteBody(f *testing.F) {
	srv := startedServer(f)
	n := srv.nw.G.N()
	for _, b := range routeBodies(n) {
		f.Add(b)
	}
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, body string) {
		rec := serveRoute(h, body)
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusMethodNotAllowed, http.StatusTooManyRequests,
			http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		default:
			t.Fatalf("POST /route %q = %d: %s", body, rec.Code, rec.Body.String())
		}
		var req routeRequest
		decoded := json.NewDecoder(strings.NewReader(body)).Decode(&req) == nil &&
			req.S >= 0 && req.S < n && req.T >= 0 && req.T < n
		if decoded && req.DeadlineMS >= 1000 && rec.Code == http.StatusGatewayTimeout {
			t.Fatalf("POST /route %q on an idle server = 504: %s", body, rec.Body.String())
		}
		if rec.Code != http.StatusOK {
			return
		}
		var rr routeResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &rr); err != nil {
			t.Fatalf("POST /route %q = 200 with an undecodable answer: %v", body, err)
		}
		if rr.Reached && (!decoded || len(rr.Path) == 0 || rr.Path[0] != req.S || rr.Path[len(rr.Path)-1] != req.T) {
			t.Fatalf("POST /route %q reached along %v, which does not run from s to t", body, rr.Path)
		}
	})
}
