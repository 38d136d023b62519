// The HTTP/JSON face of the server: POST /route answers queries, GET /metrics
// serves the live registry in Prometheus text format, GET /healthz and
// GET /readyz split liveness from readiness (healthz: the process is alive,
// always ok; readyz: 503 before Start has brought the worker pool up and
// during drain — the signal a cluster gateway keys failover off), and
// GET /stats exposes the admission accounting. Backpressure is explicit on
// the wire: a shed admission is 429 Too Many Requests with a Retry-After
// hint, a draining server is 503, an expired deadline is 504.

package serve

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"strconv"
	"time"

	"hybridroute/internal/sim"
)

// routeRequest is the POST /route body.
type routeRequest struct {
	S          int    `json:"s"`
	T          int    `json:"t"`
	Source     string `json:"source,omitempty"`
	DeadlineMS int    `json:"deadline_ms,omitempty"`
	Deliver    bool   `json:"deliver,omitempty"`
}

// maxBodyBytes caps a POST /route body, as the gateway caps the bodies it
// forwards.
const maxBodyBytes = 1 << 20

// maxDeadlineMS is the largest deadline_ms whose time.Duration fits in an
// int64; a larger one would wrap to a deadline in the past.
const maxDeadlineMS = math.MaxInt64 / int64(time.Millisecond)

// routeResponse is the POST /route answer.
type routeResponse struct {
	Reached      bool   `json:"reached"`
	Case         int    `json:"case"`
	Path         []int  `json:"path,omitempty"`
	Hops         int    `json:"hops"`
	PlanFallback bool   `json:"plan_fallback,omitempty"`
	DeliveredSim bool   `json:"delivered_sim,omitempty"`
	Retransmits  int    `json:"retransmits,omitempty"`
	QueuedUS     int64  `json:"queued_us"`
	LatencyUS    int64  `json:"latency_us"`
	Error        string `json:"error,omitempty"`
}

// Handler returns the server's HTTP API. The caller owns the http.Server
// lifecycle; Shutdown the serve.Server first so in-flight HTTP requests
// drain with the queue.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/route", s.handleRoute)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/stats", s.handleStats)
	return mux
}

func (s *Server) handleRoute(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var body routeRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&body); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	n := s.nw.G.N()
	if body.S < 0 || body.S >= n || body.T < 0 || body.T >= n {
		http.Error(w, "node id out of range", http.StatusBadRequest)
		return
	}
	if int64(body.DeadlineMS) > maxDeadlineMS {
		http.Error(w, "deadline_ms out of range", http.StatusBadRequest)
		return
	}
	req := Request{
		S:       sim.NodeID(body.S),
		T:       sim.NodeID(body.T),
		Source:  body.Source,
		Deliver: body.Deliver,
	}
	if body.DeadlineMS > 0 {
		req.Deadline = time.Now().Add(time.Duration(body.DeadlineMS) * time.Millisecond)
	}
	resp, err := s.Do(req)
	if err != nil {
		s.writeShed(w, err)
		return
	}
	out := routeResponse{
		Reached:      resp.Outcome.Reached,
		Case:         resp.Outcome.Case,
		Hops:         maxInt(0, len(resp.Outcome.Path)-1),
		PlanFallback: resp.Outcome.PlanFallback,
		QueuedUS:     resp.Queued.Microseconds(),
		LatencyUS:    resp.Latency.Microseconds(),
	}
	for _, v := range resp.Outcome.Path {
		out.Path = append(out.Path, int(v))
	}
	if resp.Transport != nil {
		out.DeliveredSim = resp.Transport.DeliveredSim
		out.Retransmits = resp.Transport.Retransmits
	}
	status := http.StatusOK
	if resp.Err != nil {
		out.Error = resp.Err.Error()
		switch {
		case errors.Is(resp.Err, ErrDeadlineExceeded):
			status = http.StatusGatewayTimeout
		default:
			status = http.StatusBadGateway
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(out)
}

// writeShed maps an admission error onto its backpressure status code. The
// Retry-After hint is derived from the observed drain rate and the current
// backlog, not hardcoded: a server clearing 1000 q/s with 10 queued should
// invite the client straight back, one wedged behind a slow simulator with a
// full queue should not.
func (s *Server) writeShed(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrSourceShare):
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter()))
		http.Error(w, err.Error(), http.StatusTooManyRequests)
	case errors.Is(err, ErrDraining), errors.Is(err, ErrNotStarted):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case errors.Is(err, ErrDeadlineExceeded):
		http.Error(w, err.Error(), http.StatusGatewayTimeout)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// retryAfter derives the shed hint from the current queue depth and the
// drain rate the fold loop last observed.
func (s *Server) retryAfter() int {
	return retryAfterHint(len(s.queue), math.Float64frombits(s.drainRate.Load()))
}

// coldStartRate is the drain rate (queries/sec) assumed before the fold loop
// has observed a real one. Deliberately pessimistic: a cold server shedding
// with backlog has demonstrated zero drainage, so the hint must grow with the
// backlog instead of inviting every shed client straight back into a queue
// nothing is emptying yet.
const coldStartRate = 64.0

// retryAfterHint is the pure derivation: the whole seconds the current
// backlog needs to clear at the observed completion rate, at least 1, capped
// at 30 — past that the hint stops being scheduling advice and becomes an
// outage signal the client should answer with its own backoff. With no rate
// observed yet (cold server) the backlog is priced at the pessimistic
// coldStartRate, so depth still scales the hint: the old constant of 1
// applied even with hundreds of requests queued behind an unobserved drain.
func retryAfterHint(depth int, rate float64) int {
	if depth <= 0 {
		return 1
	}
	if rate <= 0 {
		rate = coldStartRate
	}
	secs := int(math.Ceil(float64(depth) / rate))
	if secs < 1 {
		return 1
	}
	if secs > 30 {
		return 30
	}
	return secs
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// Fold on demand so a scrape always sees current counters, not the ones
	// from up to MetricsInterval ago.
	s.fold()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(s.reg.PrometheusText()))
}

// handleHealthz is pure liveness: the process is up and handling HTTP. It
// stays ok through a drain (the old combined endpoint flipped to 503 while
// draining, which read as "restart me" to a process supervisor mid-drain);
// routability moved to /readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	_, _ = w.Write([]byte("ok\n"))
}

// handleReadyz is readiness: 503 until Start has completed bringing the
// serving pool up, and 503 again once a drain begins. A gateway keys its
// live-replica set off this endpoint — a backend that is alive but still
// warming (or emptying its queue on the way down) must not receive traffic.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		http.Error(w, "not started", http.StatusServiceUnavailable)
		return
	}
	s.admMu.Lock()
	draining := s.draining
	s.admMu.Unlock()
	if draining {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	_, _ = w.Write([]byte("ready\n"))
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(s.ServerStats())
}
