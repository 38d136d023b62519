// The gateway's HTTP face. POST /route accepts the same body as a backend's
// /route and forwards it verbatim to the owning replica set — a successful
// backend answer is proxied byte-for-byte (gateway metadata travels in
// X-Cluster-* headers, never in the body), so with chaos disabled a client
// cannot tell the gateway from a single serve.Server. GET /metrics serves the
// gateway's own registry (failovers, breaker transitions, hedges, degraded
// answers); /healthz is gateway liveness, /readyz is 503 until at least one
// backend is ready; /stats is the per-backend view.

package cluster

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"

	"hybridroute/internal/sim"
)

// Handler returns the gateway's HTTP API. The caller owns the http.Server
// lifecycle.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/route", g.handleRoute)
	mux.HandleFunc("/metrics", g.handleMetrics)
	mux.HandleFunc("/healthz", g.handleHealthz)
	mux.HandleFunc("/readyz", g.handleReadyz)
	mux.HandleFunc("/stats", g.handleStats)
	return mux
}

// gwRouteRequest is the subset of the backend route body the gateway needs
// to shard and validate; the raw bytes are what actually travel onward.
type gwRouteRequest struct {
	S       int  `json:"s"`
	T       int  `json:"t"`
	Deliver bool `json:"deliver,omitempty"`
}

func (g *Gateway) handleRoute(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	raw, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	var body gwRouteRequest
	if err := json.Unmarshal(raw, &body); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	n := g.nw.G.N()
	if body.S < 0 || body.S >= n || body.T < 0 || body.T >= n {
		http.Error(w, "node id out of range", http.StatusBadRequest)
		return
	}
	if body.Deliver {
		// The simulated delivery path mutates shared simulator state that is
		// serialized per-instance only; replicas over one shared network
		// cannot run it concurrently, and a hedged deliver would transmit
		// the payload twice.
		http.Error(w, "deliver is not supported through the cluster gateway", http.StatusBadRequest)
		return
	}
	ans := g.routeQuery(r.Context(), sim.NodeID(body.S), sim.NodeID(body.T), raw)
	if ans.backend != "" {
		w.Header().Set("X-Cluster-Backend", ans.backend)
	}
	if ans.hedged {
		w.Header().Set("X-Cluster-Hedged", "1")
	}
	if ans.degraded {
		w.Header().Set("X-Cluster-Degraded", "1")
	}
	if ans.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(ans.retryAfter))
	}
	if ans.status == http.StatusOK || ans.status == http.StatusGatewayTimeout {
		w.Header().Set("Content-Type", "application/json")
	}
	w.WriteHeader(ans.status)
	_, _ = w.Write(ans.body)
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(g.reg.PrometheusText()))
}

// handleHealthz is gateway liveness: the gateway process is up.
func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	_, _ = w.Write([]byte("ok\n"))
}

// handleReadyz is gateway readiness: at least one backend is ready to take
// traffic. (Degraded answers keep /route responsive below that bar, but a
// load balancer in front of several gateways should prefer one with live
// backends.)
func (g *Gateway) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if g.ReadyBackends() == 0 {
		http.Error(w, "no ready backends", http.StatusServiceUnavailable)
		return
	}
	_, _ = w.Write([]byte("ready\n"))
}

// BackendStatus is one backend's row in /stats.
type BackendStatus struct {
	ID        string `json:"id"`
	URL       string `json:"url"`
	Ready     bool   `json:"ready"`
	Breaker   string `json:"breaker"`
	Successes uint64 `json:"successes"`
	Failures  uint64 `json:"failures"`
}

// GatewayStats is the GET /stats document.
type GatewayStats struct {
	Backends  []BackendStatus `json:"backends"`
	Replicas  int             `json:"replicas"`
	Regions   int             `json:"regions"`
	Requests  uint64          `json:"requests"`
	Answered  uint64          `json:"answered"`
	Degraded  uint64          `json:"degraded"`
	Failovers uint64          `json:"failovers"`
	Hedges    uint64          `json:"hedges"`
	HedgeWins uint64          `json:"hedge_wins"`
	Shed      uint64          `json:"shed"`
}

// Stats snapshots the gateway's accounting.
func (g *Gateway) Stats() GatewayStats {
	counters := g.reg.Counters()
	st := GatewayStats{
		Replicas:  g.cfg.Replicas,
		Regions:   gridDim * gridDim,
		Requests:  counters["hybridroute_cluster_requests_total"],
		Answered:  counters["hybridroute_cluster_answered_total"],
		Degraded:  counters["hybridroute_cluster_degraded_answers_total"],
		Failovers: counters["hybridroute_cluster_failovers_total"],
		Hedges:    counters["hybridroute_cluster_hedges_total"],
		HedgeWins: counters["hybridroute_cluster_hedge_wins_total"],
		Shed:      counters["hybridroute_cluster_shed_backpressure_total"],
	}
	for _, b := range g.backends {
		st.Backends = append(st.Backends, BackendStatus{
			ID:        b.id,
			URL:       b.url,
			Ready:     b.ready.Load(),
			Breaker:   b.brk.State(),
			Successes: b.successes.Load(),
			Failures:  b.failures.Load(),
		})
	}
	return st
}

func (g *Gateway) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(g.Stats())
}
