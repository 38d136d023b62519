// Link-quality telemetry: per-directed-link loss estimates learned from the
// reliable transport's own ack outcomes. The estimator has no oracle access
// to the simulator's fault configuration — everything it knows was observed
// as "this transfer over (u, v) needed k attempts and was (not) acknowledged".
// The loss-aware planner turns the estimates into ETX-style edge multipliers
// (expected transmission count 1/(1−p̂)), so routes bend away from links that
// have been dropping messages instead of burning retransmission budget
// through them.

package core

import (
	"sort"
	"sync"

	"hybridroute/internal/sim"
)

// DefaultLinkAlpha is the EWMA smoothing factor used when NewLinkStats is
// given a non-positive alpha: each observed send outcome moves the estimate a
// quarter of the way toward the observation.
const DefaultLinkAlpha = 0.25

// maxLinkLoss caps the estimate inside ETX so a link observed at p̂ → 1
// yields a very large but finite multiplier; the true p̂ = 1 limit (edge
// removal) is reserved for nodes the transport has declared dead.
const maxLinkLoss = 0.98

// linkKey identifies a directed ad hoc link.
type linkKey struct {
	from, to sim.NodeID
}

// LinkStats aggregates per-directed-link loss estimates. It is safe for
// concurrent use; the generation counter advances exactly when some estimate
// changes, so the engine's answer cache, keyed by it, never serves a plan
// computed from stale link quality — and stay byte-stable as long as every observation is a
// clean first-attempt success (the lossless regime).
type LinkStats struct {
	mu    sync.RWMutex
	alpha float64
	est   map[linkKey]float64
	gen   uint64
}

// LinkEstimate is one directed link's current loss estimate.
type LinkEstimate struct {
	From, To sim.NodeID
	Loss     float64
}

// NewLinkStats builds an empty estimator; alpha <= 0 (or > 1) selects
// DefaultLinkAlpha.
func NewLinkStats(alpha float64) *LinkStats {
	if alpha <= 0 || alpha > 1 {
		alpha = DefaultLinkAlpha
	}
	return &LinkStats{alpha: alpha, est: make(map[linkKey]float64)}
}

// Observe folds the outcome of one reliable transfer over the directed link
// (from, to) into the estimate: a transfer acknowledged after k attempts is
// k−1 losses followed by one success; an unacknowledged transfer is k losses.
// A clean first-attempt success on a never-seen link is a no-op — it neither
// allocates an entry nor advances the generation, which is what keeps
// forced-reliable lossless runs byte-identical to an estimator-free build.
func (ls *LinkStats) Observe(from, to sim.NodeID, attempts int, acked bool) {
	losses := attempts
	if acked {
		losses = attempts - 1
	}
	if losses < 0 {
		losses = 0
	}
	ls.mu.Lock()
	defer ls.mu.Unlock()
	k := linkKey{from: from, to: to}
	p, seen := ls.est[k]
	old := p
	for i := 0; i < losses; i++ {
		p += ls.alpha * (1 - p)
	}
	if acked {
		p -= ls.alpha * p
	}
	if !seen && p == 0 {
		return
	}
	ls.est[k] = p
	if p != old {
		ls.gen++
	}
}

// Loss returns the current loss estimate p̂ for the directed link, 0 when the
// link has never been observed failing.
func (ls *LinkStats) Loss(from, to sim.NodeID) float64 {
	ls.mu.RLock()
	defer ls.mu.RUnlock()
	return ls.est[linkKey{from: from, to: to}]
}

// ETX returns the expected transmission count 1/(1−p̂) for the directed link
// (capped at p̂ = maxLinkLoss); 1 for a link with no observed loss.
func (ls *LinkStats) ETX(from, to sim.NodeID) float64 {
	p := ls.Loss(from, to)
	if p > maxLinkLoss {
		p = maxLinkLoss
	}
	return 1 / (1 - p)
}

// Generation returns the number of estimate changes so far. The engine mixes
// it into its cache keys so an estimate shift invalidates every cached answer.
func (ls *LinkStats) Generation() uint64 {
	ls.mu.RLock()
	defer ls.mu.RUnlock()
	return ls.gen
}

// Snapshot returns every tracked link's estimate, sorted (from, to) for
// deterministic reporting.
func (ls *LinkStats) Snapshot() []LinkEstimate {
	ls.mu.RLock()
	out := make([]LinkEstimate, 0, len(ls.est))
	for k, p := range ls.est {
		out = append(out, LinkEstimate{From: k.from, To: k.to, Loss: p})
	}
	ls.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}
