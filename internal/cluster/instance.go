// In-process serve backends: each Instance is a full serve.Server (its own
// engine and answer cache over the shared read-only Network) listening on its
// own loopback socket, wrapped in a chaos shim that can kill, pause/resume or
// slow the instance without the server's cooperation — the faults arrive at
// the process boundary, exactly where a real deployment's would.

package cluster

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"hybridroute/internal/core"
	"hybridroute/internal/serve"
)

// InstanceOptions tunes the spawned backends.
type InstanceOptions struct {
	// Workers / CacheSize size each backend's engine; <= 0 means the serve
	// and engine defaults.
	Workers   int
	CacheSize int
	// QueueSize bounds each backend's admission queue; <= 0 means the serve
	// default.
	QueueSize int
}

// Instance is one in-process backend: serve.Server + HTTP listener + chaos
// hooks. Create with SpawnInstances.
type Instance struct {
	Index  int
	ID     string
	Server *serve.Server

	hs  *http.Server
	ln  net.Listener
	url string

	slowNs atomic.Int64
	killed atomic.Bool

	// gate is non-nil while paused; requests park on it in the shim.
	gateMu sync.Mutex
	gate   chan struct{}
}

// SpawnInstances builds and starts n backends over one shared preprocessed
// network (the network is read-only on the query path, so instances share it
// safely; each has a private engine and answer cache). Instance IDs are
// "i0".."iN-1"; each listens on its own 127.0.0.1 ephemeral port.
func SpawnInstances(nw *core.Network, n int, opt InstanceOptions) ([]*Instance, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster: need at least 1 instance, got %d", n)
	}
	instances := make([]*Instance, 0, n)
	fail := func(err error) ([]*Instance, error) {
		for _, in := range instances {
			in.Kill()
		}
		return nil, err
	}
	for i := 0; i < n; i++ {
		eng := core.NewEngine(nw, core.EngineConfig{Workers: opt.Workers, CacheSize: opt.CacheSize})
		srv, err := serve.New(eng, serve.Config{
			InstanceID: fmt.Sprintf("i%d", i),
			Workers:    opt.Workers,
			QueueSize:  opt.QueueSize,
		})
		if err != nil {
			return fail(fmt.Errorf("cluster: instance %d: %w", i, err))
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fail(fmt.Errorf("cluster: instance %d listen: %w", i, err))
		}
		in := &Instance{
			Index:  i,
			ID:     fmt.Sprintf("i%d", i),
			Server: srv,
			ln:     ln,
			url:    "http://" + ln.Addr().String(),
		}
		in.hs = &http.Server{Handler: in.shim(srv.Handler())}
		srv.Start()
		go func() { _ = in.hs.Serve(ln) }()
		instances = append(instances, in)
	}
	return instances, nil
}

// URL is the backend's base URL (http://127.0.0.1:PORT).
func (in *Instance) URL() string { return in.url }

// shim is the chaos middleware: every request first parks on the pause gate,
// then sleeps the injected latency, then reaches the real handler.
func (in *Instance) shim(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		in.gateMu.Lock()
		gate := in.gate
		in.gateMu.Unlock()
		if gate != nil {
			select {
			case <-gate:
			case <-r.Context().Done():
				return
			}
		}
		if d := in.slowNs.Load(); d > 0 {
			select {
			case <-time.After(time.Duration(d)):
			case <-r.Context().Done():
				return
			}
		}
		h.ServeHTTP(w, r)
	})
}

// Kill abruptly terminates the instance's HTTP face: the listener closes and
// every active connection is reset. In-flight requests are lost from the
// client's point of view — which is the failure the gateway's failover must
// absorb. Idempotent.
func (in *Instance) Kill() {
	if in.killed.Swap(true) {
		return
	}
	in.Resume() // a paused instance must not leave requests parked forever
	_ = in.hs.Close()
}

// Killed reports whether Kill has been called.
func (in *Instance) Killed() bool { return in.killed.Load() }

// Pause stalls the instance: requests block before reaching the server until
// Resume. Idempotent.
func (in *Instance) Pause() {
	in.gateMu.Lock()
	if in.gate == nil {
		in.gate = make(chan struct{})
	}
	in.gateMu.Unlock()
}

// Resume releases a paused instance. Idempotent.
func (in *Instance) Resume() {
	in.gateMu.Lock()
	if in.gate != nil {
		close(in.gate)
		in.gate = nil
	}
	in.gateMu.Unlock()
}

// Slow injects d of latency in front of every request; 0 clears it.
func (in *Instance) Slow(d time.Duration) { in.slowNs.Store(int64(d)) }

// Drain gracefully stops the instance: the serve layer empties its queue
// (accepted == completed), then the HTTP server shuts down. A killed
// instance drains only its serve side (the HTTP face is already gone).
func (in *Instance) Drain(ctx context.Context) error {
	err := in.Server.Shutdown(ctx)
	if !in.killed.Swap(true) {
		in.Resume()
		if herr := in.hs.Shutdown(ctx); err == nil {
			err = herr
		}
	}
	return err
}
