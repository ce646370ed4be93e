package main

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"vesta/internal/cloud"
	"vesta/internal/core"
	"vesta/internal/oracle"
	"vesta/internal/replicate"
	"vesta/internal/serve"
	"vesta/internal/sim"
	"vesta/internal/wal"
	"vesta/internal/workload"
)

// opHeader carries the driver's op index to the router wrapper in a traced
// run, so router self time can be paired with the client's time per request.
const opHeader = "X-Fleetbench-Op"

// tracer collects per-layer timings from wrappers installed at the fleet's
// public seams only: node and router HTTP handlers, the router's forwarding
// RoundTripper, the two WriteAheadLog layers and the follower's transport.
// Every method is safe on a nil *tracer and then installs nothing, which is
// the untraced run.
type tracer struct {
	mu      sync.Mutex
	samples map[string][]float64 // milliseconds, by layer sample name
	ackAt   map[uint64]time.Time // leader ack time of epochs not yet fetched past
	fetches int                  // follower fetches that delivered frames
	frames  uint64               // records those fetches delivered

	fwd []atomic.Int64 // forward nanoseconds per driver op (router wrapper)
}

type fwdKey struct{}

func newTracer() *tracer {
	return &tracer{samples: map[string][]float64{}, ackAt: map[uint64]time.Time{}}
}

// reset drops everything recorded so far (warm-up) and sizes the per-op
// forward table for the measured phase.
func (t *tracer) reset(ops int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.samples = map[string][]float64{}
	t.fetches, t.frames = 0, 0
	t.fwd = make([]atomic.Int64, ops)
}

func (t *tracer) add(name string, d time.Duration) {
	t.mu.Lock()
	t.samples[name] = append(t.samples[name], ms(d))
	t.mu.Unlock()
}

func (t *tracer) get(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.samples[name]...)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// node wraps a serve.Server handler: POST /predict time is serve.handler,
// POST /absorb time is serve.absorb.
func (t *tracer) node(h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		switch r.URL.Path {
		case "/predict":
			t.add("serve.handler", time.Since(start))
		case "/absorb":
			t.add("serve.absorb", time.Since(start))
		}
	})
}

// router wraps the router's handler and hands the forwarding RoundTripper a
// per-request accumulator through the request context (the router forwards
// with the incoming request's context).
func (t *tracer) router(h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var fwd atomic.Int64
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), fwdKey{}, &fwd)))
		if i, err := strconv.Atoi(r.Header.Get(opHeader)); err == nil {
			t.mu.Lock()
			if i >= 0 && i < len(t.fwd) {
				t.fwd[i].Store(fwd.Load())
			}
			t.mu.Unlock()
		}
	})
}

// forwardNS is the router's total forwarding time for driver op i.
func (t *tracer) forwardNS(i int) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.fwd[i].Load()
}

type timedRoundTripper struct {
	inner http.RoundTripper
	t     *tracer
}

func (rt timedRoundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := rt.inner.RoundTrip(req)
	if req.URL.Path != "/predict" {
		return resp, err // health probes
	}
	d := time.Since(start)
	rt.t.add("router.forward", d)
	if fwd, ok := req.Context().Value(fwdKey{}).(*atomic.Int64); ok {
		fwd.Add(int64(d))
	}
	return resp, err
}

// roundTripper times the router's forwarding hop (headers received; the
// backends answer small bodies in one write).
func (t *tracer) roundTripper(inner http.RoundTripper) http.RoundTripper {
	if t == nil {
		return inner
	}
	return timedRoundTripper{inner: inner, t: t}
}

// timedWAL times Append on one WriteAheadLog layer and forwards the optional
// interfaces serve type-asserts (Stats, Install).
type timedWAL struct {
	inner serve.WriteAheadLog
	name  string
	t     *tracer
	acks  bool // the leader layer: its Append return is the replication ack
}

func (w *timedWAL) Append(name string, labelWeights, prunedVec []float64, epoch uint64) error {
	start := time.Now()
	err := w.inner.Append(name, labelWeights, prunedVec, epoch)
	end := time.Now()
	w.t.add(w.name, end.Sub(start))
	if w.acks && err == nil {
		w.t.mu.Lock()
		w.t.ackAt[epoch] = end
		w.t.mu.Unlock()
	}
	return err
}

func (w *timedWAL) AppendCatalog(up cloud.Update, epoch uint64) error {
	return w.inner.AppendCatalog(up, epoch)
}

func (w *timedWAL) Committed(snap *core.Snapshot) error { return w.inner.Committed(snap) }

func (w *timedWAL) Stats() wal.Stats {
	return w.inner.(interface{ Stats() wal.Stats }).Stats()
}

func (w *timedWAL) Install(snap *core.Snapshot) error {
	inst, ok := w.inner.(serve.CheckpointInstaller)
	if !ok {
		return fmt.Errorf("fleetbench: %s cannot install checkpoints", w.name)
	}
	return inst.Install(snap)
}

// wal wraps one WriteAheadLog layer; name is its sample name. Both wrapped
// layers (wal.Manager, replicate.Leader) implement Stats and Install.
func (t *tracer) wal(name string, inner serve.WriteAheadLog) serve.WriteAheadLog {
	if t == nil {
		return inner
	}
	return &timedWAL{inner: inner, name: name, t: t, acks: name == "replicate.leader_append"}
}

// timedTransport observes the follower's long-poll fetches. A record counts
// as applied when the follower's next FetchWait asks from beyond it, which
// it does only after replaying the previous batch.
type timedTransport struct {
	inner replicate.WaitTransport
	t     *tracer
}

func (tt timedTransport) Fetch(from uint64) (*replicate.Batch, error) {
	tt.t.applied(from)
	return tt.inner.Fetch(from)
}

func (tt timedTransport) FetchWait(ctx context.Context, from uint64, wait time.Duration) (*replicate.Batch, error) {
	tt.t.applied(from)
	b, err := tt.inner.FetchWait(ctx, from, wait)
	if err == nil && len(b.Frames) > 0 {
		tt.t.mu.Lock()
		tt.t.fetches++
		tt.t.frames += b.Ack - b.From
		tt.t.mu.Unlock()
	}
	return b, err
}

func (t *tracer) applied(from uint64) {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	for epoch, at := range t.ackAt {
		if epoch <= from {
			t.samples["replicate.lag"] = append(t.samples["replicate.lag"], ms(now.Sub(at)))
			delete(t.ackAt, epoch)
		}
	}
}

func (t *tracer) transport(inner replicate.WaitTransport) replicate.WaitTransport {
	if t == nil {
		return inner
	}
	return timedTransport{inner: inner, t: t}
}

// timedMeter is an oracle.Service that times every profile it takes.
type timedMeter struct {
	inner oracle.Service
	spent time.Duration
	times []float64
}

func (m *timedMeter) TryProfile(app workload.App, vm cloud.VMType) (sim.Profile, error) {
	start := time.Now()
	p, err := m.inner.TryProfile(app, vm)
	d := time.Since(start)
	m.spent += d
	m.times = append(m.times, ms(d))
	return p, err
}

func (m *timedMeter) Runs() int             { return m.inner.Runs() }
func (m *timedMeter) SimConfig() sim.Config { return m.inner.SimConfig() }

// replay re-runs sample reads in process through Snapshot.PredictFast with a
// timed, unmemoized meter: predict self time (CMF transfer and ranking, the
// meter's time excluded) and the cost of one simulated profile.
func replay(snap *core.Snapshot, reqs []serve.Request) (self, profile []float64, err error) {
	simulator := sim.New(sim.DefaultConfig())
	for _, r := range reqs {
		app, err := workload.ByName(r.App)
		if err != nil {
			return nil, nil, err
		}
		m := &timedMeter{inner: oracle.NewMeter(simulator, r.Seed)}
		start := time.Now()
		if _, err := snap.PredictFast(app, m, false); err != nil {
			return nil, nil, fmt.Errorf("replay %s: %w", r.App, err)
		}
		self = append(self, ms(time.Since(start)-m.spent))
		profile = append(profile, m.times...)
	}
	return self, profile, nil
}
