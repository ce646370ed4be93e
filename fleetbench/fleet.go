package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
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

// Fleet shape and timing constants. They mirror the `vesta serve` /
// `vesta route` defaults wherever one exists (probe interval 1s, long poll
// 25s, follower retry 500ms); the per-node worker count is 1 so the two
// nodes together match the 2-CPU machine the benchmark is sized for.
const (
	knowledgeSeed = 1
	nodeWorkers   = 1
	probeInterval = time.Second
	longPoll      = 25 * time.Second
	followerRetry = 500 * time.Millisecond
)

// fleet is an in-process leader + long-poll follower + router, each on its
// own loopback listener, wired exactly as `vesta serve -replicate -state-dir`,
// `vesta serve -follow` and `vesta route` wire them.
type fleet struct {
	base     *core.Snapshot // epoch-0 trained knowledge, the leader's start
	mgr      *wal.Manager
	leader   *replicate.Leader
	lsrv     *serve.Server
	fsrv     *serve.Server
	follower *replicate.Follower
	router   *replicate.Router

	leaderURL, followerURL, routerURL string

	https  []*http.Server
	cancel context.CancelFunc
	wg     sync.WaitGroup
	dir    string
}

// train runs the offline phase: profile the source-training workloads and
// build the knowledge snapshot plus its predict plan.
func train() (*core.Snapshot, error) {
	sys, err := core.New(core.Config{Seed: knowledgeSeed, Workers: 2}, cloud.Catalog120())
	if err != nil {
		return nil, err
	}
	meter := oracle.NewMeter(sim.New(sim.DefaultConfig()), knowledgeSeed)
	if err := sys.TrainOffline(workload.BySet(workload.SourceTraining), meter); err != nil {
		return nil, fmt.Errorf("train offline: %w", err)
	}
	snap, err := sys.Snapshot()
	if err != nil {
		return nil, err
	}
	return snap, snap.PreparePlan()
}

// listen serves h on a fresh loopback port and returns its base URL.
func (f *fleet) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	f.https = append(f.https, srv)
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		_ = srv.Serve(ln) // returns ErrServerClosed on Close
	}()
	return "http://" + ln.Addr().String(), nil
}

// startFleet trains the knowledge and brings the fleet up under dir; it
// returns once the follower has completed a sync round and the router has
// probed both nodes healthy. A non-nil tr installs the timing wrappers.
func startFleet(dir string, tr *tracer) (*fleet, error) {
	base, err := train()
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	f := &fleet{base: base, cancel: cancel, dir: dir}
	if err := f.start(ctx, tr); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

func (f *fleet) start(ctx context.Context, tr *tracer) error {
	mgr, snap, err := wal.Open(f.base, wal.Config{Dir: f.dir})
	if err != nil {
		return fmt.Errorf("open wal: %w", err)
	}
	f.mgr = mgr
	f.leader, err = replicate.NewLeader(snap, tr.wal("wal.append", mgr), replicate.LeaderConfig{MaxWait: longPoll})
	if err != nil {
		return err
	}
	f.lsrv, err = serve.New(snap, serve.Config{
		Workers:    nodeWorkers,
		WAL:        tr.wal("replicate.leader_append", f.leader),
		DecodeBase: f.base,
	})
	if err != nil {
		return err
	}
	f.lsrv.SetReplicationStats(func() any { return f.leader.LeaderStats() })
	mux := http.NewServeMux()
	mux.Handle("/replicate/", f.leader.Handler())
	mux.Handle("/", tr.node(f.lsrv.Handler()))
	if f.leaderURL, err = f.listen(mux); err != nil {
		return err
	}

	// The follower is a separate node: it starts from the knowledge's encoded
	// bytes, as a process loading the same knowledge would, and shares no
	// memory with the leader.
	var enc bytes.Buffer
	if err := f.base.Encode(&enc); err != nil {
		return err
	}
	fbase, err := core.DecodeSnapshot(&enc, f.base.Config(), cloud.Catalog120())
	if err != nil {
		return err
	}
	f.fsrv, err = serve.New(fbase, serve.Config{Workers: nodeWorkers, ReadOnly: true, DecodeBase: fbase})
	if err != nil {
		return err
	}
	transport := tr.transport(&replicate.HTTPTransport{URL: f.leaderURL})
	f.follower, err = replicate.NewFollower(f.fsrv, fbase, transport, nil)
	if err != nil {
		return err
	}
	f.fsrv.SetReplicationStats(func() any { return f.follower.Stats() })
	if _, err := f.follower.SyncOnce(); err != nil {
		return fmt.Errorf("follower first sync: %w", err)
	}
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		if err := f.follower.RunWait(ctx, longPoll, followerRetry); err != nil {
			fmt.Fprintf(os.Stderr, "fleetbench: follower diverged: %v\n", err)
		}
	}()
	if f.followerURL, err = f.listen(tr.node(f.fsrv.Handler())); err != nil {
		return err
	}

	client := &http.Client{
		Timeout:   90 * time.Second,
		Transport: tr.roundTripper(newTransport()),
	}
	f.router, err = replicate.NewRouter(replicate.RouterConfig{
		Backends: []string{f.leaderURL, f.followerURL},
		Seed:     1,
		Client:   client,
	})
	if err != nil {
		return err
	}
	if n := f.router.ProbeAll(); n != 2 {
		return fmt.Errorf("router probed %d of 2 backends healthy", n)
	}
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		f.router.Run(ctx, probeInterval)
	}()
	f.routerURL, err = f.listen(tr.router(f.router.Handler()))
	return err
}

// newTransport is the keep-alive HTTP transport of the benchmark's two
// clients: the load driver's and the router's forwarding client.
func newTransport() *http.Transport {
	return &http.Transport{
		MaxIdleConns:        64,
		MaxIdleConnsPerHost: 16,
		IdleConnTimeout:     90 * time.Second,
		DisableCompression:  true,
	}
}

// caughtUp waits until the follower serves the leader's acked epoch with an
// identical encoded snapshot, or the timeout passes.
func (f *fleet) caughtUp(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		ack := f.leader.Ack()
		if f.fsrv.Snapshot().Epoch() == ack && f.lsrv.Snapshot().Epoch() == ack {
			var l, fl bytes.Buffer
			if err := f.lsrv.Snapshot().Encode(&l); err != nil {
				return err
			}
			if err := f.fsrv.Snapshot().Encode(&fl); err != nil {
				return err
			}
			if !bytes.Equal(l.Bytes(), fl.Bytes()) {
				return fmt.Errorf("leader and follower snapshots differ at epoch %d", ack)
			}
			return nil
		}
		if err := f.follower.Broken(); err != nil {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("follower at epoch %d, leader ack %d after %s",
				f.fsrv.Snapshot().Epoch(), ack, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// replicated checks, once the follower has caught up, that the leader's
// epoch equals the number of acknowledged absorbs.
func (f *fleet) replicated(acked int) error {
	if err := f.caughtUp(10 * time.Second); err != nil {
		return err
	}
	if ack := f.leader.Ack(); ack != uint64(acked) {
		return fmt.Errorf("leader epoch %d after %d acked absorbs", ack, acked)
	}
	return nil
}

// close stops every goroutine the fleet started and waits for them, then
// drains the servers and closes the WAL.
func (f *fleet) close() error {
	f.cancel()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var errs []error
	for _, s := range f.https {
		if err := s.Shutdown(ctx); err != nil {
			errs = append(errs, err)
			s.Close()
		}
	}
	f.wg.Wait()
	if f.lsrv != nil {
		f.lsrv.Close()
	}
	if f.fsrv != nil {
		f.fsrv.Close()
	}
	if f.mgr != nil {
		errs = append(errs, f.mgr.Close())
	}
	errs = append(errs, os.RemoveAll(f.dir))
	return errors.Join(errs...)
}
