package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// result is the client's view of one op. Times are offsets from the run's
// start; latency counts from the op's due time, so a stalled sender charges
// the wait to every request it delays (no coordinated omission).
type result struct {
	status int
	sent   time.Duration
	done   time.Duration
	hash   uint64 // FNV-1a of the response body
	err    error
}

func (r result) latency(o op) time.Duration { return r.done - o.due }
func (r result) late(o op) time.Duration    { return r.sent - o.due }

// bodyKey identifies one distinct response body for one read key.
type bodyKey struct {
	key  int
	hash uint64
}

// driver executes a plan open loop against the fleet with a fixed set of
// sender goroutines (one per CPU, at most two) over keep-alive connections.
type driver struct {
	client    *http.Client
	routerURL string
	leaderURL string
	traced    bool // tag requests with their op index for the router wrapper
}

// sleepUntil waits for t. Go timers park an idle processor in the netpoller
// at millisecond granularity, so the last two milliseconds are slept with
// nanosleep on the sender's own thread, which wakes within tens of
// microseconds.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		if d > 2*time.Millisecond {
			time.Sleep(d - 2*time.Millisecond)
			continue
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop re-checks the clock
	}
}

// run executes ops in schedule order and returns one result per op plus
// every distinct response body seen for each read key.
func (d *driver) run(start time.Time, ops []op) ([]result, map[bodyKey][]byte) {
	results := make([]result, len(ops))
	var next atomic.Int64
	var mu sync.Mutex
	bodies := map[bodyKey][]byte{}
	var wg sync.WaitGroup
	for w := 0; w < min(runtime.NumCPU(), 2); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := map[bodyKey][]byte{}
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					break
				}
				o := ops[i]
				sleepUntil(start.Add(o.due))
				r := result{sent: time.Since(start)}
				var body []byte
				r.status, body, r.err = d.send(i, o)
				r.done = time.Since(start)
				if r.status == http.StatusOK && !o.absorb {
					h := fnv.New64a()
					h.Write(body)
					r.hash = h.Sum64()
					if k := (bodyKey{o.key, r.hash}); local[k] == nil {
						local[k] = body
					}
				}
				results[i] = r
			}
			mu.Lock()
			for k, b := range local {
				bodies[k] = b
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	return results, bodies
}

// send issues one op and returns the status and body.
func (d *driver) send(i int, o op) (int, []byte, error) {
	url := d.routerURL + "/predict"
	if o.absorb {
		url = d.leaderURL + "/absorb"
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(o.body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if d.traced {
		req.Header.Set(opHeader, strconv.Itoa(i))
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, body, fmt.Errorf("%s answered %d: %s", url, resp.StatusCode, bytes.TrimSpace(body))
	}
	return resp.StatusCode, body, nil
}
