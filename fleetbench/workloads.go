package main

import (
	"encoding/json"
	"fmt"
	"time"

	"vesta/internal/loadgen"
	"vesta/internal/rng"
	"vesta/internal/serve"
	"vesta/internal/workload"
)

// spec is one workload. Rates are constants of the definition, never derived
// at run time: a rate searched for on the code under test would move with it
// and hide a gain. They sit at roughly a third of what the 2-CPU fleet
// sustains, so queues stay short and latency is service time, not backlog.
type spec struct {
	name      string
	readRPS   float64
	absorbRPS float64
	// limit is the latency limit of good_share: a read or absorb answered 200
	// later than this after its due time counts as missing.
	limit time.Duration
	// tenants and zipfS shape loadgen's key popularity; a request's seed is
	// its tenant id + 1, so tenants is also the number of seeds per app.
	tenants int
	zipfS   float64
	// request maps arrival i of the schedule to its predict request.
	request func(seed uint64, i int, a loadgen.Arrival) serve.Request
}

// freshSeedBase keeps fresh-write's never-repeated request seeds far from
// the tenant seeds 1..1024 the read workloads use.
const freshSeedBase = 1 << 32

var specs = map[string]spec{
	// Every read is a response-cache hit after warm-up: 30 apps × 8 seeds at
	// top 10 is at most 240 keys, far below each node's 1024-entry cache.
	// Time goes to HTTP, the router hop, JSON and the admission cache probe.
	"hit-read": {
		name: "hit-read", readRPS: 1500, limit: 10 * time.Millisecond,
		tenants: 8, zipfS: 1.1,
		request: func(_ uint64, _ int, a loadgen.Arrival) serve.Request {
			return serve.Request{App: a.App, Seed: a.Seed, Top: 10}
		},
	},
	// Every read misses the response cache (30 apps × 8 seeds × top 1..120
	// is 28.8k keys) and hits the profile memo (30 × 8 × 4 = 960 profiles
	// fit its 4096 entries): steady-state CMF solve dominates.
	"solve-read": {
		name: "solve-read", readRPS: 80, limit: 100 * time.Millisecond,
		tenants: 8, zipfS: 0,
		request: func(seed uint64, i int, a loadgen.Arrival) serve.Request {
			top := rng.New(seed^0x70b5eed).Split(uint64(i)).Intn(120) + 1
			return serve.Request{App: a.App, Seed: a.Seed, Top: top}
		},
	},
	// Reads with never-repeated seeds profile through sim on every request,
	// while absorbs on the leader append to the WAL, swap snapshots,
	// invalidate caches by epoch and replicate to the follower.
	"fresh-write": {
		name: "fresh-write", readRPS: 40, absorbRPS: 4, limit: 200 * time.Millisecond,
		tenants: 8, zipfS: 0,
		request: func(seed uint64, i int, a loadgen.Arrival) serve.Request {
			return serve.Request{App: a.App, Seed: freshSeedBase + seed<<24 + uint64(i), Top: 10}
		},
	},
}

// op is one scheduled operation: a predict read through the router or an
// absorb at the leader.
type op struct {
	due    time.Duration
	absorb bool
	req    serve.Request // reads; for absorbs the app and seed of the target
	key    int           // index of req in the plan's distinct read keys
	body   []byte        // the encoded HTTP request body
}

// plan is one workload's generated input.
type plan struct {
	spec spec
	ops  []op
	keys []serve.Request // distinct read requests, in first-use order
}

// makePlan generates the workload's inputs from seed alone: arrival times,
// kinds, apps and tenant seeds come from loadgen.Schedule.
func makePlan(s spec, seed uint64, seconds float64) (*plan, error) {
	mix := []loadgen.MixEntry{{Kind: loadgen.KindPredict, Weight: s.readRPS}}
	if s.absorbRPS > 0 {
		mix = append(mix, loadgen.MixEntry{Kind: loadgen.KindAbsorb, Weight: s.absorbRPS})
	}
	sched, err := loadgen.Schedule(loadgen.Config{
		Seed:        seed,
		DurationSec: seconds,
		Pattern:     loadgen.Pattern{Kind: loadgen.Steady, RPS: s.readRPS + s.absorbRPS},
		Mix:         mix,
		Tenants:     s.tenants,
		ZipfS:       s.zipfS,
	})
	if err != nil {
		return nil, err
	}
	p := &plan{spec: s}
	index := map[serve.Request]int{}
	for i, a := range sched {
		o := op{due: time.Duration(a.AtMS * float64(time.Millisecond)), req: s.request(seed, i, a)}
		switch a.Kind {
		case loadgen.KindAbsorb:
			o.absorb = true
			o.body, err = json.Marshal(serve.AbsorbRequest{
				Name: fmt.Sprintf("bench-%d-%d", seed, i), App: o.req.App, Seed: o.req.Seed,
			})
		case loadgen.KindPredict:
			k, ok := index[o.req]
			if !ok {
				k = len(p.keys)
				index[o.req] = k
				p.keys = append(p.keys, o.req)
			}
			o.key = k
			o.body, err = json.Marshal(o.req)
		default:
			err = fmt.Errorf("unexpected %s arrival", a.Kind)
		}
		if err != nil {
			return nil, err
		}
		p.ops = append(p.ops, o)
	}
	return p, nil
}

// pairs lists every (app, tenant seed) pair a read workload can draw.
func (p *plan) pairs() []serve.Request {
	var out []serve.Request
	for _, a := range workload.All() {
		for s := 1; s <= p.spec.tenants; s++ {
			out = append(out, serve.Request{App: a.Name, Seed: uint64(s)})
		}
	}
	return out
}
