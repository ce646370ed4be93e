// Command fleetbench is the repository's end-to-end benchmark: it brings up
// an in-process serving fleet (WAL-backed leader, long-poll follower, router)
// on loopback listeners, drives one workload open loop over real HTTP through
// the router, checks every answer, and prints the metrics as one JSON line.
//
//	bash fleetbench/run.sh --workload solve-read --seed 3 --seconds 15 --trace 0
//
// --trace 0 reports the end-to-end metrics with no instrumentation installed;
// --trace 1 installs timing wrappers at the fleet's public seams and reports
// the per-layer metrics instead. README.md describes the workloads and
// metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"vesta/internal/serve"
	"vesta/internal/workload"
)

// setupRuns is how many times the fleet is brought up per run; setup_s is
// their median and the last fleet serves the workload.
const setupRuns = 5

// On a read-only workload, closed-loop absorbs give absorb_p50_ms and the
// write-path layers a measurement without mixing writes into the measured
// reads: setupProbe of them on each fleet set up and discarded before the
// measured one, and finalProbe on the measured fleet after its reads. The
// samples thus span the run, not a few seconds at its end, so one slow spell
// of the shared machine moves a part of them.
const (
	setupProbe = 30
	finalProbe = 120
)

// replaySample is how many of the workload's reads the traced run replays in
// process to split predict time into core and sim.
const replaySample = 48

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "fleetbench: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload: hit-read, solve-read or fresh-write")
	seed := flag.Uint64("seed", 1, "workload seed: drives arrival times and keys")
	seconds := flag.Int("seconds", 15, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1: install timing wrappers and report per-layer metrics")
	state := flag.String("state", ".bench_build/state", "directory for the leader's WAL")
	flag.Parse()
	s, ok := specs[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("want --seconds > 0 and --trace 0 or 1")
	}
	var tr *tracer
	if *trace == 1 {
		tr = newTracer()
	}

	mark := time.Now()
	lap := func(what string) {
		fmt.Fprintf(os.Stderr, "fleetbench: %s took %.2fs\n", what, time.Since(mark).Seconds())
		mark = time.Now()
	}
	transport := newTransport()
	defer transport.CloseIdleConnections()
	newDriver := func(f *fleet) *driver {
		return &driver{
			client:    &http.Client{Timeout: 30 * time.Second, Transport: transport},
			routerURL: f.routerURL,
			leaderURL: f.leaderURL,
			traced:    tr != nil,
		}
	}
	var f *fleet
	var setups, absorbMS []float64
	var fleetErr error // a replication check that failed on any fleet
	for i := 0; i < setupRuns; i++ {
		start := time.Now()
		fl, err := startFleet(filepath.Join(*state, fmt.Sprint("wal-", i)), tr)
		if err != nil {
			return fmt.Errorf("fleet setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if i == setupRuns-1 {
			f = fl
			break
		}
		if s.absorbRPS == 0 {
			lat, err := probe(newDriver(fl), *seed, i*setupProbe, setupProbe)
			if err != nil {
				fl.close()
				return fmt.Errorf("absorb probe: %w", err)
			}
			absorbMS = append(absorbMS, lat...)
			fleetErr = errors.Join(fleetErr, fl.replicated(len(lat)))
		}
		if err := fl.close(); err != nil {
			return err
		}
		debug.FreeOSMemory() // each set-up starts from a collected heap
	}
	defer func() {
		if err := f.close(); err != nil {
			fmt.Fprintf(os.Stderr, "fleetbench: fleet shutdown: %v\n", err)
		}
	}()
	lap("set-up")

	p, err := makePlan(s, *seed, float64(*seconds))
	if err != nil {
		return err
	}
	drv := newDriver(f)
	if err := warmUp(p, f, drv); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	lap("warm-up")

	// Start the measured phase from a collected heap, so garbage left by
	// set-up and warm-up is not collected at a random point inside it.
	debug.FreeOSMemory()
	before := sample(f)
	tr.reset(len(p.ops))
	start := time.Now()
	windows := max(1, *seconds/windowSeconds)
	marks := markWindows(start, windows)
	results, bodies := drv.run(start, p.ops)
	after := sample(f)
	live := after.minus(before)
	cpu := append(append([]float64{before["cpu_ms"]}, <-marks...), after["cpu_ms"])
	peakRSS := peakRSSMB()
	lap("measured phase")
	fmt.Fprintf(os.Stderr, "fleetbench: %s seed %d: %d ops; after warm-up serve.cache_hit_ratio %.4f serve.profile_hit_ratio %.4f\n",
		s.name, *seed, len(p.ops), live.cacheHitRatio(), live.profileHitRatio())

	// Writes: the workload's own absorbs, or, on a read-only workload, the
	// rest of the closed-loop probe after the reads.
	acked := 0
	for i, o := range p.ops {
		if o.absorb && results[i].status == http.StatusOK {
			absorbMS = append(absorbMS, ms(results[i].latency(o)))
			acked++
		}
	}
	if s.absorbRPS == 0 {
		probeMS, err := probe(drv, *seed, (setupRuns-1)*setupProbe, finalProbe)
		if err != nil {
			return fmt.Errorf("absorb probe: %w", err)
		}
		acked += len(probeMS)
		absorbMS = append(absorbMS, probeMS...)
	}

	// Correctness: replicas identical, epoch = acked absorbs, and every
	// answered read checked.
	fleetErr = errors.Join(fleetErr, f.replicated(acked))
	var bad map[bodyKey]bool
	if s.absorbRPS == 0 {
		bad, err = checkBodies(f.base, p.keys, bodies)
	} else {
		bad, err = checkTokens(f.base, f.leader.Ack(), bodies)
	}
	if err != nil {
		return err
	}

	lap("write probe and checks")
	out := output{Correct: fleetErr == nil, Attempted: len(p.ops), Metrics: map[string]metric{}}
	mismatched, refused, overLimit := 0, 0, 0
	for i, o := range p.ops {
		r := results[i]
		switch {
		case r.status != http.StatusOK:
			refused++
		case !o.absorb && bad[bodyKey{o.key, r.hash}]:
			mismatched++
		case r.latency(o) > s.limit:
			overLimit++
		}
	}
	// A failed op is one the fleet did not answer, or answered wrongly. A slow
	// but correct answer is not a failure; it lowers good_share instead.
	out.Failed = refused + mismatched
	if mismatched > 0 {
		out.Correct = false
	}
	good := out.Attempted - refused - mismatched - overLimit
	fmt.Fprintf(os.Stderr, "fleetbench: attempted %d good %d failed %d (refused %d, wrong answer %d), answered over the %s limit %d\n",
		out.Attempted, good, out.Failed, refused, mismatched, s.limit, overLimit)
	fmt.Fprintf(os.Stderr, "fleetbench: absorb latency q1 %.4g median %.4g q3 %.4g ms over %d\n",
		quantile(absorbMS, 0.25), quantile(absorbMS, 0.5), quantile(absorbMS, 0.75), len(absorbMS))
	if fleetErr != nil {
		fmt.Fprintf(os.Stderr, "fleetbench: replication check failed: %v\n", fleetErr)
	}
	for i, r := range results {
		if r.err != nil {
			fmt.Fprintf(os.Stderr, "fleetbench: first refusal, op %d: %v\n", i, r.err)
			break
		}
	}

	put := func(name string, v float64, unit string) { out.Metrics[name] = metric{v, unit} }
	w := perWindow(p, results, cpu, windows)
	if tr == nil {
		for k := range bad {
			delete(bodies, k)
		}
		regret, err := meanRegret(groundTruth(), p.keys, bodies)
		if err != nil {
			return err
		}
		lap("ground truth")
		put("setup_s", median(setups), "s")
		put("read_p50_ms", lowQuartile(w.readP50), "ms")
		put("read_p90_ms", lowQuartile(w.readP90), "ms")
		put("good_share", float64(good)/float64(out.Attempted), "ratio")
		put("cpu_ms_per_req", lowQuartile(w.cpuPerOp), "ms")
		put("absorb_p50_ms", quantile(absorbMS, 0.5), "ms")
		put("selection_regret_pct", regret, "%")
		put("peak_rss_mb", peakRSS, "MB")
	} else {
		if err := layers(put, tr, f, p, results, live, lowQuartile(w.readP50)); err != nil {
			return err
		}
	}
	names := make([]string, 0, len(out.Metrics))
	for n := range out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "%-34s %14.6g %s\n", n, out.Metrics[n].Value, out.Metrics[n].Unit)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !out.Correct {
		return fmt.Errorf("correctness check failed")
	}
	return nil
}

// windowSeconds is the length of the slices of the measured phase the read
// latency and CPU metrics are computed on. Each of those metrics reports its
// lower-quartile slice (lowQuartile). Other tenants of a shared machine only
// add time, and they do it in spells of 10 to 40 seconds: a spell that covers
// half of a run moves the median slice, the lower quartile only one that
// covers three quarters. A slower program is slower in every slice, so the
// lower quartile still moves with the program.
const windowSeconds = 5

// lowQuartile is the first quartile of the per-window values.
func lowQuartile(xs []float64) float64 { return quantile(xs, 0.25) }

// markWindows records the process CPU time (ms) at each inner boundary of
// the windows of a measured phase that starts at start.
func markWindows(start time.Time, windows int) <-chan []float64 {
	out := make(chan []float64, 1)
	go func() {
		var marks []float64
		for w := 1; w < windows; w++ {
			time.Sleep(time.Until(start.Add(time.Duration(w*windowSeconds) * time.Second)))
			marks = append(marks, cpuMS())
		}
		out <- marks
	}()
	return out
}

// windowed holds one value per window of the measured phase.
type windowed struct {
	readP50, readP90, cpuPerOp []float64
}

// perWindow splits the ops by due time into windows and computes the read
// latency quantiles and the CPU per op of each; cpu holds the process CPU
// time at the windows+1 boundaries.
func perWindow(p *plan, results []result, cpu []float64, windows int) windowed {
	reads := make([][]float64, windows)
	ops := make([]int, windows)
	for i, o := range p.ops {
		w := min(int(o.due/(windowSeconds*time.Second)), windows-1)
		ops[w]++
		if !o.absorb && results[i].status == http.StatusOK {
			reads[w] = append(reads[w], ms(results[i].latency(o)))
		}
	}
	var out windowed
	for w := 0; w < windows; w++ {
		out.readP50 = append(out.readP50, quantile(reads[w], 0.5))
		out.readP90 = append(out.readP90, quantile(reads[w], 0.9))
		out.cpuPerOp = append(out.cpuPerOp, ratio(cpu[w+1]-cpu[w], float64(ops[w])))
	}
	fmt.Fprintf(os.Stderr, "fleetbench: windows read_p50 %.4g read_p90 %.4g cpu_ms/op %.4g\n",
		out.readP50, out.readP90, out.cpuPerOp)
	return out
}

// warmUp brings every cache a workload claims to exercise to its steady
// state; nothing it does is measured.
func warmUp(p *plan, f *fleet, d *driver) error {
	var reqs []serve.Request
	switch p.spec.name {
	case "hit-read":
		reqs = p.keys // every key answered once, on the node the router picks
	case "solve-read":
		// Profile every (app, seed) pair on each node, at a top outside the
		// workload's 1..120 so no measured response is cached.
		pairs := p.pairs()
		for i := range pairs {
			pairs[i].Top = 121
		}
		nodes := []*serve.Server{f.lsrv, f.fsrv}
		err := split(2*len(pairs), func(w, i int) error {
			_, err := nodes[w].PredictBytes(context.Background(), pairs[i/2])
			return err
		})
		if err != nil {
			return fmt.Errorf("profile warm-up: %w", err)
		}
		reqs = pairs[:32] // warms the HTTP connections
	default:
		for i := 0; i < 32; i++ { // seeds the measured phase never uses
			reqs = append(reqs, serve.Request{App: workload.All()[i%30].Name, Seed: freshSeedBase - 1 - uint64(i), Top: 10})
		}
	}
	ops := make([]op, len(reqs))
	for i, r := range reqs {
		b, err := json.Marshal(r)
		if err != nil {
			return err
		}
		ops[i] = op{req: r, body: b}
	}
	return split(len(ops), func(_, i int) error {
		_, _, err := d.send(-1, ops[i])
		return err
	})
}

// split runs fn(w, i) for every i in [0, n) on two goroutines, goroutine w
// taking the indices congruent to w mod 2; each stops at its first error.
func split(n int, fn func(w, i int) error) error {
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n && errs[w] == nil; i += 2 {
				errs[w] = fn(w, i)
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// probe runs the closed-loop absorbs from..from+n-1 at the leader and
// returns their latencies.
func probe(d *driver, seed uint64, from, n int) ([]float64, error) {
	var out []float64
	for i := from; i < from+n; i++ {
		app := workload.All()[i%30].Name
		b, err := json.Marshal(serve.AbsorbRequest{
			Name: fmt.Sprintf("probe-%d-%d", seed, i), App: app, Seed: freshSeedBase + uint64(i),
		})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if _, _, err := d.send(-1, op{absorb: true, body: b}); err != nil {
			return nil, err
		}
		out = append(out, ms(time.Since(start)))
	}
	return out, nil
}

// counters is one reading of every counter the benchmark differences over
// the measured phase, by name. Serve counters are summed over both nodes.
type counters map[string]float64

var runtimeNames = map[string]string{
	"alloc_bytes": "/gc/heap/allocs:bytes",
	"gc_cycles":   "/gc/cycles/total:gc-cycles",
	"gc_cpu_s":    "/cpu/classes/gc/total:cpu-seconds",
	"cpu_s":       "/cpu/classes/total:cpu-seconds",
}

// cpuMS is the process's user + system CPU time in milliseconds.
func cpuMS() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / float64(time.Millisecond)
}

func sample(f *fleet) counters {
	c := counters{"cpu_ms": cpuMS()}
	for name, rm := range runtimeNames {
		m := []metrics.Sample{{Name: rm}}
		metrics.Read(m)
		if m[0].Value.Kind() == metrics.KindUint64 {
			c[name] = float64(m[0].Value.Uint64())
		} else {
			c[name] = m[0].Value.Float64()
		}
	}
	for _, st := range []serve.Stats{f.lsrv.Stats(), f.fsrv.Stats()} {
		c["requests"] += float64(st.Requests)
		c["hits"] += float64(st.CacheHits)
		c["misses"] += float64(st.CacheMisses)
		c["coalesced"] += float64(st.Coalesced)
		c["queue_rejects"] += float64(st.QueueRejects)
		c["shed"] += float64(st.Shed)
		c["batches"] += float64(st.Batches)
		c["canceled"] += float64(st.Canceled)
		c["profile_hits"] += float64(st.ProfileHits)
		c["profile_misses"] += float64(st.ProfileMisses)
	}
	c["leader_requests"] = float64(f.lsrv.Stats().Requests)
	rs := f.router.Stats()
	c["route_requests"] = float64(rs.Requests)
	c["stale_skips"] = float64(rs.StaleSkips)
	c["failovers"] = float64(rs.Failovers)
	c["exhausted"] = float64(rs.Exhausted)
	return c
}

// minus returns the change of every counter from b to c.
func (c counters) minus(b counters) counters {
	d := counters{}
	for k, v := range c {
		d[k] = v - b[k]
	}
	return d
}

func (c counters) cacheHitRatio() float64 { return ratio(c["hits"], c["requests"]) }

func (c counters) profileHitRatio() float64 {
	return ratio(c["profile_hits"], c["profile_hits"]+c["profile_misses"])
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile interpolates linearly between the closest ranks; 0 for no data.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024                // Linux reports KiB
}

// layers computes the per-layer metrics of a traced run.
func layers(put func(string, float64, string), tr *tracer, f *fleet, p *plan, results []result, live counters, readP50 float64) error {
	var late, self []float64
	var reads []serve.Request
	for i, o := range p.ops {
		late = append(late, ms(results[i].late(o)))
		if o.absorb {
			continue
		}
		reads = append(reads, o.req)
		if results[i].status == http.StatusOK {
			self = append(self, ms(results[i].done-results[i].sent-time.Duration(tr.forwardNS(i))))
		}
	}
	var sampleReqs []serve.Request
	for i := 0; i < len(reads) && len(sampleReqs) < replaySample; i += max(1, len(reads)/replaySample) {
		sampleReqs = append(sampleReqs, reads[i])
	}
	predictSelf, profile, err := replay(f.base, sampleReqs)
	if err != nil {
		return err
	}
	lag := tr.get("replicate.lag")
	tr.mu.Lock()
	framesPerFetch := ratio(float64(tr.frames), float64(tr.fetches))
	tr.mu.Unlock()
	put("loadgen.late_p50_ms", quantile(late, 0.5), "ms")
	put("loadgen.late_p90_ms", quantile(late, 0.9), "ms")
	put("trace.read_p50_ms", readP50, "ms")
	put("router.self_p50_ms", quantile(self, 0.5), "ms")
	put("router.forward_p50_ms", quantile(tr.get("router.forward"), 0.5), "ms")
	put("serve.handler_p50_ms", quantile(tr.get("serve.handler"), 0.5), "ms")
	put("serve.handler_p90_ms", quantile(tr.get("serve.handler"), 0.9), "ms")
	put("serve.cache_hit_ratio", live.cacheHitRatio(), "ratio")
	put("core.predict_self_p50_ms", quantile(predictSelf, 0.5), "ms")
	put("sim.profile_p50_ms", quantile(profile, 0.5), "ms")
	put("sim.profiles_per_predict", ratio(live["profile_misses"], live["misses"]), "count")
	put("serve.profile_hit_ratio", live.profileHitRatio(), "ratio")
	put("serve.batch_mean", ratio(live["misses"]+live["coalesced"], live["batches"]), "count")
	put("serve.coalesced", live["coalesced"], "count")
	put("serve.queue_rejects", live["queue_rejects"], "count")
	put("serve.shed", live["shed"], "count")
	put("serve.canceled", live["canceled"], "count")
	put("wal.append_p50_ms", quantile(tr.get("wal.append"), 0.5), "ms")
	put("replicate.leader_append_p50_ms", quantile(tr.get("replicate.leader_append"), 0.5), "ms")
	put("serve.absorb_p50_ms", quantile(tr.get("serve.absorb"), 0.5), "ms")
	put("serve.absorb_p90_ms", quantile(tr.get("serve.absorb"), 0.9), "ms")
	put("replicate.lag_p50_ms", quantile(lag, 0.5), "ms")
	put("replicate.lag_p90_ms", quantile(lag, 0.9), "ms")
	put("replicate.frames_per_fetch", framesPerFetch, "count")
	put("router.stale_skip_share", ratio(live["stale_skips"], live["route_requests"]), "ratio")
	put("router.failovers", live["failovers"], "count")
	put("router.exhausted", live["exhausted"], "count")
	put("serve.leader_read_share", ratio(live["leader_requests"], live["requests"]), "ratio")
	put("runtime.alloc_bytes_per_req", live["alloc_bytes"]/float64(len(p.ops)), "B")
	put("runtime.gc_cycles", live["gc_cycles"], "count")
	put("runtime.gc_cpu_share", ratio(live["gc_cpu_s"], live["cpu_s"]), "ratio")
	return nil
}
