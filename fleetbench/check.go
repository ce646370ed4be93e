package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"vesta/internal/cloud"
	"vesta/internal/core"
	"vesta/internal/oracle"
	"vesta/internal/serve"
	"vesta/internal/sim"
	"vesta/internal/workload"
)

// token is the consistency token and selection of one predict response.
type token struct {
	Epoch          uint64 `json:"epoch"`
	Workloads      int    `json:"workloads"`
	CatalogVersion uint64 `json:"catalog_version"`
	Best           string `json:"best"`
}

// checkBodies compares every distinct response body of a read-only workload
// byte for byte with an in-process reference server (no response cache) over
// the same snapshot, and returns the distinct bodies that differ.
func checkBodies(snap *core.Snapshot, keys []serve.Request, bodies map[bodyKey][]byte) (map[bodyKey]bool, error) {
	want := make(map[int][]byte)
	for k := range bodies {
		want[k.key] = nil
	}
	idx := make([]int, 0, len(want))
	for k := range want {
		idx = append(idx, k)
	}
	// A server computes one batch at a time, so two single-worker reference
	// servers, one per CPU, each answer half of the keys.
	var refs []*serve.Server
	for w := 0; w < 2; w++ {
		ref, err := serve.New(snap, serve.Config{NoCache: true, Workers: 1})
		if err != nil {
			return nil, err
		}
		defer ref.Close()
		refs = append(refs, ref)
	}
	got := make([][]byte, len(idx))
	err := split(len(idx), func(w, j int) (err error) {
		got[j], err = refs[w].PredictBytes(context.Background(), keys[idx[j]])
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("reference server: %w", err)
	}
	for j, k := range idx {
		want[k] = got[j]
	}
	bad := map[bodyKey]bool{}
	for k, b := range bodies {
		if !bytes.Equal(b, want[k.key]) {
			bad[k] = true
		}
	}
	return bad, nil
}

// checkTokens verifies the consistency token of every distinct body of a
// workload with writes: workloads = base + epoch, with the epoch no later
// than the leader's final one and the catalog untouched.
func checkTokens(base *core.Snapshot, final uint64, bodies map[bodyKey][]byte) (map[bodyKey]bool, error) {
	bad := map[bodyKey]bool{}
	for k, b := range bodies {
		var tok token
		if err := json.Unmarshal(b, &tok); err != nil {
			return nil, fmt.Errorf("undecodable predict response: %w", err)
		}
		if tok.Epoch > final || tok.CatalogVersion != 0 ||
			tok.Workloads != base.Workloads()+int(tok.Epoch-base.Epoch()) {
			bad[k] = true
		}
	}
	return bad, nil
}

// groundTruth profiles every application on every VM type, as the paper's
// evaluation does, with internal/bench's truth seed.
func groundTruth() *oracle.Table {
	return oracle.BuildWorkers(sim.New(sim.DefaultConfig()), workload.All(), cloud.Catalog120(), knowledgeSeed+0x7177, 2)
}

// regretPct is the execution-time regret of picking vm for app, the formula
// internal/bench uses: (t(app, vm) - best time) / best time × 100.
func regretPct(truth *oracle.Table, app, vm string) (float64, error) {
	_, best, err := truth.BestByTime(app)
	if err != nil {
		return 0, err
	}
	t, err := truth.Time(app, vm)
	if err != nil {
		return 0, err
	}
	return (t - best) / best * 100, nil
}

// meanRegret averages the regret of every distinct answered selection: one
// per (app, request seed), since the best VM does not depend on top. It is 0
// when no read was answered correctly.
func meanRegret(truth *oracle.Table, keys []serve.Request, bodies map[bodyKey][]byte) (float64, error) {
	type selection struct {
		app  string
		seed uint64
	}
	best := map[selection]string{}
	for k, b := range bodies {
		var tok token
		if err := json.Unmarshal(b, &tok); err != nil {
			return 0, err
		}
		best[selection{keys[k.key].App, keys[k.key].Seed}] = tok.Best
	}
	if len(best) == 0 {
		return 0, nil // nothing answered correctly; the run fails its checks
	}
	sum := 0.0
	for sel, vm := range best {
		r, err := regretPct(truth, sel.app, vm)
		if err != nil {
			return 0, err
		}
		sum += r
	}
	return sum / float64(len(best)), nil
}
