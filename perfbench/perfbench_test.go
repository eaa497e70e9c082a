package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"repro/internal/engine"
	"repro/internal/policy"
)

func TestSeedDeterminesInputs(t *testing.T) {
	for _, w := range workloads {
		a, b := generate(w, 7).encode(), generate(w, 7).encode()
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave different inputs on two calls", w.name)
		}
		if c := generate(w, 8).encode(); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave identical inputs", w.name)
		}
	}
}

func TestUpdateBatchesNameDistinctPaths(t *testing.T) {
	w, _ := findWorkload("route-churn")
	in := generate(w, 3)
	for base := 0; base < len(in.Updates); base += w.writeOps {
		seen := map[int]bool{}
		for _, u := range in.Updates[base : base+w.writeOps] {
			if seen[u.ID] {
				t.Fatalf("batch at %d repeats path %d", base, u.ID)
			}
			seen[u.ID] = true
		}
	}
}

// decide asks an in-process engine for one decision on output 0.
func decide(t *testing.T, eng *engine.Engine) int {
	t.Helper()
	pkts := []engine.Packet{{Key: 1}, {Key: 2}}
	eng.DecideBatch(pkts)
	if !pkts[0].OK || pkts[0].ID != pkts[1].ID {
		t.Fatalf("engine answers %+v", pkts)
	}
	return pkts[0].ID
}

func newTestEngine(t *testing.T, w *workload, in *inputs) *engine.Engine {
	t.Helper()
	eng, err := engine.New(engine.Config{
		Shards: 2, Capacity: w.resources,
		Schema: policy.Schema{Attrs: w.schema}, Policy: policy.MustParse(w.policy),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	for _, r := range in.Table {
		if err := eng.Add(r.ID, r.Vals); err != nil {
			t.Fatal(err)
		}
	}
	return eng
}

// The oracles must agree with the engine exactly, ties included, or the
// benchmark would count correct answers as wrong.
func TestDenseMinOracleMatchesEngine(t *testing.T) {
	w, _ := findWorkload("dense-min")
	for seed := int64(1); seed <= 5; seed++ {
		in := generate(w, seed)
		o := installedOracle(w, in)
		want := denseMinAnswer(o, w.dim("cpu"))
		ties := 0
		for _, id := range o.members() {
			if o.vals[id][0] == o.vals[want][0] {
				ties++
			}
		}
		if ties < 2 {
			t.Errorf("seed %d: only %d ids share the minimum; the FIFO tie-break goes unchecked", seed, ties)
		}
		if got := decide(t, newTestEngine(t, w, in)); got != want {
			t.Errorf("seed %d: engine picked %d, oracle %d", seed, got, want)
		}
	}
}

func TestRouteOracleMatchesEngineUnderUpdates(t *testing.T) {
	w, _ := findWorkload("route-churn")
	primary, fallback := 0, 0
	for seed := int64(1); seed <= 3; seed++ {
		in := generate(w, seed)
		o := installedOracle(w, in)
		eng := newTestEngine(t, w, in)
		for i, u := range in.Updates[:4000] {
			if i%w.writeOps == 0 {
				want := routeAnswer(o, w)
				if got := decide(t, eng); got != want {
					t.Fatalf("seed %d after %d updates: engine picked %d, oracle %d", seed, i, got, want)
				}
				all := o.members()
				util, queue, loss := w.dim("util"), w.dim("queue"), w.dim("loss")
				if len(intersect(intersect(o.minK(all, queue, routeTopX), o.minK(all, loss, routeTopX)), o.minK(all, util, routeTopX))) > 0 {
					primary++
				} else {
					fallback++
				}
			}
			if err := eng.Update(u.ID, u.Vals); err != nil {
				t.Fatal(err)
			}
			o.write(u.ID, u.Vals)
		}
	}
	if primary == 0 || fallback == 0 {
		t.Errorf("primary output chosen %d times, fallback %d: the inputs do not exercise both", primary, fallback)
	}
}

func TestLBOracleMatchesEngine(t *testing.T) {
	w, _ := findWorkload("lb-random")
	in := generate(w, 1)
	ok := lbOKSet(installedOracle(w, in))
	eng := newTestEngine(t, w, in)
	pkts := make([]engine.Packet, 4096)
	for i := range pkts {
		pkts[i].Key = in.Keys[i]
	}
	eng.DecideBatch(pkts)
	for _, p := range pkts {
		if !p.OK || !ok[p.ID] {
			t.Fatalf("engine picked %d (ok %v), outside Policy 2's satisfying set", p.ID, p.OK)
		}
	}
}

// BENCHMARK.json must list exactly the metrics the benchmark reports.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark reports %s (%s)",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the benchmark %s", i, spec.Workloads[i].Name, w.name)
		}
	}
}
