package main

import (
	"fmt"
	"strings"
)

type workloadKind int

const (
	kindServing workloadKind = iota
	kindNetsim
)

// workload is one set of inputs and load shape. Rates are fixed numbers,
// not fractions of a measured capacity, so two commits are offered exactly
// the same load.
type workload struct {
	name      string
	kind      workloadKind
	resources int
	schema    []string
	policy    string // DSL served by thanosd
	row       func(*rng) []int64
	batch     int     // decisions per request frame
	connsA    int     // phase-A closed-loop connections, one request in flight each
	openRate  float64 // phase-B decide batches per second over two connections; 0 = no phase B
	writeRate float64 // Update batches per second on the writer connection; 0 = no writer
	writeOps  int     // table ops per Update batch
}

// Policy 2 of §7.2.2, as internal/lb serves it.
const lbPolicy = `policy lb2
let ok = intersect(filter(table, cpu < 70), filter(table, mem > 1024), filter(table, bw > 2000))
out primary = random(ok)
out backup  = random(table)
fallback primary -> backup
`

// The Figure 17 multi-dimensional routing policy with topX = 4.
const routeTopX = 4

var routePolicy = fmt.Sprintf(`policy fig17
let good = intersect(minK(table, queue, %d), minK(table, loss, %d), minK(table, util, %d))
out primary = min(good, util)
out backup  = min(table, util)
fallback primary -> backup
`, routeTopX, routeTopX, routeTopX)

var workloads = []*workload{
	{
		name:      "dense-min",
		kind:      kindServing,
		resources: 1024,
		schema:    []string{"cpu", "mem", "bw"},
		policy:    "policy dense\nout best = min(table, cpu)\n",
		row:       lbRow,
		batch:     256,
		connsA:    1,
		openRate:  120,
	},
	{
		name:      "lb-random",
		kind:      kindServing,
		resources: 1024,
		schema:    []string{"cpu", "mem", "bw"},
		policy:    lbPolicy,
		row:       lbRow,
		batch:     32,
		connsA:    2,
		openRate:  5000,
	},
	{
		name:      "route-churn",
		kind:      kindServing,
		resources: 64,
		schema:    []string{"util", "queue", "loss"},
		policy:    routePolicy,
		row:       pathRow,
		batch:     32,
		connsA:    1,
		writeRate: 200,
		writeOps:  16,
	},
	{
		name: "fattree-k8",
		kind: kindNetsim,
	},
}

func findWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// dim returns the schema index of attr.
func (w *workload) dim(attr string) int {
	for i, a := range w.schema {
		if a == attr {
			return i
		}
	}
	panic("perfbench: workload " + w.name + " has no attribute " + attr)
}
