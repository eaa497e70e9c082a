package main

import "sort"

// oracleTable is a brute-force model of the served resource table. Every
// SMBM dimension orders entries by value and breaks ties first-in-first-out:
// an add or an update re-enters the entry after every equal value. So the
// order within one value is the order of each id's latest write, which is
// what stamp records.
type oracleTable struct {
	vals  [][]int64 // by id; nil = absent
	stamp []int64
	clock int64
}

func newOracleTable(capacity int) *oracleTable {
	return &oracleTable{vals: make([][]int64, capacity), stamp: make([]int64, capacity)}
}

// write adds or updates id.
func (t *oracleTable) write(id int, vals []int64) {
	t.vals[id] = append([]int64(nil), vals...)
	t.stamp[id] = t.clock
	t.clock++
}

func (t *oracleTable) members() []int {
	var ids []int
	for id, v := range t.vals {
		if v != nil {
			ids = append(ids, id)
		}
	}
	return ids
}

// less is the sorted order of dimension dim.
func (t *oracleTable) less(a, b, dim int) bool {
	if va, vb := t.vals[a][dim], t.vals[b][dim]; va != vb {
		return va < vb
	}
	return t.stamp[a] < t.stamp[b]
}

// minOf returns the first of ids in dimension dim's order, or -1.
func (t *oracleTable) minOf(ids []int, dim int) int {
	best := -1
	for _, id := range ids {
		if best < 0 || t.less(id, best, dim) {
			best = id
		}
	}
	return best
}

// minK returns the first k of ids in dimension dim's order.
func (t *oracleTable) minK(ids []int, dim, k int) []int {
	s := append([]int(nil), ids...)
	sort.Slice(s, func(i, j int) bool { return t.less(s[i], s[j], dim) })
	if len(s) > k {
		s = s[:k]
	}
	return s
}

func intersect(a, b []int) []int {
	in := map[int]bool{}
	for _, id := range b {
		in[id] = true
	}
	var out []int
	for _, id := range a {
		if in[id] {
			out = append(out, id)
		}
	}
	return out
}

// denseMinAnswer is the answer of `min(table, cpu)`.
func denseMinAnswer(t *oracleTable, cpu int) int {
	return t.minOf(t.members(), cpu)
}

// lbOKSet is the satisfying set of Policy 2's three predicates
// (cpu < 70, mem > 1024, bw > 2000), by id.
func lbOKSet(t *oracleTable) []bool {
	ok := make([]bool, len(t.vals))
	for id, v := range t.vals {
		ok[id] = v != nil && v[0] < 70 && v[1] > 1024 && v[2] > 2000
	}
	return ok
}

// routeAnswer is the answer of the Figure 17 policy: the minimum-util path
// among those in the top-k of queue, loss and util, falling back to the
// minimum-util path overall when that intersection is empty.
func routeAnswer(t *oracleTable, w *workload) int {
	all := t.members()
	util, queue, loss := w.dim("util"), w.dim("queue"), w.dim("loss")
	good := intersect(intersect(t.minK(all, queue, routeTopX), t.minK(all, loss, routeTopX)), t.minK(all, util, routeTopX))
	if len(good) > 0 {
		return t.minOf(good, util)
	}
	return t.minOf(all, util)
}

// installedOracle returns the oracle of the freshly installed table.
func installedOracle(w *workload, in *inputs) *oracleTable {
	t := newOracleTable(w.resources)
	for _, r := range in.Table {
		t.write(r.ID, r.Vals)
	}
	return t
}

// checker validates every id of one decided batch against the inputs
// while the table is the installed one (route-churn: while it may be any
// table the update stream produced).
type checker func(ids []int32) bool

func newChecker(w *workload, in *inputs) checker {
	t := installedOracle(w, in)
	switch w.name {
	case "dense-min":
		want := int32(denseMinAnswer(t, w.dim("cpu")))
		return func(ids []int32) bool {
			for _, id := range ids {
				if id != want {
					return false
				}
			}
			return true
		}
	case "lb-random":
		ok := lbOKSet(t)
		any := false
		for _, b := range ok {
			any = any || b
		}
		return func(ids []int32) bool {
			for _, id := range ids {
				if id < 0 || int(id) >= len(ok) || (any && !ok[id]) {
					return false
				}
			}
			return true
		}
	default:
		n := int32(w.resources)
		return func(ids []int32) bool {
			for _, id := range ids {
				if id < 0 || id >= n {
					return false
				}
			}
			return true
		}
	}
}
