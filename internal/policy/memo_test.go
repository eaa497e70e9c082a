package policy

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/filter"
	"repro/internal/pipeline"
	"repro/internal/smbm"
	"repro/internal/telemetry"
)

// The version memo lets Interp.Exec skip every table-static step when the
// table has not been written since the previous execution. The existing
// Compile==Interp tests write between every pair of executions, so they only
// ever see cold executions. The tests below run 1–5 executions between
// writes, so most executions are warm, and check every one against the
// compiled pipeline, which has no memo.

// memoSizes are the table capacities the memo differential runs at: the
// existing differential's size and the served size.
var memoSizes = []int{16, 1024}

// memoTable builds a table of capacity n over m metrics. A dense table
// holds every id (so it starts full); a sparse one holds about one id in
// eight, at least two. Values are drawn from [0, 100), so ties are common
// at n=1024 and the FIFO tie-break is exercised.
func memoTable(t testing.TB, r *rand.Rand, n, m int, dense bool) *smbm.SMBM {
	t.Helper()
	s := smbm.New(n, m)
	want := n
	if !dense {
		want = n / 8
		if want < 2 {
			want = 2
		}
	}
	for _, id := range r.Perm(n)[:want] {
		if err := s.Add(id, memoRow(r, m)); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func memoRow(r *rand.Rand, m int) []int64 {
	vals := make([]int64, m)
	for j := range vals {
		vals[j] = int64(r.Intn(100))
	}
	return vals
}

// pickID returns a random id that is present (want=true) or absent
// (want=false) in the table, or -1 if there is none.
func pickID(r *rand.Rand, s *smbm.SMBM, want bool) int {
	n := s.Capacity()
	start := r.Intn(n)
	for d := 0; d < n; d++ {
		if id := (start + d) % n; s.Contains(id) == want {
			return id
		}
	}
	return -1
}

// memoMutate applies one random table operation: a successful Add, Delete,
// Update, UpdateBatch or Upsert, or an operation that must fail (duplicate
// add, add to a full table or out of range, missing delete, update of a
// missing id, invalid batch). It returns a description and whether the
// operation failed. A failure is checked to be one of the expected errors.
func memoMutate(t testing.TB, r *rand.Rand, s *smbm.SMBM) (string, bool) {
	t.Helper()
	m := s.NumMetrics()
	var (
		desc string
		err  error
		fail bool
	)
	switch op := r.Intn(10); {
	case op == 0 && s.Size() < s.Capacity():
		id := pickID(r, s, false)
		desc, err = fmt.Sprintf("Add(%d)", id), s.Add(id, memoRow(r, m))
	case op == 1 && s.Size() > 1:
		id := pickID(r, s, true)
		desc, err = fmt.Sprintf("Delete(%d)", id), s.Delete(id)
	case op <= 2:
		id := pickID(r, s, true)
		desc, err = fmt.Sprintf("Update(%d)", id), s.Update(id, memoRow(r, m))
	case op == 3:
		k := 1 + r.Intn(16)
		if k > s.Size() {
			k = s.Size()
		}
		ids := make([]int, 0, k)
		rows := make([][]int64, 0, k)
		for _, id := range r.Perm(s.Capacity()) {
			if len(ids) == k {
				break
			}
			if s.Contains(id) {
				ids = append(ids, id)
				rows = append(rows, memoRow(r, m))
			}
		}
		desc, err = fmt.Sprintf("UpdateBatch(%v)", ids), s.UpdateBatch(ids, rows)
	case op == 4:
		id := r.Intn(s.Capacity())
		if s.Size() == s.Capacity() || (s.Size() > 1 && r.Intn(2) == 0) {
			id = pickID(r, s, true)
		}
		desc, err = fmt.Sprintf("Upsert(%d)", id), s.Upsert(id, memoRow(r, m))
	case op == 5:
		id := pickID(r, s, true)
		desc, err, fail = fmt.Sprintf("duplicate Add(%d)", id), s.Add(id, memoRow(r, m)), true
	case op == 6:
		id := pickID(r, s, false)
		if id < 0 {
			id = s.Capacity() // full table: out of range is missing too
		}
		desc, err, fail = fmt.Sprintf("missing Delete(%d)", id), s.Delete(id), true
	case op == 7:
		// A full table rejects any Add; otherwise an out-of-range id does.
		id := s.Capacity()
		if s.Size() == s.Capacity() {
			id = r.Intn(s.Capacity())
		}
		desc, err, fail = fmt.Sprintf("full/out-of-range Add(%d)", id), s.Add(id, memoRow(r, m)), true
	case op == 8:
		// An invalid batch: a valid first row followed by a missing or a
		// repeated id, or a lone short row. Validation runs before any
		// mutation, so the valid row must not land either.
		present := pickID(r, s, true)
		ids := []int{present}
		rows := [][]int64{memoRow(r, m)}
		switch r.Intn(3) {
		case 0:
			if missing := pickID(r, s, false); missing >= 0 {
				ids = append(ids, missing)
			} else {
				ids = append(ids, -1)
			}
			rows = append(rows, memoRow(r, m))
		case 1:
			ids = append(ids, present)
			rows = append(rows, memoRow(r, m))
		default:
			rows[0] = rows[0][:m-1]
		}
		desc, err, fail = fmt.Sprintf("invalid UpdateBatch(%v)", ids), s.UpdateBatch(ids, rows), true
	default:
		id := pickID(r, s, false)
		if id < 0 {
			id = -1
		}
		desc, err, fail = fmt.Sprintf("missing Update(%d)", id), s.Update(id, memoRow(r, m)), true
	}
	switch {
	case fail && err == nil:
		t.Fatalf("%s succeeded, want an error", desc)
	case fail && !errors.Is(err, smbm.ErrDuplicateID) && !errors.Is(err, smbm.ErrNotFound) &&
		!errors.Is(err, smbm.ErrFull) && !errors.Is(err, smbm.ErrBadID) && !errors.Is(err, smbm.ErrMetricsArity):
		t.Fatalf("%s: unexpected error %v", desc, err)
	case !fail && err != nil:
		t.Fatalf("%s: %v", desc, err)
	}
	return desc, fail
}

// runMemoDifferential drives one interpreter and one compiled pipeline
// over a shared table: 1–5 executions per round, each checked output for
// output (and after fallback resolution), then one table operation. After
// a failing operation, a policy with no stateful step must return exactly
// the outputs it returned before.
func runMemoDifferential(t *testing.T, table *smbm.SMBM, schema Schema, pInterp, pCompiled *Policy,
	params pipeline.Params, r *rand.Rand, rounds int) {
	t.Helper()
	pl, cc, err := NewPipeline(table, schema, pCompiled, params)
	if err != nil {
		t.Fatal(err)
	}
	it, err := NewInterp(table, schema, pInterp)
	if err != nil {
		t.Fatal(err)
	}
	deterministic := len(it.dynSteps) == 0
	var before []*bitvec.Vector // outputs before the last operation, if it failed
	last := "initial fill"
	for round := 0; round < rounds; round++ {
		var got []*bitvec.Vector
		for e, execs := 0, 1+r.Intn(5); e < execs; e++ {
			want, err := cc.Run(pl)
			if err != nil {
				t.Fatal(err)
			}
			got = it.Exec()
			for i := range want {
				if !got[i].Equal(want[i]) {
					t.Fatalf("round %d exec %d (after %s) output %d:\n  interp   %s\n  compiled %s",
						round, e, last, i, got[i], want[i])
				}
				if !Resolve(pInterp, got, i).Equal(Resolve(pCompiled, want, i)) {
					t.Fatalf("round %d exec %d (after %s) output %d: fallback resolution diverged",
						round, e, last, i)
				}
				if before != nil && !got[i].Equal(before[i]) {
					t.Fatalf("round %d (after %s) output %d changed from %s to %s",
						round, last, i, before[i], got[i])
				}
			}
			before = nil
		}
		var snap []*bitvec.Vector
		if deterministic {
			for _, v := range got {
				snap = append(snap, v.Clone())
			}
		}
		var failed bool
		if last, failed = memoMutate(t, r, table); failed {
			before = snap
		}
	}
}

// TestMemoMatchesCompiledTable5 runs the memo differential for every Table
// 5 policy — the stateful ecmp, lb2 and drill included — at N ∈ {16, 1024}
// over dense and sparse tables.
func TestMemoMatchesCompiledTable5(t *testing.T) {
	for _, name := range []string{"ecmp", "conga", "lb2", "routing3", "drill"} {
		src := Table5Policies[name]
		for _, n := range memoSizes {
			for _, dense := range []bool{true, false} {
				t.Run(fmt.Sprintf("%s/N=%d/dense=%v", name, n, dense), func(t *testing.T) {
					schema := table5Schema(name)
					r := rand.New(rand.NewSource(int64(n) + int64(len(name))))
					table := memoTable(t, r, n, len(schema.Attrs), dense)
					params := pipeline.DefaultParams()
					if name == "routing3" {
						params.ChainLen = 8
					}
					rounds := 60
					if n > 16 {
						rounds = 30
					}
					runMemoDifferential(t, table, schema, MustParse(src), MustParse(src), params, r, rounds)
				})
			}
		}
	}
}

// genMemoExpr generates a random deterministic expression: predicate,
// min/max (single units and top-K chains), no-op and the three set
// operations. It is a pure function of r's stream, so two rands with one
// seed give pointer-disjoint copies.
func genMemoExpr(r *rand.Rand, depth int) Expr {
	if depth <= 0 || r.Intn(4) == 0 {
		return &Table{}
	}
	attr := diffSchema.Attrs[r.Intn(len(diffSchema.Attrs))]
	k := []int{0, 0, 2, 3}[r.Intn(4)]
	switch r.Intn(7) {
	case 0:
		return &Unary{Op: filter.UNoOp, Input: genMemoExpr(r, depth-1)}
	case 1, 2:
		return &Unary{Op: filter.UPredicate, Attr: attr,
			Rel: filter.RelOp(r.Intn(6)), Val: int64(r.Intn(100)), Input: genMemoExpr(r, depth-1)}
	case 3:
		return &Unary{Op: filter.UMin, K: k, Attr: attr, Input: genMemoExpr(r, depth-1)}
	case 4:
		return &Unary{Op: filter.UMax, K: k, Attr: attr, Input: genMemoExpr(r, depth-1)}
	default:
		l, rr := genMemoExpr(r, depth-1), genMemoExpr(r, depth-1)
		return &Binary{Op: []filter.BinaryOp{filter.BUnion, filter.BIntersect, filter.BDiff}[r.Intn(3)], Left: l, Right: rr}
	}
}

// TestMemoMatchesCompiledRandomPolicies runs the memo differential over
// random policies: deterministic ones from genMemoExpr, and mixed ones
// (round-robin and random included) from the differential generator, at
// N ∈ {16, 1024} over dense and sparse tables.
func TestMemoMatchesCompiledRandomPolicies(t *testing.T) {
	trials := 40
	if testing.Short() {
		trials = 12
	}
	params := pipeline.Params{Inputs: 8, Fanout: 2, Stages: 8, ChainLen: 4}
	gens := []struct {
		name string
		gen  func(seed int64) *Policy
	}{
		{"deterministic", func(seed int64) *Policy {
			return Simple("memo", genMemoExpr(rand.New(rand.NewSource(seed)), 4))
		}},
		{"mixed", func(seed int64) *Policy {
			return genPolicyDiff(rand.New(rand.NewSource(seed)), int(seed))
		}},
	}
	for _, g := range gens {
		compiled := 0
		for trial := 0; trial < trials; trial++ {
			n := memoSizes[trial%len(memoSizes)]
			dense := trial%4 < 2
			pInterp, pCompiled := g.gen(int64(trial)), g.gen(int64(trial))
			if _, err := Compile(pCompiled, diffSchema, params); err != nil {
				if !isCapacityErr(err) {
					t.Fatalf("%s trial %d: non-capacity compile error: %v", g.name, trial, err)
				}
				continue
			}
			compiled++
			t.Run(fmt.Sprintf("%s/%d/N=%d/dense=%v", g.name, trial, n, dense), func(t *testing.T) {
				r := rand.New(rand.NewSource(int64(trial)*7919 + 1))
				table := memoTable(t, r, n, len(diffSchema.Attrs), dense)
				runMemoDifferential(t, table, diffSchema, pInterp, pCompiled, params, r, 20)
			})
		}
		if compiled < trials/2 {
			t.Fatalf("%s: only %d of %d generated policies compiled", g.name, compiled, trials)
		}
	}
}

// TestMemoSkipsStaticStepsWhenWarm checks that the memo engages: between
// writes, a table-static unit does not run again (its cycle counter stays
// put) while a stateful unit runs on every execution, and a write makes the
// next execution cold. Debug builds re-run static steps to audit the memo,
// so the cycle check applies to normal builds only.
func TestMemoSkipsStaticStepsWhenWarm(t *testing.T) {
	if memoAudit {
		t.Skip("thanosdebug builds re-run static steps on every warm execution")
	}
	schema := table5Schema("lb2")
	r := rand.New(rand.NewSource(3))
	table := memoTable(t, r, 64, len(schema.Attrs), true)
	it, err := NewInterp(table, schema, MustParse(Table5Policies["lb2"]))
	if err != nil {
		t.Fatal(err)
	}
	cycles := func() (static, dyn uint64) {
		for i := range it.prog {
			if u := it.prog[i].unit; u != nil {
				if it.dynContent[i] {
					dyn += u.Cycles()
				} else {
					static += u.Cycles()
				}
			}
		}
		return static, dyn
	}
	it.Exec()
	s0, d0 := cycles()
	if s0 == 0 || d0 == 0 {
		t.Fatalf("cold execution ran static=%d dyn=%d cycles, want both > 0", s0, d0)
	}
	for i := 0; i < 5; i++ {
		it.Exec()
	}
	s1, d1 := cycles()
	if s1 != s0 {
		t.Errorf("warm executions ran static units: %d -> %d cycles", s0, s1)
	}
	if d1 != 6*d0 {
		t.Errorf("stateful units ran %d cycles over 6 executions, want %d", d1, 6*d0)
	}
	if err := table.Update(pickID(r, table, true), memoRow(r, len(schema.Attrs))); err != nil {
		t.Fatal(err)
	}
	it.Exec()
	if s2, _ := cycles(); s2 != 2*s0 {
		t.Errorf("execution after a write ran %d static cycles, want %d", s2-s1, s0)
	}
}

// TestMemoChainStatsExact checks that chain telemetry stays exact when most
// executions are warm: the popcount cache that FlushStats charges from is
// refreshed by the memo's cold executions. Each round runs 1–5 executions,
// flushes them in one batch (as the engine does per chunk) and then writes
// the table; every step's candidate total must equal the sum of its live
// popcounts over all executions.
func TestMemoChainStatsExact(t *testing.T) {
	for _, name := range []string{"ecmp", "conga", "lb2", "routing3", "drill"} {
		t.Run(name, func(t *testing.T) {
			schema := table5Schema(name)
			r := rand.New(rand.NewSource(11))
			table := memoTable(t, r, 64, len(schema.Attrs), true)
			it, err := NewInterp(table, schema, MustParse(Table5Policies[name]))
			if err != nil {
				t.Fatal(err)
			}
			cs := telemetry.NewChainStats(telemetry.NewRegistry(), "memo", it.StepLabels(), 1)[0]
			it.AttachTelemetry(cs)
			want := make([]uint64, it.Steps())
			var execs uint64
			for round := 0; round < 50; round++ {
				n := 1 + r.Intn(5)
				for e := 0; e < n; e++ {
					it.Exec()
					for i := range want {
						want[i] += uint64(it.vals[i].Count())
					}
				}
				it.FlushStats(uint64(n))
				execs += uint64(n)
				memoMutate(t, r, table)
			}
			for i := range want {
				if got := cs.Invocations[i].Value(); got != execs {
					t.Errorf("step %d (%s): %d invocations, want %d", i, it.labels[i], got, execs)
				}
				if got := cs.Candidates[i].Value(); got != want[i] {
					t.Errorf("step %d (%s): %d candidates, want %d", i, it.labels[i], got, want[i])
				}
			}
		})
	}
}
