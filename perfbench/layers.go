package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bitvec"
	"repro/internal/engine"
	"repro/internal/filter"
	"repro/internal/policy"
	"repro/internal/smbm"
)

// layerBench times direct calls into the public functions of the engine,
// policy, filter and smbm packages on the workload's own table, policy
// and update stream. Each timed loop is one span under the sweep's root.
type layerBench struct {
	w      *workload
	in     *inputs
	f      *figures
	rec    *recorder
	root   uint64
	budget time.Duration // per timed loop
	t      *tally
}

// nsPerCall runs fn in chunks of 64 calls for about lb.budget and returns
// the mean nanoseconds per call, inside a span named name.
func (lb *layerBench) nsPerCall(name string, fn func()) float64 {
	var ns float64
	_ = lb.rec.span(name, lb.root, func(uint64) error {
		n := 0
		start := time.Now()
		for {
			for j := 0; j < 64; j++ {
				fn()
			}
			n += 64
			if time.Since(start) >= lb.budget {
				break
			}
		}
		ns = float64(time.Since(start).Nanoseconds()) / float64(n)
		return nil
	})
	return ns
}

// check books one in-process answer in the run's tally.
func (lb *layerBench) check(ok bool) { lb.t.outcome(nil, ok) }

func (lb *layerBench) table() (*smbm.SMBM, error) {
	s := smbm.New(lb.w.resources, len(lb.w.schema))
	for _, r := range lb.in.Table {
		if err := s.Add(r.ID, r.Vals); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (lb *layerBench) run() error {
	pol, err := policy.Parse(lb.w.policy)
	if err != nil {
		return err
	}
	schema := policy.Schema{Attrs: lb.w.schema}
	oracle := installedOracle(lb.w, lb.in)
	check := newChecker(lb.w, lb.in)
	if err := lb.engineDecide(pol, schema, check); err != nil {
		return err
	}
	if err := lb.policyExec(pol, schema, check); err != nil {
		return err
	}
	switch lb.w.name {
	case "dense-min":
		return lb.denseMinFilter(oracle)
	case "lb-random":
		return lb.lbFilter(oracle)
	case "route-churn":
		if err := lb.routeFilter(oracle); err != nil {
			return err
		}
		if err := lb.smbmWrites(); err != nil {
			return err
		}
		return lb.engineWrites(pol, schema)
	}
	return nil
}

// newEngine builds a two-shard engine holding the installed table.
func (lb *layerBench) newEngine(pol *policy.Policy, schema policy.Schema) (*engine.Engine, error) {
	eng, err := engine.New(engine.Config{Shards: 2, Capacity: lb.w.resources, Schema: schema, Policy: pol})
	if err != nil {
		return nil, err
	}
	for _, r := range lb.in.Table {
		if err := eng.Add(r.ID, r.Vals); err != nil {
			eng.Close()
			return nil, err
		}
	}
	return eng, nil
}

// engineDecide times engine.DecideBatch at the workload's batch size.
func (lb *layerBench) engineDecide(pol *policy.Policy, schema policy.Schema, check checker) error {
	eng, err := lb.newEngine(pol, schema)
	if err != nil {
		return err
	}
	defer eng.Close()
	pkts := make([]engine.Packet, lb.w.batch)
	ids := make([]int32, lb.w.batch)
	var keys []uint64
	b := 0
	ns := lb.nsPerCall("engine.DecideBatch", func() {
		keys = lb.in.batchKeys(b, lb.w.batch, keys)
		b++
		for i := range pkts {
			pkts[i] = engine.Packet{Key: keys[i]}
		}
		eng.DecideBatch(pkts)
	})
	for i, p := range pkts {
		ids[i] = int32(p.ID)
		if !p.OK {
			ids[i] = -1
		}
	}
	lb.check(check(ids))
	lb.f.set("engine.ns_per_decision", ns/float64(lb.w.batch))
	return nil
}

// policyExec times Interp.Exec plus Resolve on one goroutine.
func (lb *layerBench) policyExec(pol *policy.Policy, schema policy.Schema, check checker) error {
	s, err := lb.table()
	if err != nil {
		return err
	}
	it, err := policy.NewInterp(s, schema, pol)
	if err != nil {
		return err
	}
	var id int
	ns := lb.nsPerCall("policy.Exec+Resolve", func() {
		id = policy.Resolve(pol, it.Exec(), 0).FirstSet()
	})
	lb.check(check([]int32{int32(id)}))
	lb.f.set("policy.exec_ns", ns)
	lb.f.set("policy.steps", float64(it.Steps()))
	return nil
}

// denseMinFilter times the UFPU min over the full table.
func (lb *layerBench) denseMinFilter(o *oracleTable) error {
	s, err := lb.table()
	if err != nil {
		return err
	}
	cpu := lb.w.dim("cpu")
	u, err := filter.NewUFPU(s, filter.UFPUConfig{Op: filter.UMin, Attr: cpu})
	if err != nil {
		return err
	}
	in, out := s.Members(), bitvec.New(s.Capacity())
	lb.f.set("filter.ufpu_min_ns", lb.nsPerCall("filter.ufpu_min", func() { u.ExecInto(out, in) }))
	lb.check(out.FirstSet() == denseMinAnswer(o, cpu))
	lb.f.set("filter.in_popcount", float64(in.Count()))
	return nil
}

// lbFilter times Policy 2's units: the three predicates (cached and right
// after a write), the BFPU intersect and the UFPU random pick.
func (lb *layerBench) lbFilter(o *oracleTable) error {
	s, err := lb.table()
	if err != nil {
		return err
	}
	preds := []filter.UFPUConfig{
		{Op: filter.UPredicate, Attr: lb.w.dim("cpu"), Rel: filter.LT, Val: 70},
		{Op: filter.UPredicate, Attr: lb.w.dim("mem"), Rel: filter.GT, Val: 1024},
		{Op: filter.UPredicate, Attr: lb.w.dim("bw"), Rel: filter.GT, Val: 2000},
	}
	members := s.Members()
	sets := make([]*bitvec.Vector, len(preds))
	units := make([]*filter.UFPU, len(preds))
	for i, cfg := range preds {
		if units[i], err = filter.NewUFPU(s, cfg); err != nil {
			return err
		}
		sets[i] = bitvec.New(s.Capacity())
		units[i].ExecInto(sets[i], members)
	}
	lb.f.set("filter.ufpu_pred_ns", lb.nsPerCall("filter.ufpu_pred", func() { units[0].ExecInto(sets[0], members) }))

	// A write moves the table version, so the next predicate execution
	// rebuilds its satisfying set. Rewriting a row with its own values
	// keeps the table, and so the checked answer, unchanged.
	var rebuild []float64
	if err := lb.rec.span("filter.ufpu_pred_rebuild", lb.root, func(uint64) error {
		deadline := time.Now().Add(lb.budget)
		for i := 0; time.Now().Before(deadline); i++ {
			r := lb.in.Table[i%len(lb.in.Table)]
			if err := s.Update(r.ID, r.Vals); err != nil {
				return err
			}
			t0 := time.Now()
			units[0].ExecInto(sets[0], members)
			rebuild = append(rebuild, float64(time.Since(t0).Nanoseconds()))
		}
		return nil
	}); err != nil {
		return err
	}
	lb.f.set("filter.ufpu_pred_rebuild_ns", median(rebuild))

	bf, err := filter.NewBFPU(filter.BFPUConfig{Op: filter.BIntersect})
	if err != nil {
		return err
	}
	ok := bitvec.New(s.Capacity())
	lb.f.set("filter.bfpu_ns", lb.nsPerCall("filter.bfpu_intersect", func() { bf.ExecInto(ok, sets[0], sets[1]) }))
	bf.ExecInto(ok, ok, sets[2])
	want, same := lbOKSet(o), true
	for id := range want {
		same = same && want[id] == ok.Get(id)
	}
	lb.check(same)

	rnd, err := filter.NewUFPU(s, filter.UFPUConfig{Op: filter.URandom, Seed: 1})
	if err != nil {
		return err
	}
	pick := bitvec.New(s.Capacity())
	lb.f.set("filter.ufpu_random_ns", lb.nsPerCall("filter.ufpu_random", func() { rnd.ExecInto(pick, ok) }))
	lb.check(ok.Count() == 0 || ok.Get(pick.FirstSet()))
	lb.f.set("filter.in_popcount", float64(ok.Count()))
	return nil
}

// routeFilter times the Figure 17 units: K-UFPU top-k, BFPU intersect and
// the UFPU min over the intersection.
func (lb *layerBench) routeFilter(o *oracleTable) error {
	s, err := lb.table()
	if err != nil {
		return err
	}
	members := s.Members()
	n := s.Capacity()
	var sets []*bitvec.Vector
	var units []*filter.KUFPU
	for _, attr := range []string{"queue", "loss", "util"} {
		k, err := filter.NewKUFPU(s, routeTopX, filter.UFPUConfig{Op: filter.UMin, Attr: lb.w.dim(attr)})
		if err != nil {
			return err
		}
		out := bitvec.New(n)
		k.ExecInto(out, members, routeTopX)
		units, sets = append(units, k), append(sets, out)
	}
	lb.f.set("filter.ufpu_topk_ns", lb.nsPerCall("filter.ufpu_topk", func() { units[0].ExecInto(sets[0], members, routeTopX) }))

	bf, err := filter.NewBFPU(filter.BFPUConfig{Op: filter.BIntersect})
	if err != nil {
		return err
	}
	good := bitvec.New(n)
	lb.f.set("filter.bfpu_ns", lb.nsPerCall("filter.bfpu_intersect", func() { bf.ExecInto(good, sets[0], sets[1]) }))
	bf.ExecInto(good, good, sets[2])

	u, err := filter.NewUFPU(s, filter.UFPUConfig{Op: filter.UMin, Attr: lb.w.dim("util")})
	if err != nil {
		return err
	}
	in := good
	if !good.Any() {
		in = members
	}
	best := bitvec.New(n)
	lb.f.set("filter.ufpu_min_ns", lb.nsPerCall("filter.ufpu_min", func() { u.ExecInto(best, in) }))
	lb.check(best.FirstSet() == routeAnswer(o, lb.w))
	lb.f.set("filter.in_popcount", float64(members.Count()))
	return nil
}

// smbmWrites times single Update calls and UpdateBatch at the churn burst
// size, replaying the update stream.
func (lb *layerBench) smbmWrites() error {
	s, err := lb.table()
	if err != nil {
		return err
	}
	ups := lb.in.Updates
	var werr error
	i := 0
	lb.f.set("smbm.update_ns", lb.nsPerCall("smbm.Update", func() {
		r := ups[i%len(ups)]
		i++
		if err := s.Update(r.ID, r.Vals); err != nil && werr == nil {
			werr = err
		}
	}))
	k := lb.w.writeOps
	ids := make([]int, k)
	rows := make([][]int64, k)
	b := 0
	ns := lb.nsPerCall("smbm.UpdateBatch", func() {
		base := (b * k) % len(ups)
		b++
		for j := 0; j < k; j++ {
			ids[j], rows[j] = ups[base+j].ID, ups[base+j].Vals
		}
		if err := s.UpdateBatch(ids, rows); err != nil && werr == nil {
			werr = err
		}
	})
	lb.f.set("smbm.update_batch_ns_per_op", ns/float64(k))
	if werr != nil {
		return fmt.Errorf("smbm write: %w", werr)
	}
	return s.CheckInvariants()
}

// engineWrites times engine.Update while another goroutine keeps calling
// DecideBatch, so every write waits out a reader before publishing.
func (lb *layerBench) engineWrites(pol *policy.Policy, schema policy.Schema) error {
	eng, err := lb.newEngine(pol, schema)
	if err != nil {
		return err
	}
	defer eng.Close()
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		pkts := make([]engine.Packet, lb.w.batch)
		var keys []uint64
		for b := 0; !stop.Load(); b++ {
			keys = lb.in.batchKeys(b, lb.w.batch, keys)
			for i := range pkts {
				pkts[i] = engine.Packet{Key: keys[i]}
			}
			eng.DecideBatch(pkts)
		}
	}()
	var lat []float64
	werr := lb.rec.span("engine.Update", lb.root, func(uint64) error {
		deadline := time.Now().Add(lb.budget)
		for i := 0; time.Now().Before(deadline); i++ {
			r := lb.in.Updates[i%len(lb.in.Updates)]
			t0 := time.Now()
			if err := eng.Update(r.ID, r.Vals); err != nil {
				return err
			}
			lat = append(lat, us(time.Since(t0)))
		}
		return nil
	})
	stop.Store(true)
	wg.Wait()
	if werr != nil {
		return fmt.Errorf("engine write: %w", werr)
	}
	lb.f.set("engine.write_p50_us", quantile(lat, 0.5))
	lb.f.set("engine.write_p99_us", quantile(lat, 0.99))
	return eng.CheckSync()
}
