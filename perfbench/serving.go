package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/server"
	"repro/internal/server/client"
)

const (
	shards      = 2 // thanosd -shards for every serving workload
	setupReps   = 9 // daemon launches per untraced run; setup_s is their median
	traceEvery  = 8 // 1-in-N sampling of traced phases
	installOps  = 512
	openSenders = 2 // phase B connections, one sender goroutine each
	warmup      = 300 * time.Millisecond
)

// servingRun drives one serving workload against thanosd processes.
type servingRun struct {
	o   *options
	w   *workload
	in  *inputs
	f   *figures
	rec *recorder
	t   tally
}

func (r *servingRun) dial(d *daemon, salt int64, every int) (*client.Client, error) {
	c, _, err := client.Dial(client.Config{
		Network:     "unix",
		Addr:        d.sock,
		MaxInflight: 1,
		Seed:        r.o.seed<<8 + salt,
		TraceEvery:  every,
	})
	return c, err
}

func (r *servingRun) dialN(d *daemon, n int, salt int64, every int) ([]*client.Client, error) {
	var cs []*client.Client
	for i := 0; i < n; i++ {
		c, err := r.dial(d, salt+int64(i), every)
		if err != nil {
			closeAll(cs)
			return nil, err
		}
		cs = append(cs, c)
	}
	return cs, nil
}

func closeAll(cs []*client.Client) {
	for _, c := range cs {
		c.Close()
	}
}

// install writes the generated table over the wire in install order.
func (r *servingRun) install(c *client.Client) error {
	for base := 0; base < len(r.in.Table); base += installOps {
		end := min(base+installOps, len(r.in.Table))
		ops := make([]server.TableOp, 0, end-base)
		for _, row := range r.in.Table[base:end] {
			ops = append(ops, server.TableOp{Kind: server.TableUpsert, ID: uint32(row.ID), Vals: row.Vals})
		}
		sts, err := c.Apply(ops, len(r.w.schema))
		if err != nil {
			return fmt.Errorf("install: %w", err)
		}
		for i, st := range sts {
			if st != server.StatusOK {
				return fmt.Errorf("install resource %d: status %d", ops[i].ID, st)
			}
		}
	}
	return nil
}

// exactAnswer is the one id every decision must return on the installed
// table, or -1 where the policy picks at random.
func (r *servingRun) exactAnswer() int32 {
	o := installedOracle(r.w, r.in)
	switch r.w.name {
	case "dense-min":
		return int32(denseMinAnswer(o, r.w.dim("cpu")))
	case "route-churn":
		return int32(routeAnswer(o, r.w))
	}
	return -1
}

// setupCost is one launch: wall time and CPU time (thanosd's plus this
// process's) from process start until the first correct decision.
type setupCost struct{ wall, cpu time.Duration }

// launch starts a daemon, installs the table and waits for the first
// correct decision. It collects this process's garbage first, so a
// collection of the benchmark's own inputs is not charged to set-up.
func (r *servingRun) launch() (*daemon, setupCost, error) {
	runtime.GC()
	start, self0 := time.Now(), selfCPU()
	d, err := startDaemon(r.o.thanosd, r.o.runDir, r.w, shards)
	if err != nil {
		return nil, setupCost{}, err
	}
	fail := func(err error) (*daemon, setupCost, error) {
		d.stop()
		return nil, setupCost{}, err
	}
	c, err := r.dial(d, 255, 0)
	if err != nil {
		return fail(err)
	}
	defer c.Close()
	if err := r.install(c); err != nil {
		return fail(err)
	}
	keys := r.in.batchKeys(0, r.w.batch, nil)
	ids, err := c.Decide(keys, make([]uint16, len(keys)), nil)
	check := newChecker(r.w, r.in)
	want := r.exactAnswer()
	ok := err == nil && len(ids) == len(keys) && check(ids)
	for _, id := range ids {
		ok = ok && (want < 0 || id == want)
	}
	r.t.outcome(err, ok)
	if !ok {
		return fail(fmt.Errorf("first decision after install is wrong (err %v)", err))
	}
	cost := setupCost{wall: time.Since(start)}
	dcpu, err := procCPU(d.pid())
	if err != nil {
		return fail(err)
	}
	cost.cpu = dcpu + selfCPU() - self0
	return d, cost, nil
}

// writer replays the update stream on its own connection on a fixed
// open-loop schedule. Successive runs continue the stream; issued counts
// the batches sent so far and res accumulates their timings.
type writer struct {
	r       *servingRun
	c       *client.Client
	issued  int
	res     openResult
	spanFor func(i int) bool
}

func (wr *writer) run(dur time.Duration) {
	w, in := wr.r.w, wr.r.in
	ops := make([]server.TableOp, w.writeOps)
	first, n := wr.issued, 0
	res := openLoop(1, w.writeRate, dur, func(_, i int) error {
		n = i + 1
		base := ((first + i) * w.writeOps) % len(in.Updates)
		for j := range ops {
			u := in.Updates[base+j]
			ops[j] = server.TableOp{Kind: server.TableUpsert, ID: uint32(u.ID), Vals: u.Vals}
		}
		t0 := time.Now()
		sts, err := wr.c.Apply(ops, len(w.schema))
		ok := err == nil && len(sts) == len(ops)
		for _, st := range sts {
			ok = ok && st == server.StatusOK
		}
		if wr.spanFor != nil && wr.spanFor(i) {
			wr.r.rec.add("loadgen.update", 0, 0, t0.UnixNano(), time.Now().UnixNano(), int64(len(ops)))
		}
		if !wr.r.t.outcome(err, ok) {
			return fmt.Errorf("update batch %d failed", first+i)
		}
		return nil
	})
	wr.issued += n
	wr.res.latUs = append(wr.res.latUs, res.latUs...)
	wr.res.lateUs = append(wr.res.lateUs, res.lateUs...)
	wr.res.backlog = max(wr.res.backlog, res.backlog)
}

// verifyFinal checks the table after the writer has stopped against the
// exact Figure 17 oracle over install order plus every issued update.
func (wr *writer) verifyFinal(c *client.Client) {
	w, in := wr.r.w, wr.r.in
	o := installedOracle(w, in)
	for i := 0; i < wr.issued*w.writeOps; i++ {
		u := in.Updates[i%len(in.Updates)]
		o.write(u.ID, u.Vals)
	}
	want := int32(routeAnswer(o, w))
	keys := in.batchKeys(0, w.batch, nil)
	ids, err := c.Decide(keys, make([]uint16, len(keys)), nil)
	ok := err == nil && len(ids) == len(keys)
	for _, id := range ids {
		ok = ok && id == want
	}
	wr.r.t.outcome(err, ok)
}

// openPhase offers phase B: decide batches at w.openRate over two
// connections, from batch offset first.
func (r *servingRun) openPhase(cs []*client.Client, first int, dur time.Duration, sample bool) openResult {
	check := newChecker(r.w, r.in)
	type sender struct {
		keys []uint64
		outs []uint16
		ids  []int32
		ti   client.TraceInfo
	}
	ss := make([]sender, len(cs))
	for i := range ss {
		ss[i].outs = make([]uint16, r.w.batch)
	}
	start := time.Now()
	interval := time.Duration(float64(time.Second) / r.w.openRate)
	return openLoop(len(cs), r.w.openRate, dur, func(s, i int) error {
		sd := &ss[s]
		sd.keys = r.in.batchKeys(first+i, r.w.batch, sd.keys)
		ids, err := cs[s].DecideTraced(sd.keys, sd.outs, sd.ids, &sd.ti)
		if err == nil {
			sd.ids = ids
		}
		if sample && sd.ti.ID != 0 {
			due := start.Add(time.Duration(i) * interval).UnixNano()
			r.traceSpans("loadgen.open_batch", traced{start: due, end: time.Now().UnixNano(), ti: sd.ti})
		}
		if !r.t.outcome(err, err == nil && len(ids) == r.w.batch && check(ids)) {
			return fmt.Errorf("batch %d failed", i)
		}
		return nil
	})
}

// traceSpans rebuilds one sampled request's phase spans under a root span.
func (r *servingRun) traceSpans(rootName string, tr traced) {
	ti := tr.ti
	root := r.rec.add(rootName, 0, ti.ID, tr.start, tr.end, int64(r.w.batch))
	r.rec.add("client.enqueue", root, ti.ID, ti.EnqueueNs, ti.SendNs, 0)
	r.rec.add("server.wire", root, ti.ID, ti.SendNs, ti.Server.RecvNs, 0)
	r.rec.add("server.ring_wait", root, ti.ID, ti.Server.AdmitNs, ti.Server.StartNs, 0)
	r.rec.add("engine.decide", root, ti.ID, ti.Server.StartNs, ti.Server.DoneNs, int64(r.w.batch))
	r.rec.add("client.reply", root, ti.ID, ti.Server.DoneNs, ti.ReplyNs, 0)
}

// costWindow is the length of the closed-loop windows a cost phase is cut
// into; a calibration slice follows each.
const costWindow = 500 * time.Millisecond

// systemCPU is the CPU time thanosd and this process have used so far.
func systemCPU(d *daemon) (time.Duration, error) {
	c, err := procCPU(d.pid())
	return c + selfCPU(), err
}

// costPhase runs the closed loop on cs in costWindow pieces for about dur,
// with the route-churn writer running throughout, and takes a calibration
// slice after each piece. It returns the merged phase and the CPU time
// thanosd and this process spent per decision in each piece: a host burst
// that disturbs a few pieces moves their median little.
func (r *servingRun) costPhase(d *daemon, cs []*client.Client, wr *writer, cal *calibration, first int, dur time.Duration) (closedResult, []float64, error) {
	check := newChecker(r.w, r.in)
	n := max(1, int(dur/costWindow))
	var wg sync.WaitGroup
	if wr != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wr.run(time.Duration(n) * (costWindow + calibSlice))
		}()
	}
	defer wg.Wait()
	var all closedResult
	var costs []float64
	for i := 0; i < n; i++ {
		c0, err := systemCPU(d)
		if err != nil {
			return all, nil, err
		}
		a := closedLoop(cs, r.in, r.w.batch, first+i<<16, costWindow, check, &r.t)
		c1, err := systemCPU(d)
		if err != nil {
			return all, nil, err
		}
		if a.decisions == 0 {
			return all, nil, fmt.Errorf("no decisions in %v", costWindow)
		}
		costs = append(costs, us(c1-c0)/float64(a.decisions))
		all.decisions += a.decisions
		all.elapsed += a.elapsed
		all.latUs = append(all.latUs, a.latUs...)
		all.traces = append(all.traces, a.traces...)
		if err := cal.slices(1); err != nil {
			return all, nil, err
		}
	}
	return all, costs, nil
}

// newWriter dials the route-churn writer connection, or returns nil for
// workloads without writes.
func (r *servingRun) newWriter(d *daemon) (*writer, error) {
	if r.w.writeRate == 0 {
		return nil, nil
	}
	c, err := r.dial(d, 100, 0)
	if err != nil {
		return nil, err
	}
	return &writer{r: r, c: c}, nil
}

// run is the untraced run: the end-to-end costs only.
func (r *servingRun) run() error {
	cal, err := newCalibration()
	if err != nil {
		return err
	}
	defer cal.close()
	var setupCPU []float64
	var d *daemon
	for i := 0; i < setupReps; i++ {
		dd, cost, err := r.launch()
		if err != nil {
			return err
		}
		setupCPU = append(setupCPU, cost.cpu.Seconds())
		if i < setupReps-1 {
			dd.stop()
		} else {
			d = dd
		}
	}
	defer d.stop()

	ca, err := r.dialN(d, r.w.connsA, 0, 0)
	if err != nil {
		return err
	}
	defer closeAll(ca)
	closedLoop(ca, r.in, r.w.batch, 1<<24, warmup, newChecker(r.w, r.in), &r.t)
	wr, err := r.newWriter(d)
	if err != nil {
		return err
	}
	if wr != nil {
		defer wr.c.Close()
	}
	steal0 := readCPUStat()
	a, costs, err := r.costPhase(d, ca, wr, cal, 0, time.Duration(r.o.seconds*float64(time.Second)))
	if err != nil {
		return err
	}
	scale := cal.scale()
	r.f.set("cpu_us_per_decision", median(costs)*scale)
	r.f.set("setup_s", median(setupCPU)*scale)
	fmt.Printf("closed loop: %d batches, %.3f CPU us/decision before scaling by %.3f; wall %.0f decisions/s, batch p50 %.1f us p99 %.1f us; host steal %.3f\n",
		len(a.latUs), median(costs), scale, float64(a.decisions)/a.elapsed.Seconds(),
		quantile(a.latUs, 0.5), quantile(a.latUs, 0.99), stealBetween(steal0, readCPUStat()))
	if wr != nil {
		wr.verifyFinal(ca[0])
		if err := r.openFigures(wr.res, "wall.update"); err != nil {
			return err
		}
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return err
	}
	r.f.set("peak_rss_mb", rss)
	return nil
}

// openFigures reports an open-loop phase under prefix, refusing one whose
// generator fell behind its schedule.
func (r *servingRun) openFigures(open openResult, prefix string) error {
	late := quantile(open.lateUs, 0.99)
	fmt.Printf("open loop: %d requests, p50 %.1f us p99 %.1f us from due time, p99 send lateness %.3f ms, end-of-phase backlog %v\n",
		len(open.lateUs), quantile(open.latUs, 0.5), quantile(open.latUs, 0.99), late/1e3, open.backlog)
	if open.backlog > maxBacklog {
		return fmt.Errorf("run invalid: the open-loop generator fell behind its schedule (backlog %v > %v)", open.backlog, maxBacklog)
	}
	r.f.set(prefix+"_p50_us", quantile(open.latUs, 0.5))
	r.f.set(prefix+"_p99_us", quantile(open.latUs, 0.99))
	r.f.set("loadgen.late_ms", late/1e3)
	return nil
}

// counters scraped from thanosd's /metrics around the traced phases.
var scraped = []struct{ metric, prom string }{
	{"server.frames", "thanos_server_frames_total"},
	{"server.rejects", "thanos_server_rejects_total"},
	{"server.table_ops", "thanos_server_table_ops_total"},
	{"engine.epoch_wait_spins", "thanos_engine_epoch_wait_spins_total"},
	{"engine.failover_decisions", "thanos_engine_failover_decisions_total"},
	{"engine.failed_decisions", "thanos_engine_failed_decisions_total"},
}

// runTraced is the traced run: an untraced and a traced closed-loop phase
// (their CPU cost per decision gives the tracing overhead), a traced
// open-loop phase, then direct calls into the in-process layers.
func (r *servingRun) runTraced() error {
	steal0 := readCPUStat()
	cal, err := newCalibration()
	if err != nil {
		return err
	}
	defer cal.close()
	d, cost, err := r.launch()
	if err != nil {
		return err
	}
	defer d.stop()
	r.f.set("wall.setup_s", cost.wall.Seconds())
	total := time.Duration(r.o.seconds * float64(time.Second))

	var snaps []map[string]float64
	scrape := func() error {
		m, err := d.scrape()
		snaps = append(snaps, m)
		return err
	}
	if err := scrape(); err != nil {
		return err
	}
	plain, err := r.dialN(d, r.w.connsA, 0, 0)
	if err != nil {
		return err
	}
	defer closeAll(plain)
	tracedCs, err := r.dialN(d, r.w.connsA, 20, traceEvery)
	if err != nil {
		return err
	}
	defer closeAll(tracedCs)
	closedLoop(plain, r.in, r.w.batch, 1<<24, warmup, newChecker(r.w, r.in), &r.t)
	wr, err := r.newWriter(d)
	if err != nil {
		return err
	}
	if wr != nil {
		defer wr.c.Close()
		wr.spanFor = func(i int) bool { return i%traceEvery == 0 }
	}

	durA := total / 4
	u, costsU, err := r.costPhase(d, plain, wr, cal, 0, durA)
	if err != nil {
		return err
	}
	if err := scrape(); err != nil {
		return err
	}
	tr, costsT, err := r.costPhase(d, tracedCs, wr, cal, 1<<23, durA)
	if err != nil {
		return err
	}
	if err := scrape(); err != nil {
		return err
	}
	for _, x := range tr.traces {
		r.traceSpans("loadgen.batch", x)
	}
	r.f.set("host.cpu_scale", cal.scale())
	r.f.set("wall.decisions_per_s", float64(u.decisions)/u.elapsed.Seconds())
	r.f.set("wall.batch_p50_us", quantile(u.latUs, 0.5))
	r.f.set("wall.batch_p99_us", quantile(u.latUs, 0.99))
	costU := median(costsU)
	r.f.ratio("trace.overhead", median(costsT), costU,
		fmt.Sprintf("traced/untraced CPU per decision; base %.3f us untraced", costU))

	if wr != nil {
		wr.verifyFinal(plain[0])
		if err := r.openFigures(wr.res, "wall.update"); err != nil {
			return err
		}
	} else {
		cb, err := r.dialN(d, openSenders, 30, traceEvery)
		if err != nil {
			return err
		}
		defer closeAll(cb)
		open := r.openPhase(cb, 1<<25, total/5, true)
		if err := r.openFigures(open, "wall.open"); err != nil {
			return err
		}
	}
	if err := scrape(); err != nil {
		return err
	}

	r.phaseFigures(tr)
	first, last := snaps[0], snaps[len(snaps)-1]
	for _, s := range scraped {
		r.f.set(s.metric, last[s.prom]-first[s.prom])
	}
	frames := r.f.vals["server.frames"]
	r.f.ratio("server.useful_ratio", frames-r.f.vals["server.rejects"], frames,
		fmt.Sprintf("answered/received frames; base %.0f frames", frames))
	r.f.set("client.rejects", float64(r.t.rejects.Load()))
	r.f.set("client.resets", float64(r.t.resets.Load()))

	lb := &layerBench{w: r.w, in: r.in, f: r.f, rec: r.rec, t: &r.t, budget: total / 40}
	err = r.rec.span("layers", 0, func(id uint64) error {
		lb.root = id
		return lb.run()
	})
	r.f.set("host.steal_ratio", stealBetween(steal0, readCPUStat()))
	return err
}

// phaseFigures turns the traced phase's sampled timelines into per-layer
// latencies.
func (r *servingRun) phaseFigures(tr closedResult) {
	var enq, reply, wire, ringW, decide []float64
	for _, x := range tr.traces {
		ti := x.ti
		enq = append(enq, usNs(ti.EnqueueNs, ti.SendNs))
		reply = append(reply, usNs(ti.Server.DoneNs, ti.ReplyNs))
		wire = append(wire, usNs(ti.SendNs, ti.Server.RecvNs))
		ringW = append(ringW, usNs(ti.Server.AdmitNs, ti.Server.StartNs))
		decide = append(decide, usNs(ti.Server.StartNs, ti.Server.DoneNs))
	}
	r.f.set("client.enqueue_p50_us", quantile(enq, 0.5))
	r.f.set("client.enqueue_p99_us", quantile(enq, 0.99))
	r.f.set("client.reply_p50_us", quantile(reply, 0.5))
	r.f.set("server.wire_p50_us", quantile(wire, 0.5))
	r.f.set("server.ring_wait_p50_us", quantile(ringW, 0.5))
	r.f.set("server.ring_wait_p99_us", quantile(ringW, 0.99))
	decP50 := quantile(decide, 0.5)
	r.f.set("engine.decide_p50_us", decP50)
	r.f.set("engine.decide_p99_us", quantile(decide, 0.99))
	batchP50 := quantile(tr.latUs, 0.5)
	r.f.ratio("engine.decide_share", decP50, batchP50,
		fmt.Sprintf("engine.decide_p50_us/traced batch p50; base %.1f us over %d sampled batches", batchP50, len(tr.traces)))
	fmt.Printf("traced phase: %d batches, %d sampled; decide p50 %.1f us of batch p50 %.1f us\n",
		len(tr.latUs), len(tr.traces), decP50, batchP50)
}

func (o *options) artifactDir() string {
	return filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d", o.workload, o.seed))
}
