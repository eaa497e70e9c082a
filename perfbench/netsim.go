package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/netsim"
	"repro/internal/netsim/topology"
	"repro/internal/sim"
)

const (
	coreDelay  = 10 * sim.Microsecond // agg-core propagation delay, the lookahead window
	maxSimTime = 100 * sim.Second
	minParReps = 3
)

// netRun drives fattree-k8: the parallel netsim (one LP per pod plus a
// core LP) against the serial scheduler on the same seed.
type netRun struct {
	o   *options
	in  *inputs
	f   *figures
	rec *recorder
	t   tally
}

// build makes the fat tree and, when parallel, hands it to the LP driver
// before any flow is offered.
func (r *netRun) build(parallel bool) (*netsim.Network, *netsim.Parallel, error) {
	net, err := netsim.New(r.in.NetSeed, netsim.DefaultConfig())
	if err != nil {
		return nil, nil, err
	}
	ft, err := topology.NewFatTree(net, fatTreeK)
	if err != nil {
		return nil, nil, err
	}
	ft.SetCorePropDelay(coreDelay)
	var par *netsim.Parallel
	if parallel {
		pt, err := ft.Partition(fatTreeK + 1)
		if err != nil {
			return nil, nil, err
		}
		if par, err = netsim.NewParallel(net, pt); err != nil {
			return nil, nil, err
		}
	}
	for _, fl := range r.in.Flows {
		if _, err := net.StartFlow(fl.Src, fl.Dst, fl.Bytes, fl.At); err != nil {
			if par != nil {
				par.Close()
			}
			return nil, nil, err
		}
	}
	return net, par, nil
}

// serialRun is the reference: the serial scheduler driven to completion.
type serialRun struct {
	records   []netsim.FlowRecord
	events    int
	wall, cpu time.Duration
}

func (r *netRun) runSerial(parent uint64) (serialRun, error) {
	net, _, err := r.build(false)
	if err != nil {
		return serialRun{}, err
	}
	var res serialRun
	start, cpu0 := time.Now(), selfCPU()
	for deadline := sim.Time(0); net.ActiveFlows() > 0; {
		if deadline > maxSimTime {
			return res, fmt.Errorf("serial run: %d flows left at %v", net.ActiveFlows(), deadline)
		}
		deadline += 100 * sim.Millisecond
		t0 := time.Now().UnixNano()
		n := net.Sched.RunUntil(deadline)
		r.rec.add("sim.RunUntil", parent, 0, t0, time.Now().UnixNano(), int64(n))
		res.events += n
	}
	res.wall, res.cpu = time.Since(start), selfCPU()-cpu0
	res.records = net.Records()
	return res, nil
}

// parRun is one run of the parallel driver.
type parRun struct {
	setupCPU, cpu time.Duration // build and offer; the run itself
	setup, wall   time.Duration
	windows       int
	records       []netsim.FlowRecord
	net           *netsim.Network
}

// runParallel builds, offers and runs to completion, stepping one
// lookahead window at a time (which is what RunUntilDone does) so the
// traced run can put a span around each window.
func (r *netRun) runParallel(traceWindows bool) (parRun, error) {
	var res parRun
	wall0, cpu0 := time.Now(), selfCPU()
	net, par, err := r.build(true)
	if err != nil {
		return res, err
	}
	defer par.Close()
	cpu1 := selfCPU()
	res.setup, res.setupCPU = time.Since(wall0), cpu1-cpu0
	window := par.Window()
	var root uint64
	if traceWindows {
		root = r.rec.add("netsim.parallel_run", 0, 0, time.Now().UnixNano(), 0, 0)
	}
	start := time.Now()
	for net.ActiveFlows() > 0 {
		if par.Now() > maxSimTime {
			return res, fmt.Errorf("parallel run: %d flows left at %v", net.ActiveFlows(), par.Now())
		}
		t0 := time.Now().UnixNano()
		par.RunUntil(par.Now() + window - 1)
		res.windows++
		if traceWindows {
			r.rec.add("netsim.window", root, 0, t0, time.Now().UnixNano(), int64(par.Now()))
		}
	}
	res.wall = time.Since(start)
	res.cpu = selfCPU() - cpu1
	if traceWindows {
		r.rec.mu.Lock()
		r.rec.spans[root-1].End = time.Now().UnixNano()
		r.rec.mu.Unlock()
	}
	res.records = net.Records()
	res.net = net
	return res, nil
}

// verify books every flow of a parallel run against the serial records:
// all flows complete and every record is bit-identical.
func (r *netRun) verify(got, want []netsim.FlowRecord) {
	for i := 0; i < numFlows; i++ {
		ok := i < len(got) && i < len(want) && got[i] == want[i]
		r.t.outcome(nil, ok)
	}
	if len(got) != numFlows || len(want) != numFlows {
		r.t.outcome(nil, false)
	}
}

// netCounters sums the network's port and host counters.
type netCounters struct {
	switchSent, sent, drops, retx, nicBytes uint64
}

func countNet(net *netsim.Network) netCounters {
	var c netCounters
	for _, sw := range net.Switches {
		for i := 0; i < sw.NumPorts(); i++ {
			p := sw.Port(i)
			c.switchSent += p.Sent()
			c.sent += p.Sent()
			c.drops += p.Drops()
		}
	}
	for _, h := range net.Hosts {
		nic := h.NIC()
		c.sent += nic.Sent()
		c.drops += nic.Drops()
		c.nicBytes += nic.SentBytes()
		rto, fast := h.Retransmits()
		c.retx += rto + fast
	}
	return c
}

// calibPerRep is the number of calibration slices taken after each
// parallel run.
const calibPerRep = 3

// rssReps is the number of parallel runs after which peak RSS is read, so
// the figure does not depend on how many runs fit in --seconds.
const rssReps = 3

// run is the untraced run: parallel runs to completion for --seconds,
// each checked against the serial reference.
func (r *netRun) run() error {
	cal, err := newCalibration()
	if err != nil {
		return err
	}
	defer cal.close()
	ser, err := r.runSerial(0)
	if err != nil {
		return err
	}
	budget := time.Duration(r.o.seconds * float64(time.Second))
	var setups, costs, walls []float64
	var rss float64
	start := time.Now()
	for n := 0; n < minParReps || time.Since(start) < budget; n++ {
		runtime.GC()
		rep, err := r.runParallel(false)
		if err != nil {
			return err
		}
		r.verify(rep.records, ser.records)
		if err := cal.slices(calibPerRep); err != nil {
			return err
		}
		decisions := float64(countNet(rep.net).switchSent)
		setups = append(setups, rep.setupCPU.Seconds())
		costs = append(costs, us(rep.cpu)/decisions)
		walls = append(walls, rep.wall.Seconds())
		if n+1 == rssReps {
			if rss, err = peakRSSMB(os.Getpid()); err != nil {
				return err
			}
		}
	}
	scale := cal.scale()
	fmt.Printf("fattree-k8: %d parallel runs, median %.3f CPU us/forwarding decision before scaling by %.3f, wall %.3fs; serial wall %.3fs\n",
		len(costs), median(costs), scale, median(walls), ser.wall.Seconds())
	r.f.set("cpu_us_per_decision", median(costs)*scale)
	r.f.set("setup_s", median(setups)*scale)
	r.f.set("peak_rss_mb", rss)
	return nil
}

// runTraced is the traced run: the serial reference with a span per
// RunUntil chunk, an untraced parallel run, and a parallel run with a
// span per window.
func (r *netRun) runTraced() error {
	steal0 := readCPUStat()
	cal, err := newCalibration()
	if err != nil {
		return err
	}
	defer cal.close()
	if err := cal.slices(2 * calibPerRep); err != nil {
		return err
	}
	r.f.set("host.cpu_scale", cal.scale())
	var ser serialRun
	if err := r.rec.span("netsim.serial_run", 0, func(id uint64) error {
		var err error
		ser, err = r.runSerial(id)
		return err
	}); err != nil {
		return err
	}
	runtime.GC()
	plain, err := r.runParallel(false)
	if err != nil {
		return err
	}
	r.verify(plain.records, ser.records)
	runtime.GC()
	tr, err := r.runParallel(true)
	if err != nil {
		return err
	}
	r.verify(tr.records, ser.records)

	c := countNet(plain.net)
	var flowBytes int64
	for _, rec := range ser.records {
		flowBytes += rec.Bytes
	}
	r.f.set("wall.sim_s", plain.wall.Seconds())
	r.f.set("wall.setup_s", plain.setup.Seconds())
	r.f.set("sim.events", float64(ser.events))
	r.f.set("sim.ns_per_event", float64(ser.cpu.Nanoseconds())/float64(ser.events))
	r.f.set("netsim.serial_wall_s", ser.wall.Seconds())
	r.f.ratio("netsim.speedup", ser.wall.Seconds(), plain.wall.Seconds(),
		fmt.Sprintf("serial/parallel wall; base %.3fs parallel", plain.wall.Seconds()))
	r.f.set("netsim.windows", float64(plain.windows))
	r.f.set("netsim.wall_us_per_window", us(plain.wall)/float64(plain.windows))
	r.f.set("netsim.pkts_sent", float64(c.sent))
	r.f.set("netsim.drops", float64(c.drops))
	r.f.set("netsim.retx", float64(c.retx))
	r.f.ratio("netsim.goodput_ratio", float64(flowBytes), float64(c.nicBytes),
		fmt.Sprintf("flow bytes/NIC bytes sent; base %d bytes", c.nicBytes))
	r.f.ratio("trace.overhead", tr.cpu.Seconds(), plain.cpu.Seconds(),
		fmt.Sprintf("traced/untraced CPU of a parallel run; base %.3fs untraced", plain.cpu.Seconds()))
	r.f.set("host.steal_ratio", stealBetween(steal0, readCPUStat()))
	return nil
}
