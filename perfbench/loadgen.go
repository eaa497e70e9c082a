package main

import (
	"errors"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/server/client"
)

// tally counts a phase's outcomes across its sender goroutines.
type tally struct {
	attempted, failed, wrong, rejects, resets atomic.Int64
}

// outcome books one request's result and reports whether it succeeded.
func (t *tally) outcome(err error, correct bool) bool {
	t.attempted.Add(1)
	switch {
	case errors.Is(err, client.ErrRejected):
		t.rejects.Add(1)
	case errors.Is(err, client.ErrConnReset):
		t.resets.Add(1)
	}
	if err != nil {
		t.failed.Add(1)
		return false
	}
	if !correct {
		t.wrong.Add(1)
		t.failed.Add(1)
		return false
	}
	return true
}

// traced is one sampled request: the benchmark's own start and end of the
// call plus the stitched client/server timeline.
type traced struct {
	start, end int64
	ti         client.TraceInfo
}

// closedResult is one closed-loop phase.
type closedResult struct {
	decisions int64
	elapsed   time.Duration
	latUs     []float64 // per batch round trip
	traces    []traced
}

// maxTraces bounds the sampled timelines a phase keeps.
const maxTraces = 1 << 14

// closedLoop runs one sender goroutine per client, each with one request
// in flight, for dur. Sender g decides batches g, g+G, g+2G, ... of the
// key stream, starting at batch offset first.
func closedLoop(clients []*client.Client, in *inputs, batch, first int, dur time.Duration, check checker, t *tally) closedResult {
	var (
		mu  sync.Mutex
		res closedResult
		wg  sync.WaitGroup
	)
	g := len(clients)
	start := time.Now()
	stop := start.Add(dur)
	for s, c := range clients {
		wg.Add(1)
		go func(s int, c *client.Client) {
			defer wg.Done()
			keys := make([]uint64, 0, batch)
			outs := make([]uint16, batch)
			var ids []int32
			var ti client.TraceInfo
			var lat []float64
			var trs []traced
			var decided int64
			for b := first + s; ; b += g {
				t0 := time.Now()
				if !t0.Before(stop) {
					break
				}
				keys = in.batchKeys(b, batch, keys)
				res, err := c.DecideTraced(keys, outs, ids, &ti)
				t1 := time.Now()
				if err == nil {
					ids = res
				}
				if t.outcome(err, err == nil && len(res) == batch && check(res)) {
					decided += int64(batch)
					lat = append(lat, us(t1.Sub(t0)))
					if ti.ID != 0 && len(trs) < maxTraces {
						trs = append(trs, traced{start: t0.UnixNano(), end: t1.UnixNano(), ti: ti})
					}
				}
			}
			mu.Lock()
			res.decisions += decided
			res.latUs = append(res.latUs, lat...)
			res.traces = append(res.traces, trs...)
			mu.Unlock()
		}(s, c)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// openResult is one open-loop phase. Latency runs from each request's due
// time, so a stall delays every request scheduled behind it.
type openResult struct {
	latUs  []float64 // reply time minus due time
	lateUs []float64 // send time minus due time
	// backlog is the median lateness over the phase's last quarter: a
	// generator that keeps up sends on time at the end as at the start.
	backlog time.Duration
}

// maxBacklog is the end-of-phase lateness above which the generator is
// judged to have fallen behind its schedule; such a run is invalid.
const maxBacklog = 20 * time.Millisecond

// openLoop issues request i at start + i/rate for dur. Sender s of
// senders handles every request i ≡ s (mod senders) and blocks on its
// reply, so a slow reply makes the requests queued behind it late.
func openLoop(senders int, rate float64, dur time.Duration, do func(s, i int) error) openResult {
	var (
		mu  sync.Mutex
		res openResult
		wg  sync.WaitGroup
	)
	n := int(rate * dur.Seconds())
	interval := time.Duration(float64(time.Second) / rate)
	lateByIdx := make([]time.Duration, n)
	start := time.Now()
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			var lat, late []float64
			for i := s; i < n; i += senders {
				due := start.Add(time.Duration(i) * interval)
				sleepUntil(due)
				sent := time.Now()
				if err := do(s, i); err == nil {
					lat = append(lat, us(time.Since(due)))
				}
				late = append(late, us(sent.Sub(due)))
				lateByIdx[i] = sent.Sub(due)
			}
			mu.Lock()
			res.latUs = append(res.latUs, lat...)
			res.lateUs = append(res.lateUs, late...)
			mu.Unlock()
		}(s)
	}
	wg.Wait()
	var tail []float64
	for _, d := range lateByIdx[n-n/4:] {
		tail = append(tail, float64(d))
	}
	res.backlog = time.Duration(median(tail))
	return res
}

// sleepUntil blocks the calling thread in nanosleep until t. The runtime
// timer behind time.Sleep wakes up to a millisecond late when the process
// is otherwise idle, which would swamp sub-millisecond latencies timed
// from the due time; the kernel timer is accurate to tens of µs.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		if err := syscall.Nanosleep(&ts, nil); err == nil {
			return
		}
	}
}
