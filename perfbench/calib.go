package main

import (
	"fmt"
	"net"
	"os"
	"runtime"
	"time"
)

// The host's speed drifts by a third and more over tens of minutes as
// neighbours come and go: stolen time is excluded from CPU time, but a
// busy host also makes every wake-up of an idle virtual CPU, every system
// call and every cache miss dearer. So every cost the benchmark reports is
// scaled to a reference host speed by a fixed piece of work of the same
// kind, a Unix-socket ping-pong between two goroutines of this process,
// timed between the measured windows.

// calibRefUs is the ping-pong's CPU time per round trip on the reference
// host (2 vCPUs, Go 1.24); it fixes the unit of a scaled cost.
const calibRefUs = 8.0

// calibSlice is one ping-pong measurement. A run's scale comes from the
// median of many, so a burst of host load during one slice moves it little.
const calibSlice = 50 * time.Millisecond

// calibration is a Unix-socket pair with an echo goroutine on one end;
// each slice times round trips from the other end. Slices are taken
// between the measured windows of a run, so together they sample the
// host's speed over the whole run.
type calibration struct {
	a      net.Conn
	echoed chan struct{}
	us     []float64 // CPU time per round trip, one per slice
}

func newCalibration() (*calibration, error) {
	l, err := net.Listen("unix", fmt.Sprintf("@perfbench-calib-%d", os.Getpid()))
	if err != nil {
		return nil, fmt.Errorf("calibration: %w", err)
	}
	defer l.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := l.Accept() // nil on failure, reported below
		accepted <- c
	}()
	a, err := net.Dial("unix", l.Addr().String())
	if err != nil {
		return nil, fmt.Errorf("calibration: %w", err)
	}
	b := <-accepted
	if b == nil {
		a.Close()
		return nil, fmt.Errorf("calibration: accept failed")
	}
	c := &calibration{a: a, echoed: make(chan struct{})}
	go func() {
		defer close(c.echoed)
		defer b.Close()
		buf := make([]byte, 64)
		for {
			if _, err := b.Read(buf); err != nil {
				return
			}
			if _, err := b.Write(buf); err != nil {
				return
			}
		}
	}()
	return c, nil
}

// slices takes n calibration slices. Each starts with a collection, so
// the garbage the measured phase left behind is not charged to the slice.
func (c *calibration) slices(n int) error {
	buf := make([]byte, 64)
	for i := 0; i < n; i++ {
		runtime.GC()
		c0, t0, rt := selfCPU(), time.Now(), 0
		for time.Since(t0) < calibSlice {
			if _, err := c.a.Write(buf); err != nil {
				return fmt.Errorf("calibration: %w", err)
			}
			if _, err := c.a.Read(buf); err != nil {
				return fmt.Errorf("calibration: %w", err)
			}
			rt++
		}
		c.us = append(c.us, us(selfCPU()-c0)/float64(rt))
	}
	return nil
}

// close stops the echo goroutine and waits for it.
func (c *calibration) close() {
	c.a.Close()
	<-c.echoed
}

// scale is the factor that turns this run's CPU costs into costs at the
// reference host speed: the reference round trip over the median slice.
func (c *calibration) scale() float64 {
	return calibRefUs / median(append([]float64(nil), c.us...))
}
