package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one thanosd process serving a Unix socket, with its telemetry
// endpoint on a loopback port.
type daemon struct {
	cmd         *exec.Cmd
	sock        string
	metricsAddr string
	exited      chan struct{} // closed once the process has been reaped
	waitErr     error
}

// startDaemon launches thanosd with the workload's schema and policy and
// returns once it reports both listeners.
func startDaemon(bin, runDir string, w *workload, shards int) (*daemon, error) {
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	polPath := filepath.Join(runDir, w.name+".thanos")
	if err := os.WriteFile(polPath, []byte(w.policy), 0o644); err != nil {
		return nil, err
	}
	// The socket path is relative to the working directory, which keeps it
	// under the Unix socket path limit however deep the checkout is.
	sock := filepath.Join(runDir, fmt.Sprintf("%s-%d.sock", w.name, os.Getpid()))
	cmd := exec.Command(bin,
		"-uds", sock,
		"-shards", strconv.Itoa(shards),
		"-capacity", strconv.Itoa(w.resources),
		"-schema", strings.Join(w.schema, ","),
		"-policy", polPath,
		"-metrics", "127.0.0.1:0",
	)
	cmd.Stderr = os.Stderr
	// The daemon dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start thanosd: %w", err)
	}
	d := &daemon{cmd: cmd, sock: sock, exited: make(chan struct{})}

	ready := make(chan string, 4) // the two readiness lines, plus slack
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "thanosd: serving ") || strings.HasPrefix(line, "thanosd: telemetry on ") {
				select {
				case ready <- line:
				default:
				}
			}
		}
		_, _ = io.Copy(io.Discard, out) // keep draining after a scan error
		d.waitErr = cmd.Wait()
		close(d.exited)
	}()

	deadline := time.After(20 * time.Second)
	for served, telem := false, false; !served || !telem; {
		select {
		case line := <-ready:
			if strings.HasPrefix(line, "thanosd: serving ") {
				served = true
			} else {
				addr := strings.TrimPrefix(line, "thanosd: telemetry on http://")
				d.metricsAddr = strings.TrimSuffix(addr, "/metrics")
				telem = true
			}
		case <-d.exited:
			return nil, fmt.Errorf("thanosd exited before serving: %v", d.waitErr)
		case <-deadline:
			d.stop()
			return nil, fmt.Errorf("thanosd did not report its listeners within 20s")
		}
	}
	return d, nil
}

// stop drains the daemon with SIGTERM and waits until it has exited,
// killing it if the drain takes longer than 10s.
func (d *daemon) stop() {
	select {
	case <-d.exited:
		return
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // an already-exited process is reaped below
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
	_ = os.Remove(d.sock)
}

// pid is the daemon process id.
func (d *daemon) pid() int { return d.cmd.Process.Pid }

// peakRSSMB reads the daemon's resident-set high-water mark.
func (d *daemon) peakRSSMB() (float64, error) { return peakRSSMB(d.pid()) }

// peakRSSMB reads VmHWM of a process from /proc.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// scrape reads the daemon's counters and gauges from /metrics.
func (d *daemon) scrape() (map[string]float64, error) {
	resp, err := http.Get("http://" + d.metricsAddr + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape: %s", resp.Status)
	}
	vals := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			vals[f[0]] = v
		}
	}
	return vals, sc.Err()
}
