package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/bench/workloads"
)

// gatewayProcs is how many cores the gateway may use. Pinned, so a run does
// not depend on what the Go runtime makes of the sandbox's CPU quota.
const gatewayProcs = "2"

// buildGateway compiles cmd/dmgateway from the checkout in the current
// directory into dir and returns the binary's path.
func buildGateway(ctx context.Context, dir string) (string, error) {
	bin := filepath.Join(dir, "dmgateway")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/dmgateway")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build ./cmd/dmgateway: %w\n%s", err, out)
	}
	return bin, nil
}

// gateway is one dmgateway subprocess on a loopback port.
type gateway struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:<port>
	stderr *tailBuffer
	exited chan struct{} // closed once Wait returned
}

// tailBuffer keeps the last few KiB of the child's stderr for error reports.
type tailBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf.Write(p)
	if over := t.buf.Len() - 8192; over > 0 {
		t.buf.Next(over)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.buf.String()
}

// freeAddr asks the kernel for an unused loopback port. The port is released
// before the gateway binds it; startGateway retries on the (rare) race.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startGateway boots the gateway on a free port over walDir and returns once
// GET /engine/stats answers 200. The returned duration runs from exec to that
// first 200.
func startGateway(bin string, spec workloads.Spec, walDir string, metrics bool) (*gateway, time.Duration, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		g, took, err := startGatewayOnce(bin, spec, walDir, metrics)
		if err == nil {
			return g, took, nil
		}
		lastErr = err
	}
	return nil, 0, lastErr
}

func startGatewayOnce(bin string, spec workloads.Spec, walDir string, metrics bool) (*gateway, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	args := append([]string{}, workloads.CommonFlags...)
	args = append(args, spec.Flags...)
	args = append(args, "-addr", addr, "-wal-dir", walDir, "-metrics="+strconv.FormatBool(metrics))
	g := &gateway{base: "http://" + addr, stderr: &tailBuffer{}, exited: make(chan struct{})}
	g.cmd = exec.Command(bin, args...)
	g.cmd.Env = append(os.Environ(), "GOMAXPROCS="+gatewayProcs)
	g.cmd.Stderr = g.stderr
	// If dmload itself is killed, no gateway may outlive it.
	g.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := g.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start gateway: %w", err)
	}
	go func() {
		_ = g.cmd.Wait() // exit status is irrelevant: the benchmark always SIGKILLs
		close(g.exited)
	}()
	deadline := time.After(120 * time.Second)
	for {
		resp, err := http.Get(g.base + "/engine/stats")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return g, time.Since(start), nil
			}
		}
		select {
		case <-g.exited:
			return nil, 0, fmt.Errorf("gateway exited during boot: %s", g.stderr)
		case <-deadline:
			g.kill()
			return nil, 0, fmt.Errorf("gateway not ready after 120s: %s", g.stderr)
		case <-time.After(time.Millisecond):
		}
	}
}

// kill SIGKILLs the gateway and waits until the process is gone.
func (g *gateway) kill() {
	_ = g.cmd.Process.Kill() // already-exited is fine
	<-g.exited
}

// procStatusMB reads one kB-valued field (VmRSS, VmHWM) of the gateway's
// /proc status, in MB.
func (g *gateway) procStatusMB(field string) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", g.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, g.cmd.Process.Pid)
}

// rssSampler averages the gateway's resident set over a stretch of the run.
// The mean over many samples is steadier than the peak, which lands wherever
// the Go collector's last cycle happened to end (a 10-12 % spread run to run).
type rssSampler struct {
	quit chan struct{}
	once sync.Once
	done chan struct{}
	sum  float64
	n    int
}

func (g *gateway) sampleRSS(every time.Duration) *rssSampler {
	s := &rssSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-tick.C:
				if mb, err := g.procStatusMB("VmRSS"); err == nil {
					s.sum += mb
					s.n++
				}
			}
		}
	}()
	return s
}

// mean stops the sampler and returns the mean of its samples (NaN if none).
// It may be called more than once.
func (s *rssSampler) mean() float64 {
	s.once.Do(func() { close(s.quit) })
	<-s.done
	return s.sum / float64(s.n)
}
