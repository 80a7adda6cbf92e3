package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serverProc is one hgserve child. The harness never links the server into
// the timed path: the child only ever sees files and HTTP requests.
type serverProc struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	log  *os.File
	done chan struct{} // closed when the child has been waited for
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer execs hgserve and returns once GET /readyz answers 200.
// logPath receives the child's output (appended across restarts).
func startServer(ctx context.Context, bin, logPath string, args ...string) (*serverProc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// Should the harness be killed before it can stop the child, the
	// kernel does: a run may leave no process behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	sp := &serverProc{cmd: cmd, base: "http://" + addr, log: logf, done: make(chan struct{})}
	go func() {
		cmd.Wait() // exit status is irrelevant: the harness kills its children
		close(sp.done)
	}()
	if err := sp.waitReady(ctx); err != nil {
		sp.kill()
		return nil, err
	}
	return sp, nil
}

func (sp *serverProc) waitReady(ctx context.Context) error {
	deadline := time.Now().Add(60 * time.Second)
	client := &http.Client{Timeout: time.Second}
	for time.Now().Before(deadline) {
		select {
		case <-sp.done:
			return fmt.Errorf("hgserve exited before becoming ready (see %s)", sp.log.Name())
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		resp, err := client.Get(sp.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("hgserve not ready after 60s (see %s)", sp.log.Name())
}

// kill sends SIGKILL and waits for the child; safe to call twice.
func (sp *serverProc) kill() {
	if sp == nil {
		return
	}
	sp.cmd.Process.Signal(syscall.SIGKILL) // errors mean it is already gone
	<-sp.done
	sp.log.Close()
}

// peakRSSMB reads the child's resident-set high-water mark.
func (sp *serverProc) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", sp.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", sp.cmd.Process.Pid)
}

// getJSON fetches one of the server's small JSON documents.
func (sp *serverProc) getJSON(path string, v any) error {
	resp, err := http.Get(sp.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
