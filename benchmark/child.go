package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildDir is where the benchmark keeps everything it writes: the server
// binaries, the per-run scratch directory and the span files. It is
// relative to the working directory (the root of the checkout) and named in
// the root .gitignore.
const buildDir = ".bench_build"

// drainLimit is how long a server may take to exit after SIGTERM before the
// run fails.
const drainLimit = 10 * time.Second

// clockTick is the kernel's USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat; it is 100 on every Linux platform Go supports.
const clockTick = 10 * time.Millisecond

// buildBinary compiles ./cmd/<name> from the working tree into buildDir/bin
// and returns its path and how long the build took.
func buildBinary(name string) (string, time.Duration, error) {
	out, err := filepath.Abs(filepath.Join(buildDir, "bin", name))
	if err != nil {
		return "", 0, err
	}
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", out, "./cmd/"+name)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/%s: %w\n%s", name, err, stderr.String())
	}
	return out, time.Since(start), nil
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// child is one running server under test.
type child struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	logPath string
	started time.Time
	exited  chan struct{} // closed once cmd.Wait has returned
	waitErr error
}

// startChild execs bin with args plus a fresh -addr and returns once the
// process is running; waitHealthy then polls it. The server's log goes to
// logPath.
func startChild(bin string, args []string, logPath string) (*child, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logFile.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	// The server must not outlive the benchmark, whatever kills it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	c := &child{cmd: cmd, base: "http://" + addr, logPath: logPath, exited: make(chan struct{})}
	c.started = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", filepath.Base(bin), err)
	}
	go func() {
		c.waitErr = cmd.Wait()
		close(c.exited)
	}()
	return c, nil
}

// waitHealthy polls /healthz until it answers 200.
func (c *child) waitHealthy(hc *http.Client, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case <-c.exited:
			return fmt.Errorf("server exited during start-up: %v\n%s", c.waitErr, c.logTail())
		default:
		}
		resp, err := hc.Get(c.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("server not healthy after %v\n%s", limit, c.logTail())
}

// stop sends SIGTERM and waits for a clean exit within drainLimit; a server
// that has to be killed, or exits non-zero, is an error.
func (c *child) stop() error {
	select {
	case <-c.exited:
		return fmt.Errorf("server exited before it was stopped: %v\n%s", c.waitErr, c.logTail())
	default:
	}
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-c.exited:
		if c.waitErr != nil {
			return fmt.Errorf("server exited uncleanly after SIGTERM: %v\n%s", c.waitErr, c.logTail())
		}
		return nil
	case <-time.After(drainLimit):
		c.kill()
		return fmt.Errorf("server still running %v after SIGTERM; killed\n%s", drainLimit, c.logTail())
	}
}

// kill ends the process unconditionally and waits for it.
func (c *child) kill() {
	c.cmd.Process.Kill()
	<-c.exited
}

func (c *child) logTail() string {
	b, err := os.ReadFile(c.logPath)
	if err != nil {
		return ""
	}
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return "--- server log tail ---\n" + string(b)
}

// cpuTime returns the child's user+sys CPU so far, from /proc/<pid>/stat.
func (c *child) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseProcStatCPU(string(b))
}

// parseProcStatCPU extracts utime+stime (fields 14 and 15) from one
// /proc/<pid>/stat line. The command name (field 2) is parenthesised and may
// itself hold spaces, so fields are counted from the last ')'.
func parseProcStatCPU(stat string) (time.Duration, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, errors.New("proc stat: no command field")
	}
	f := strings.Fields(stat[i+1:])
	if len(f) < 13 {
		return 0, errors.New("proc stat: short line")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("proc stat: bad utime/stime")
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// peakRSSMiB returns the child's resident-set high-water mark (VmHWM).
func (c *child) peakRSSMiB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(string(b))
}

func parseVmHWM(status string) (float64, error) {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("proc status: VmHWM %q: %w", f[0], err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("proc status: no VmHWM line")
}

// fetch GETs one of the child's read-only endpoints.
func (c *child) fetch(hc *http.Client, path string) ([]byte, error) {
	resp, err := hc.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return b, nil
}
