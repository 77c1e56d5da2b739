package main

import (
	"bufio"
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

// daemon is one keplerd process reading its archive from a FIFO the
// driver writes.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	args    []string
	started time.Time
	fifo    *os.File      // write end, once keplerd opened the read end
	opened  chan error    // FIFO open result
	drained chan drainMsg // "source drained" log line
	resumed chan struct{} // closed on the "resuming from checkpoint" log line
	exited  chan struct{} // closed when the process has been reaped
	exitErr error
	client  *http.Client // the poller connection
}

type drainMsg struct {
	at      time.Time
	records int
}

// daemonArgs are the keplerd flags of a benchmark run; everything not
// named stays at its default.
func daemonArgs(seed int64, fifo, addr string, extra ...string) []string {
	return append([]string{"-seed", strconv.FormatInt(seed, 10), "-archive", fifo, "-speed", "0", "-listen", addr}, extra...)
}

// startDaemon launches keplerd on a fresh FIFO in dir and opens the FIFO's
// write end in the background (the open completes once keplerd opens the
// read end at startup).
func startDaemon(bin, dir string, seed int64, extra ...string) (*daemon, error) {
	fifo := filepath.Join(dir, "feed.fifo")
	os.Remove(fifo)
	if err := syscall.Mkfifo(fifo, 0o600); err != nil {
		return nil, fmt.Errorf("mkfifo: %w", err)
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	d := &daemon{
		addr:    addr,
		opened:  make(chan error, 1),
		drained: make(chan drainMsg, 1),
		resumed: make(chan struct{}),
		exited:  make(chan struct{}),
		client: &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		},
	}
	d.args = daemonArgs(seed, fifo, addr, extra...)
	d.cmd = exec.Command(filepath.Join(bin, "keplerd"), d.args...)
	// keplerd must not outlive the driver, however the driver ends.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	logf, err := os.Create(filepath.Join(dir, "keplerd.log"))
	if err != nil {
		return nil, err
	}
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	d.started = time.Now()
	if err := d.cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	go d.watchLog(stderr, logf)
	go func() {
		f, err := os.OpenFile(fifo, os.O_WRONLY, 0)
		if err == nil {
			d.fifo = f
		}
		d.opened <- err
	}()
	return d, nil
}

// watchLog copies keplerd's log to a file and signals the lines the driver
// synchronizes on, then reaps the process.
func (d *daemon) watchLog(r io.Reader, logf *os.File) {
	defer logf.Close()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	resumed := false
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(logf, line)
		switch {
		case strings.Contains(line, "source drained"):
			m := drainMsg{at: time.Now(), records: -1}
			for _, f := range strings.Fields(line) {
				if v, ok := strings.CutPrefix(f, "records="); ok {
					m.records, _ = strconv.Atoi(v)
				}
			}
			select {
			case d.drained <- m:
			default:
			}
		case !resumed && strings.Contains(line, "resuming from checkpoint"):
			resumed = true
			close(d.resumed)
		}
	}
	io.Copy(io.Discard, r)
	d.exitErr = d.cmd.Wait()
	close(d.exited)
}

// waitOpened waits for keplerd to open the FIFO.
func (d *daemon) waitOpened(timeout time.Duration) error {
	select {
	case err := <-d.opened:
		return err
	case <-d.exited:
		return fmt.Errorf("keplerd exited before opening its archive: %v", d.exitErr)
	case <-time.After(timeout):
		return errors.New("keplerd did not open its archive FIFO")
	}
}

// waitHealthy polls /healthz until it answers 200 and returns that time.
func (d *daemon) waitHealthy(timeout time.Duration) (time.Time, error) {
	deadline := time.Now().Add(timeout)
	c := &http.Client{Timeout: time.Second, Transport: d.client.Transport}
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			return time.Time{}, fmt.Errorf("keplerd exited during startup: %v", d.exitErr)
		default:
		}
		resp, err := c.Get("http://" + d.addr + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Now(), nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return time.Time{}, errors.New("keplerd never became healthy")
}

// waitDrained waits for the "source drained" log line.
func (d *daemon) waitDrained(timeout time.Duration) (drainMsg, error) {
	select {
	case m := <-d.drained:
		return m, nil
	case <-d.exited:
		return drainMsg{}, fmt.Errorf("keplerd exited before draining its source: %v", d.exitErr)
	case <-time.After(timeout):
		return drainMsg{}, fmt.Errorf("keplerd did not drain its source within %v", timeout)
	}
}

// closeFeed closes the FIFO's write end: keplerd reads end of stream.
func (d *daemon) closeFeed() {
	if d.fifo != nil {
		d.fifo.Close()
		d.fifo = nil
	}
}

// stop ends the process with sig, escalating to SIGKILL after grace, and
// waits until it has been reaped.
func (d *daemon) stop(sig syscall.Signal, grace time.Duration) {
	d.closeFeed()
	d.cmd.Process.Signal(sig)
	select {
	case <-d.exited:
	case <-time.After(grace):
		d.cmd.Process.Kill()
		<-d.exited
	}
	d.client.CloseIdleConnections()
}

// cpu returns keplerd's user+system CPU time so far (/proc/<pid>/stat,
// USER_HZ = 100 on Linux).
func (d *daemon) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, errors.New("malformed /proc stat")
	}
	// Fields after the command: state is f[0], utime f[11], stime f[12].
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat")
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// peakRSS returns keplerd's VmHWM in MiB.
func (d *daemon) peakRSS() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(v)
			if len(f) > 0 {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// freeAddr reserves a loopback port for keplerd's listener.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}
