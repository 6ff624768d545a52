package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// repoRoot is where the monitored repository sits relative to this package's
// directory, which is the working directory `go run -C benchmarks/linbench .`
// gives the benchmark.
const repoRoot = "../.."

// workRoot holds everything a run leaves on disk — the linmond binary, state
// directories, trace files — inside the checkout (.gitignore names it). It
// is on the checkout's real disk, which is what durable_nq's fsyncs need.
var workRoot = filepath.Join(repoRoot, ".bench_build", "linbench")

// buildLinmond compiles cmd/linmond from the checkout's source into dir. It
// runs once per invocation, before anything is timed.
func buildLinmond(dir string) (string, error) {
	bin, err := filepath.Abs(filepath.Join(dir, "linmond"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-C", repoRoot, "-o", bin, "./cmd/linmond")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building cmd/linmond: %v\n%s", err, out)
	}
	return bin, nil
}

// procs tracks every linmond this process started, so that an interrupt or a
// failed run can kill whatever is still alive.
var procs struct {
	mu   sync.Mutex
	live map[*linmond]struct{}
}

func killAllLinmonds() {
	procs.mu.Lock()
	defer procs.mu.Unlock()
	for p := range procs.live {
		p.cmd.Process.Kill()
	}
}

// linmond is one running daemon under test.
type linmond struct {
	cmd     *exec.Cmd
	addr    string
	started time.Time     // taken just before exec
	logs    chan struct{} // closed once stderr reached EOF
	mu      sync.Mutex
	tail    []string // last stderr lines, for failure reports
}

var listenLine = regexp.MustCompile(`listening on (\S+) `)

// startTimeout bounds exec → "listening" line; stopTimeout bounds SIGTERM →
// exit (a durable daemon writes its final checkpoints in between).
const (
	startTimeout = 10 * time.Second
	stopTimeout  = 20 * time.Second
)

// startLinmond execs bin with -listen 127.0.0.1:0 plus args and returns once
// the daemon has logged its address.
func startLinmond(bin string, args ...string) (*linmond, error) {
	p := &linmond{logs: make(chan struct{})}
	p.cmd = exec.Command(bin, append([]string{"-listen", "127.0.0.1:0"}, args...)...)
	// A benchmark killed outright cannot run its clean-up; the kernel then
	// kills the daemon for it.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := p.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	addr := make(chan string, 1)
	p.started = time.Now()
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting linmond: %w", err)
	}
	procs.mu.Lock()
	if procs.live == nil {
		procs.live = make(map[*linmond]struct{})
	}
	procs.live[p] = struct{}{}
	procs.mu.Unlock()
	go func() {
		defer close(p.logs)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if m := listenLine.FindStringSubmatch(line); m != nil {
				select {
				case addr <- m[1]:
				default:
				}
			}
			p.mu.Lock()
			p.tail = append(p.tail, line)
			if len(p.tail) > 20 {
				p.tail = p.tail[1:]
			}
			p.mu.Unlock()
		}
	}()
	select {
	case p.addr = <-addr:
		return p, nil
	case <-p.logs:
		p.reap()
		return nil, fmt.Errorf("linmond exited before listening:\n%s", p.stderrTail())
	case <-time.After(startTimeout):
		p.cmd.Process.Kill()
		<-p.logs
		p.reap()
		return nil, fmt.Errorf("linmond did not listen within %v", startTimeout)
	}
}

func (p *linmond) stderrTail() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.tail, "\n")
}

// reap waits for the exited process and forgets it. Only call after p.logs
// is closed: Wait closes the stderr pipe under a reader otherwise.
func (p *linmond) reap() {
	p.cmd.Wait()
	procs.mu.Lock()
	delete(procs.live, p)
	procs.mu.Unlock()
}

// usage is what the kernel accounted to one linmond over its lifetime.
type usage struct {
	cpu time.Duration // user + system
	// peakRSSKB is VmHWM read just before the SIGTERM. It is not
	// Rusage.Maxrss: Go starts children with vfork semantics, the child runs
	// on the parent's address space until exec, and exec folds that address
	// space's high-water mark into the child's ru_maxrss — so Maxrss reports
	// the load generator's own peak whenever that is the larger one.
	peakRSSKB int64
}

// stop sends SIGTERM — linmond's graceful path: close sessions, write final
// checkpoints, exit 0 — and returns the process's resource usage. A daemon
// that does not exit within stopTimeout is killed and reported.
func (p *linmond) stop() (usage, error) {
	peak := p.statusKB("VmHWM:")
	p.cmd.Process.Signal(syscall.SIGTERM)
	var err error
	select {
	case <-p.logs:
	case <-time.After(stopTimeout):
		p.cmd.Process.Kill()
		<-p.logs
		err = fmt.Errorf("linmond ignored SIGTERM for %v, killed", stopTimeout)
	}
	p.reap()
	st := p.cmd.ProcessState
	// linmond installs its signal handler after it has logged its address, so
	// a SIGTERM that follows a start-only probe's hello within a few hundred
	// microseconds can still meet the default action. That daemon had applied
	// nothing, so dying of this SIGTERM is as good as the graceful path.
	ws, _ := st.Sys().(syscall.WaitStatus)
	termed := ws.Signaled() && ws.Signal() == syscall.SIGTERM
	if err == nil && !st.Success() && !termed {
		err = fmt.Errorf("linmond exited with %v:\n%s", st, p.stderrTail())
	}
	return usage{cpu: st.UserTime() + st.SystemTime(), peakRSSKB: peak}, err
}

// kill ends the daemon at once; for failure paths.
func (p *linmond) kill() {
	p.cmd.Process.Kill()
	<-p.logs
	p.reap()
}

// statusKB reads one kB-valued field ("VmRSS:", "VmHWM:") of the daemon's
// /proc status; 0 if it cannot be read.
func (p *linmond) statusKB(field string) int64 {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	_, rest, ok := bytes.Cut(raw, []byte(field))
	if !ok {
		return 0
	}
	fields := strings.Fields(string(rest[:min(len(rest), 40)]))
	if len(fields) == 0 {
		return 0
	}
	kb, _ := strconv.ParseInt(fields[0], 10, 64)
	return kb
}
