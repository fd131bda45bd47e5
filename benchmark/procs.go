package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// This file starts and stops the real daemons. The rules it keeps: the
// binaries are compiled before any clock starts; every port comes from the
// kernel (bind 127.0.0.1:0, read the port, release it); a child's stderr
// goes straight to a file and is never read while anything is timed; every
// child runs in its own process group and is killed, group and all, on
// every exit path; and a child that exits on its own fails the run.

// node is one serving process.
type node struct {
	name string
	url  string
	pid  int // of the serving process; this process when in-process
	stop func()
	// failed reports, without blocking, whether the process has exited on
	// its own. In-process nodes never do.
	failed func() error
}

// deployer brings up the serving processes a workload needs. The real one
// executes the repository's binaries; tests substitute in-process servers
// so that `go test` starts no daemons.
type deployer interface {
	// static serves a prebuilt index from its saved files, default flags.
	static(graphPath, indexPath string) (*node, error)
	// primary serves graphPath as a durable mutable dataset.
	primary(graphPath, walDir string, k int) (*node, error)
	// follower replicates the primary's dataset.
	follower(graphPath string, k int, primaryURL string) (*node, error)
	// router fronts the replicas and sends writes to the primary.
	router(primaryURL string, replicaURLs []string) (*node, error)
}

// datasetName is the one dataset every daemon serves.
const datasetName = "g"

// execDeployer runs the binaries built from this checkout.
type execDeployer struct {
	binDir string // holds kreachd and kreach-router
	logDir string // children's stderr, one file each

	mu   sync.Mutex
	live map[int]chan struct{} // process id → closed once it has been reaped
	seq  int
}

// buildBinaries compiles the daemons from the checkout rooted at root.
func buildBinaries(root, binDir string) error {
	cmd := exec.Command("go", "build", "-o", binDir+string(filepath.Separator), "./cmd/kreachd", "./cmd/kreach-router")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building daemons: %w\n%s", err, out)
	}
	return nil
}

func newExecDeployer(binDir, logDir string) *execDeployer {
	return &execDeployer{binDir: binDir, logDir: logDir, live: map[int]chan struct{}{}}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// readyPoll is how often a booting daemon's /readyz is polled. Cold start
// is timed through this loop, so the period bounds that timing's grain.
const readyPoll = time.Millisecond

// start executes one daemon on a fresh port and waits until it is ready.
func (d *execDeployer) start(binary, name string, args ...string) (*node, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	d.seq++
	logPath := filepath.Join(d.logDir, fmt.Sprintf("%02d-%s.log", d.seq, name))
	d.mu.Unlock()
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logFile.Close() // the child holds its own descriptor

	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(filepath.Join(d.binDir, binary), append([]string{"-listen", addr}, args...)...)
	cmd.Stderr = logFile
	// Own process group, so one signal reaches anything the child starts;
	// and the kernel kills the child should this process die first.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	exited := make(chan struct{})
	d.mu.Lock()
	d.live[cmd.Process.Pid] = exited
	d.mu.Unlock()
	var exitErr error
	go func() {
		exitErr = cmd.Wait()
		close(exited)
	}()
	n := &node{name: name, url: "http://" + addr, pid: cmd.Process.Pid}
	n.failed = func() error {
		select {
		case <-exited:
			tail, _ := os.ReadFile(logPath)
			if len(tail) > 2048 {
				tail = tail[len(tail)-2048:]
			}
			return fmt.Errorf("%s exited early (%v); stderr tail:\n%s", name, exitErr, tail)
		default:
			return nil
		}
	}
	n.stop = func() {
		d.mu.Lock()
		delete(d.live, cmd.Process.Pid)
		d.mu.Unlock()
		_ = syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) // ESRCH once it is gone
		<-exited
	}
	if err := waitReady(n); err != nil {
		n.stop()
		return nil, err
	}
	return n, nil
}

// waitReady polls /readyz until it answers 200 or the process dies.
func waitReady(n *node) error {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if err := n.failed(); err != nil {
			return err
		}
		resp, err := http.Get(n.url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(readyPoll)
	}
	return fmt.Errorf("%s not ready after 60s", n.name)
}

// killAll stops every child still running: the last line of defence for
// exit paths that bypass the owners' deferred stops (signals, fatal
// errors).
func (d *execDeployer) killAll() {
	d.mu.Lock()
	live := d.live
	d.live = map[int]chan struct{}{}
	d.mu.Unlock()
	for pid := range live {
		_ = syscall.Kill(-pid, syscall.SIGKILL)
	}
	// Each child's Wait goroutine reaps it; wait for that, so no child
	// outlives this process's last line of output.
	for _, exited := range live {
		<-exited
	}
}

func (d *execDeployer) static(graphPath, indexPath string) (*node, error) {
	return d.start("kreachd", "static",
		"-dataset", fmt.Sprintf("%s,graph=%s,index=%s", datasetName, graphPath, indexPath))
}

func (d *execDeployer) primary(graphPath, walDir string, k int) (*node, error) {
	return d.start("kreachd", "primary", "-mutable", "-wal-dir", walDir,
		"-dataset", fmt.Sprintf("%s,graph=%s,k=%d", datasetName, graphPath, k))
}

func (d *execDeployer) follower(graphPath string, k int, primaryURL string) (*node, error) {
	return d.start("kreachd", "follower", "-follow", primaryURL,
		"-dataset", fmt.Sprintf("%s,graph=%s,k=%d", datasetName, graphPath, k))
}

func (d *execDeployer) router(primaryURL string, replicaURLs []string) (*node, error) {
	args := []string{"-primary", primaryURL}
	for _, u := range replicaURLs {
		args = append(args, "-replica", u)
	}
	return d.start("kreach-router", "router", args...)
}

// tier is the replicated deployment of the http-tier workload: a router in
// front of a durable primary and one follower.
type tier struct {
	router, primary, follower *node
}

// nodes lists the members in the order they are stopped: the follower
// before the primary whose feed it is parked on.
func (t *tier) nodes() []*node { return []*node{t.router, t.follower, t.primary} }

func (t *tier) stop() {
	for _, n := range t.nodes() {
		if n != nil {
			n.stop()
		}
	}
}

// failed reports the first member that has exited on its own.
func (t *tier) failed() error {
	var errs []error
	for _, n := range t.nodes() {
		errs = append(errs, n.failed())
	}
	return errors.Join(errs...)
}

func bootTier(d deployer, graphPath, walDir string, k int) (*tier, error) {
	t := &tier{}
	var err error
	if t.primary, err = d.primary(graphPath, walDir, k); err != nil {
		return nil, err
	}
	if t.follower, err = d.follower(graphPath, k, t.primary.url); err != nil {
		t.stop()
		return nil, err
	}
	if t.router, err = d.router(t.primary.url, []string{t.primary.url, t.follower.url}); err != nil {
		t.stop()
		return nil, err
	}
	return t, nil
}

// datasetStats is the part of a daemon's GET /v1/stats the benchmark
// reads, always outside timed blocks.
type datasetStats struct {
	Datasets []struct {
		Name  string `json:"name"`
		Epoch uint64 `json:"epoch"`
		WAL   *struct {
			RecordsAppended uint64 `json:"records_appended"`
			Syncs           uint64 `json:"syncs"`
			LogBytes        int64  `json:"log_bytes"`
			FeedRequests    uint64 `json:"feed_requests"`
			FeedRecords     uint64 `json:"feed_records"`
		} `json:"wal"`
	} `json:"datasets"`
	Cache struct {
		Hits      uint64 `json:"hits"`
		Misses    uint64 `json:"misses"`
		Evictions uint64 `json:"evictions"`
	} `json:"cache"`
}

func (n *node) stats() (datasetStats, error) {
	var st datasetStats
	if err := getJSON(n.url+"/v1/stats", &st); err != nil {
		return st, err
	}
	if len(st.Datasets) != 1 || st.Datasets[0].Name != datasetName {
		return st, fmt.Errorf("%s serves %d datasets, want exactly %q", n.name, len(st.Datasets), datasetName)
	}
	return st, nil
}

// awaitEpoch waits until the node serves the dataset at the given epoch:
// how the benchmark knows a follower has applied everything the primary
// acknowledged before it reads from the tier.
func (n *node) awaitEpoch(epoch uint64) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, err := n.stats()
		if err != nil {
			return err
		}
		if st.Datasets[0].Epoch == epoch {
			return nil
		}
		time.Sleep(readyPoll)
	}
	return fmt.Errorf("%s did not reach epoch %d within 30s", n.name, epoch)
}

// scrapeCounter returns the sum of every sample of a counter family in a
// Prometheus text exposition.
func scrapeCounter(exposition, family string) float64 {
	var sum float64
	for _, line := range strings.Split(exposition, "\n") {
		if !strings.HasPrefix(line, family) {
			continue
		}
		rest := line[len(family):]
		if rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue // a longer family name with the same prefix
		}
		var v float64
		if _, err := fmt.Sscan(rest[strings.LastIndexByte(rest, ' ')+1:], &v); err == nil {
			sum += v
		}
	}
	return sum
}
