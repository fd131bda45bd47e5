package main

// The router smoke e2e: three real kreachd processes, one real
// kreach-router, a real SIGKILL. The contract under test is the serving
// tier's: while one of three replicas dies mid-run, every answer the
// router returns is correct (matches a single-replica oracle), every
// failure is a typed error rather than a silent drop, the tier recovers by
// re-routing, and a rolling reload completes with zero client-visible
// errors.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// buildBinary compiles one of the repo's commands into dir.
func buildBinary(t *testing.T, dir, pkg, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, pkg)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, out)
	}
	return bin
}

// startDaemon launches a daemon binary on an ephemeral port and blocks
// until its structured msg=serving stderr line reveals the bound address.
func startDaemon(t *testing.T, label, bin string, args ...string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-listen", "127.0.0.1:0"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			t.Logf("%s: %s", label, line)
			if !strings.Contains(line, "msg=serving") {
				continue
			}
			for _, field := range strings.Fields(line) {
				if addr, ok := strings.CutPrefix(field, "addr="); ok {
					select {
					case addrCh <- strings.Trim(addr, `"`):
					default:
					}
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return cmd, "http://" + addr
	case <-time.After(30 * time.Second):
		t.Fatalf("%s never reported its listen address", label)
		return nil, ""
	}
}

// writeTestGraph writes a deterministic random edge list and returns the
// vertex count.
func writeTestGraph(t *testing.T, path string) int {
	t.Helper()
	const n, m = 400, 1600
	rng := rand.New(rand.NewSource(42))
	var b bytes.Buffer
	for i := 0; i < m; i++ {
		fmt.Fprintf(&b, "%d %d\n", rng.Intn(n), rng.Intn(n))
	}
	if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return n
}

func postBatch(base string, body []byte) (int, []byte, error) {
	resp, err := http.Post(base+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func TestRouterSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills real processes")
	}
	dir := t.TempDir()
	kreachd := buildBinary(t, dir, "kreach/cmd/kreachd", "kreachd")
	routerBin := buildBinary(t, dir, "kreach/cmd/kreach-router", "kreach-router")

	graphPath := filepath.Join(dir, "g.txt")
	vertices := writeTestGraph(t, graphPath)

	// Three replicas, one dataset each, identical spec.
	var cmds []*exec.Cmd
	var bases []string
	for i := 0; i < 3; i++ {
		cmd, base := startDaemon(t, fmt.Sprintf("kreachd[%d]", i), kreachd,
			"-dataset", "g,graph="+graphPath+",k=4")
		cmds = append(cmds, cmd)
		bases = append(bases, base)
	}
	routerArgs := []string{"-probe-interval", "100ms"}
	for _, b := range bases {
		routerArgs = append(routerArgs, "-replica", b)
	}
	_, routerBase := startDaemon(t, "kreach-router", routerBin, routerArgs...)

	// The oracle: one fixed pair set answered by a single replica directly.
	rng := rand.New(rand.NewSource(7))
	pairs := make([][2]int, 64)
	for i := range pairs {
		pairs[i] = [2]int{rng.Intn(vertices), rng.Intn(vertices)}
	}
	body, err := json.Marshal(map[string]any{"graph": "g", "pairs": pairs})
	if err != nil {
		t.Fatal(err)
	}
	code, raw, err := postBatch(bases[0], body)
	if err != nil || code != http.StatusOK {
		t.Fatalf("oracle batch: %v status %d: %s", err, code, raw)
	}
	var oracle struct {
		Results []bool `json:"results"`
	}
	if err := json.Unmarshal(raw, &oracle); err != nil {
		t.Fatal(err)
	}

	// Load phase: hammer the router with the oracle batch from several
	// workers while replica 1 is SIGKILLed mid-run. Every 200 must match
	// the oracle bit for bit; every non-200 must be a typed router error.
	var (
		stop        = make(chan struct{})
		wg          sync.WaitGroup
		total       atomic.Int64
		wrong       atomic.Int64
		typedFails  atomic.Int64
		untypedFail atomic.Int64
	)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				code, raw, err := postBatch(routerBase, body)
				if err != nil {
					untypedFail.Add(1)
					continue
				}
				total.Add(1)
				if code == http.StatusOK {
					var got struct {
						Results []bool `json:"results"`
					}
					if json.Unmarshal(raw, &got) != nil || len(got.Results) != len(oracle.Results) {
						wrong.Add(1)
						continue
					}
					for i := range got.Results {
						if got.Results[i] != oracle.Results[i] {
							wrong.Add(1)
							t.Logf("wrong answer at pair %d: %s", i, raw)
							break
						}
					}
					continue
				}
				var e struct {
					Code string `json:"code"`
				}
				if json.Unmarshal(raw, &e) == nil && e.Code != "" {
					typedFails.Add(1)
					t.Logf("typed failure during kill window: %d %s", code, e.Code)
				} else {
					untypedFail.Add(1)
					t.Logf("UNTYPED failure: %d %s", code, raw)
				}
			}
		}()
	}

	time.Sleep(300 * time.Millisecond)
	t.Log("SIGKILLing replica 1")
	if err := cmds[1].Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmds[1].Wait()
	time.Sleep(1 * time.Second)
	close(stop)
	wg.Wait()

	t.Logf("load phase: %d batches, %d wrong, %d typed failures, %d untyped",
		total.Load(), wrong.Load(), typedFails.Load(), untypedFail.Load())
	if total.Load() < 10 {
		t.Fatalf("only %d batches completed; load phase too thin to mean anything", total.Load())
	}
	if wrong.Load() != 0 {
		t.Fatalf("%d wrong answers through the router during replica kill", wrong.Load())
	}
	if untypedFail.Load() != 0 {
		t.Fatalf("%d untyped failures; every error must carry a typed code", untypedFail.Load())
	}

	// Recovery: with the dead replica ejected, a fresh batch succeeds and
	// matches the oracle.
	code, raw, err = postBatch(routerBase, body)
	if err != nil || code != http.StatusOK {
		t.Fatalf("post-kill batch: %v status %d: %s", err, code, raw)
	}
	var after struct {
		Results []bool `json:"results"`
	}
	if err := json.Unmarshal(raw, &after); err != nil {
		t.Fatal(err)
	}
	for i := range after.Results {
		if after.Results[i] != oracle.Results[i] {
			t.Fatalf("post-kill pair %d wrong", i)
		}
	}

	// Rolling reload through the router while load continues: zero non-2xx.
	reloadStop := make(chan struct{})
	var reloadWG sync.WaitGroup
	var reloadNon2xx atomic.Int64
	for w := 0; w < 2; w++ {
		reloadWG.Add(1)
		go func() {
			defer reloadWG.Done()
			for {
				select {
				case <-reloadStop:
					return
				default:
				}
				code, _, err := postBatch(routerBase, body)
				if err != nil || code != http.StatusOK {
					reloadNon2xx.Add(1)
				}
			}
		}()
	}
	resp, err := http.Post(routerBase+"/v1/datasets/g/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	reloadRaw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	close(reloadStop)
	reloadWG.Wait()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rolling reload: status %d: %s", resp.StatusCode, reloadRaw)
	}
	var report struct {
		Failed   int `json:"failed"`
		Replicas []struct {
			Replica  string `json:"replica"`
			Skipped  bool   `json:"skipped"`
			NewEpoch uint64 `json:"new_epoch"`
		} `json:"replicas"`
	}
	if err := json.Unmarshal(reloadRaw, &report); err != nil {
		t.Fatal(err)
	}
	if report.Failed != 0 {
		t.Fatalf("rolling reload failed on %d replicas: %s", report.Failed, reloadRaw)
	}
	reloaded := 0
	for _, r := range report.Replicas {
		if !r.Skipped && r.NewEpoch > 0 {
			reloaded++
		}
	}
	if reloaded < 2 {
		t.Fatalf("rolling reload touched %d live replicas, want the 2 survivors: %s", reloaded, reloadRaw)
	}
	if n := reloadNon2xx.Load(); n != 0 {
		t.Fatalf("%d non-2xx client answers during the rolling reload", n)
	}

	// The router's own observability surface is alive and complete.
	mresp, err := http.Get(routerBase + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, name := range []string{
		"kreach_router_request_duration_seconds",
		"kreach_router_retries_total",
		"kreach_router_replica_up",
		"kreach_router_probes_total",
	} {
		if !bytes.Contains(mbody, []byte("# TYPE "+name+" ")) {
			t.Errorf("router metric %s missing from scrape", name)
		}
	}
}
