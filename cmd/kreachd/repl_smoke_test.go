package main

// The replication smoke e2e (ISSUE 10 satellite 3): a real durable primary
// kreachd, two real follower kreachds (-follow; one durable, one
// in-memory), and a real kreach-router fronting all three. A follower is
// SIGKILLed mid-stream while mutations keep flowing through the router,
// then restarted over its own WAL directory: it must gate readiness on
// catching up, land on the primary's exact epoch, and record
// nonzero-then-zero replication lag. Throughout the quiesced windows,
// every batch answered through the router must match the primary bit for
// bit — zero wrong answers — and the replication metric families must be
// live on both tiers.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// buildBin compiles a command package into dir (buildKreachd only builds ".").
func buildBin(t *testing.T, dir, pkg, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, pkg)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, out)
	}
	return bin
}

// launchDaemon starts a daemon with an explicit -listen and blocks until
// its msg=serving line reveals the bound address.
func launchDaemon(t *testing.T, label, bin, listen string, args ...string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-listen", listen}, args...)...)
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
			if addr := servingAddr(line); addr != "" {
				select {
				case addrCh <- addr:
				default:
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

// freePort reserves an ephemeral port and releases it for reuse — the
// follower that gets SIGKILLed must come back on the address the router
// was configured with.
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// waitReady polls /readyz until 200 — a follower flips only once it has
// caught up to the primary at least once.
func waitReady(t *testing.T, label, base string, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never became ready", label)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// followerStats pulls the follower section of the one dataset in /v1/stats.
type followerStatsView struct {
	LastAppliedEpoch uint64  `json:"last_applied_epoch"`
	PrimaryEpoch     uint64  `json:"primary_epoch"`
	LagEpochs        uint64  `json:"lag_epochs"`
	LagSeconds       float64 `json:"lag_seconds"`
	PeakLagEpochs    uint64  `json:"peak_lag_epochs"`
	CaughtUp         bool    `json:"caught_up"`
	RecordsApplied   uint64  `json:"records_applied"`
	SnapshotsLoaded  uint64  `json:"snapshots_loaded"`
}

func fetchStats(t *testing.T, base string) (walLastEpoch uint64, follower *followerStatsView) {
	t.Helper()
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Datasets []struct {
			WAL *struct {
				LastEpoch uint64 `json:"last_epoch"`
			} `json:"wal"`
			Follower *followerStatsView `json:"follower"`
		} `json:"datasets"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if len(stats.Datasets) != 1 {
		t.Fatalf("want one dataset in stats, got %d", len(stats.Datasets))
	}
	if stats.Datasets[0].WAL != nil {
		walLastEpoch = stats.Datasets[0].WAL.LastEpoch
	}
	return walLastEpoch, stats.Datasets[0].Follower
}

// waitFollowerAt polls a follower's stats until it stands caught up at
// exactly epoch; a cursor beyond epoch fails immediately.
func waitFollowerAt(t *testing.T, label, base string, epoch uint64, within time.Duration) *followerStatsView {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		_, fs := fetchStats(t, base)
		if fs == nil {
			t.Fatalf("%s has no follower stats section", label)
		}
		if fs.LastAppliedEpoch > epoch {
			t.Fatalf("%s cursor %d beyond primary epoch %d", label, fs.LastAppliedEpoch, epoch)
		}
		if fs.LastAppliedEpoch == epoch && fs.CaughtUp {
			return fs
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s stuck at epoch %d (primary %d): %+v", label, fs.LastAppliedEpoch, epoch, fs)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// routerBatch posts the oracle batch and returns (status, results, raw).
func routerBatch(t *testing.T, base string, body []byte) (int, []bool, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("batch POST: %v", err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil, raw
	}
	var got struct {
		Results []bool `json:"results"`
	}
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatalf("batch decode: %v in %s", err, raw)
	}
	return resp.StatusCode, got.Results, raw
}

func assertMetricFamilies(t *testing.T, label, base string, names []string) {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, name := range names {
		if !bytes.Contains(body, []byte("# TYPE "+name+" ")) {
			t.Errorf("%s: metric family %s missing from scrape", label, name)
		}
	}
}

func TestReplSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills real processes")
	}
	dir := t.TempDir()
	kreachd := buildKreachd(t)
	routerBin := buildBin(t, dir, "kreach/cmd/kreach-router", "kreach-router")

	// A deterministic random graph; mutations draw from the same range so
	// adds and removes keep flipping real answers.
	const n, m = 200, 800
	graphPath := filepath.Join(dir, "g.txt")
	rng := rand.New(rand.NewSource(42))
	var gb bytes.Buffer
	for i := 0; i < m; i++ {
		fmt.Fprintf(&gb, "%d %d\n", rng.Intn(n), rng.Intn(n))
	}
	if err := os.WriteFile(graphPath, gb.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	spec := "g,graph=" + graphPath + ",k=3"

	// Primary: durable, with a retention window so briefly-lagging
	// followers tail records instead of re-shipping snapshots.
	_, primaryBase := launchDaemon(t, "primary", kreachd, "127.0.0.1:0",
		"-mutable", "-wal-dir", filepath.Join(dir, "wal-primary"), "-wal-retain-epochs", "8",
		"-dataset", spec)
	waitReady(t, "primary", primaryBase, 30*time.Second)

	// Followers: one durable on a pinned address (it will be SIGKILLed and
	// must come back where the router expects it), one in-memory.
	durAddr := freePort(t)
	durWAL := filepath.Join(dir, "wal-follower")
	durArgs := []string{
		"-follow", primaryBase, "-follow-poll", "150ms",
		"-wal-dir", durWAL, "-dataset", spec,
	}
	durCmd, durBase := launchDaemon(t, "follower-durable", kreachd, durAddr, durArgs...)
	_, memBase := launchDaemon(t, "follower-memory", kreachd, "127.0.0.1:0",
		"-follow", primaryBase, "-follow-poll", "150ms", "-dataset", spec)
	waitReady(t, "follower-durable", durBase, 30*time.Second)
	waitReady(t, "follower-memory", memBase, 30*time.Second)

	_, routerBase := launchDaemon(t, "kreach-router", routerBin, "127.0.0.1:0",
		"-replica", primaryBase, "-replica", durBase, "-replica", memBase,
		"-primary", primaryBase,
		"-probe-interval", "50ms",
		"-max-lag-epochs", "2")
	waitReady(t, "kreach-router", routerBase, 30*time.Second)

	oraclePairs := make([][2]int, 64)
	for i := range oraclePairs {
		oraclePairs[i] = [2]int{rng.Intn(n), rng.Intn(n)}
	}
	batchBody, err := json.Marshal(map[string]any{"graph": "g", "pairs": oraclePairs})
	if err != nil {
		t.Fatal(err)
	}

	// mutate sends one random single-edge op through the router (which
	// forwards it to the primary) and returns the acknowledged epoch.
	mutate := func(i int) uint64 {
		key := "add"
		if i%3 == 2 {
			key = "remove"
		}
		body := postJSON(t, routerBase+"/v1/datasets/g/edges",
			map[string]any{key: [][2]int{{rng.Intn(n), rng.Intn(n)}}})
		return jsonField[uint64](t, body, "epoch")
	}

	// Warm-up traffic, then SIGKILL the durable follower mid-stream — its
	// long-poll feed request is in flight essentially always.
	for i := 0; i < 8; i++ {
		mutate(i)
	}
	t.Log("SIGKILLing the durable follower")
	if err := durCmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	durCmd.Wait()

	// The stream keeps moving without it: more mutations and a compaction
	// (a record-free epoch the followers must adopt as a marker), with the
	// router answering throughout — 200s or typed errors, never silence.
	for i := 0; i < 20; i++ {
		mutate(i)
		if i%5 == 4 {
			if code, _, raw := routerBatch(t, routerBase, batchBody); code != http.StatusOK {
				var e struct {
					Code string `json:"code"`
				}
				if json.Unmarshal(raw, &e) != nil || e.Code == "" {
					t.Fatalf("untyped router failure during kill window: %d %s", code, raw)
				}
				t.Logf("typed failure during kill window: %d %s", code, e.Code)
			}
		}
	}
	compactResp := postJSON(t, routerBase+"/v1/datasets/g/compact", nil)
	finalEpoch := jsonField[uint64](t, compactResp, "epoch")
	if walEpoch, _ := fetchStats(t, primaryBase); walEpoch != finalEpoch {
		t.Fatalf("primary wal at epoch %d, compaction acknowledged %d", walEpoch, finalEpoch)
	}

	// Quiesce: the surviving follower lands on the exact compaction epoch.
	waitFollowerAt(t, "follower-memory", memBase, finalEpoch, 20*time.Second)

	// Zero wrong answers: the primary's own answers are the oracle, and
	// every batch through the router must match bit for bit.
	code, oracle, raw := routerBatch(t, primaryBase, batchBody)
	if code != http.StatusOK {
		t.Fatalf("oracle batch: %d %s", code, raw)
	}
	checkRouterExact := func(phase string, rounds int) {
		t.Helper()
		for r := 0; r < rounds; r++ {
			code, got, raw := routerBatch(t, routerBase, batchBody)
			if code != http.StatusOK {
				t.Fatalf("%s: batch status %d: %s", phase, code, raw)
			}
			if len(got) != len(oracle) {
				t.Fatalf("%s: %d results, oracle %d", phase, len(got), len(oracle))
			}
			for i := range got {
				if got[i] != oracle[i] {
					t.Fatalf("%s: wrong answer at pair %d (round %d)", phase, i, r)
				}
			}
		}
	}
	checkRouterExact("two-replica quiesce", 8)

	// Resurrect the durable follower on its pinned address, over its own
	// WAL: readiness must gate on catch-up, the cursor must land on the
	// exact primary epoch, and the lag accounting must show the outage —
	// nonzero peak lag, zero now.
	_, durBase2 := launchDaemon(t, "follower-durable[2]", kreachd, durAddr, durArgs...)
	if durBase2 != durBase {
		t.Fatalf("restarted follower at %s, want pinned %s", durBase2, durBase)
	}
	waitReady(t, "follower-durable[2]", durBase2, 30*time.Second)
	fs := waitFollowerAt(t, "follower-durable[2]", durBase2, finalEpoch, 20*time.Second)
	if fs.PeakLagEpochs == 0 {
		t.Errorf("restarted follower recorded no peak lag: %+v", fs)
	}
	if fs.LagEpochs != 0 || fs.LagSeconds != 0 {
		t.Errorf("caught-up follower still reports lag: %+v", fs)
	}
	if fs.RecordsApplied == 0 && fs.SnapshotsLoaded == 0 {
		t.Errorf("restarted follower applied nothing: %+v", fs)
	}

	// Full-strength router: still exactly the oracle, now over 3 replicas.
	checkRouterExact("three-replica quiesce", 8)

	// Replication observability is live end to end: follower lag gauges,
	// primary feed counters, router per-replica lag.
	assertMetricFamilies(t, "follower", durBase2, []string{
		"kreach_replication_lag_epochs",
		"kreach_replication_peak_lag_epochs",
		"kreach_replication_records_applied_total",
	})
	assertMetricFamilies(t, "primary", primaryBase, []string{
		"kreach_wal_feed_requests_total",
		"kreach_wal_feed_records_total",
	})
	assertMetricFamilies(t, "router", routerBase, []string{
		"kreach_router_replica_lag_epochs",
		"kreach_router_replica_lag_seconds",
	})

	// And the router's replica table shows the full fleet routable again —
	// the restarted follower was probed back in, not left demoted. Give the
	// prober a few cycles to notice the recovery.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(routerBase + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		var rstats struct {
			Replicas []struct {
				Base     string `json:"base"`
				Routable bool   `json:"routable"`
				Lagged   bool   `json:"lagged"`
			} `json:"replicas"`
		}
		err = json.NewDecoder(resp.Body).Decode(&rstats)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(rstats.Replicas) != 3 {
			t.Fatalf("router tracks %d replicas, want 3", len(rstats.Replicas))
		}
		routable := 0
		for _, rep := range rstats.Replicas {
			if rep.Routable && !rep.Lagged {
				routable++
			}
		}
		if routable == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/3 replicas routable after recovery: %+v", routable, rstats.Replicas)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
