package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync/atomic"
	"time"

	"kreach"
)

const (
	familyLattice = "lattice"
	familyHubs    = "hubs"
)

// transport says where a workload's gated reads and writes go.
type transport int

const (
	// viaLibrary: the public API in this process.
	viaLibrary transport = iota
	// viaDaemon: reads through one kreachd serving a prebuilt index; the
	// write phases, which a static daemon cannot serve, run in-process on
	// the same graph.
	viaDaemon
	// viaTier: reads and writes through kreach-router in front of a
	// durable primary and a follower.
	viaTier
)

// spec is one workload: a graph, a hop bound, a traffic shape, a transport,
// and how many operations each timed pass executes. The counts are sized
// for passes of roughly 0.15 s on the two-core reference host at the
// default run length, and scale with -seconds.
type spec struct {
	name, why string
	family    string
	vertices  int
	k         int
	cover     kreach.CoverStrategy
	transport transport

	pairs          int // single probes per pass; the batch pass answers the same pairs
	batchPairs     int
	balls          int
	mutations      int // 32+32-edge batches per mutate pass
	underWritePair int // pairs read beside the paced writer
}

// The four workloads. A later change that makes one of them faster must
// show the others did not pay for it.
var specs = []spec{
	{
		name:   "lib-lattice",
		why:    "in-process API on a 300k-vertex small-world lattice whose index overflows L2: cover, row build, load/finalize and memory-bound kernels do all the work, the wire none",
		family: familyLattice, vertices: 300_000, k: 4, cover: kreach.RandomEdgeCover, transport: viaLibrary,
		pairs: 1_300_000, batchPairs: 1_300_000, balls: 100_000, mutations: 27, underWritePair: 400_000,
	},
	{
		name:   "lib-hubs",
		why:    "in-process API on a power-law celebrity graph, small degree-prioritised cover, celebrity-biased endpoints: kernels are compute-bound here, so a layout trade against lib-lattice shows",
		family: familyHubs, vertices: 300_000, k: 3, cover: kreach.DegreePrioritizedCover, transport: viaLibrary,
		pairs: 1_300_000, batchPairs: 1_300_000, balls: 130, mutations: 100, underWritePair: 400_000,
	},
	{
		name:   "http-static",
		why:    "one real kreachd, default flags, celebrity graph, nproc loopback connections: the kernel is under 5% of a request, so result cache, handler, codec and net/http do the work",
		family: familyHubs, vertices: 300_000, k: 3, cover: kreach.DegreePrioritizedCover, transport: viaDaemon,
		pairs: 2_400, batchPairs: 48 * wireBatch, balls: 2_000, mutations: 100, underWritePair: 400_000,
	},
	{
		name:   "http-tier",
		why:    "kreach-router in front of a durable primary and a follower on a 200k-vertex lattice: the only workload with router, dynamic index, WAL and feed on the path of reads and writes alike",
		family: familyLattice, vertices: 200_000, k: 3, cover: kreach.DegreePrioritizedCover, transport: viaTier,
		pairs: 700, batchPairs: 18 * wireBatch, balls: 600, mutations: 60, underWritePair: 16 * wireBatch,
	},
}

const (
	// defaultSeconds is the run length the specs' counts are sized for.
	defaultSeconds = 20
	// rounds is how many times a run repeats every phase, each time from
	// a fresh load or a fresh daemon; every gated timing is the median
	// across rounds, because memory placement differs from load to load
	// and moves a whole round's numbers together.
	rounds = 5
	// passesPerRound is how many timed passes of each phase a round makes.
	// Interference on a shared host comes and goes over seconds; short
	// passes taking turns sample it evenly for every phase.
	passesPerRound = 3
	// setupRepeats is how many times a run sets up from scratch; setup_s
	// is the median across them, build_s the fastest.
	setupRepeats = 3
	// wireBatch is the pairs per POST /v1/batch body: one router leg.
	wireBatch = 4096
	// libBatch is the pairs per in-process ReachBatch call.
	libBatch = 1 << 20
	// writerPeriod paces the writer of the read-under-write phase. It is
	// open-loop: batch i is due at start + i·writerPeriod whether or not
	// the previous one has returned.
	writerPeriod = 20 * time.Millisecond
	// followerSlack is how many batches a follower may trail the
	// primary's acknowledgements while a writer runs.
	followerSlack = 2
)

func findSpec(name string) (spec, bool) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// scaled returns sp with its per-pass operation counts multiplied by f.
func (sp spec) scaled(f float64) spec {
	mul := func(n int) int { return max(1, int(float64(n)*f)) }
	sp.pairs, sp.batchPairs, sp.balls = mul(sp.pairs), mul(sp.batchPairs), mul(sp.balls)
	sp.mutations, sp.underWritePair = mul(sp.mutations), mul(sp.underWritePair)
	return sp
}

// datasetSeed generates every workload's graph and seeds its index's
// cover. The graph is the workload's dataset and stays the same from run
// to run; -seed varies the traffic over it. With a graph per seed, index
// size on the hub graph moved by 5 % from one seed to the next (it hangs on
// whom the top few celebrities happen to follow), which would bury any
// change to the index's layout; on a fixed graph index_mib is exact.
const datasetSeed = 20120827

func (sp spec) generate() edgeList {
	if sp.family == familyHubs {
		return powerLawHubs(sp.vertices, sp.vertices/64, 4, 1.0, datasetSeed)
	}
	return wattsStrogatz(sp.vertices, 2, 0.05, datasetSeed)
}

// env is everything one set-up produces.
type env struct {
	sp     spec
	dir    string // this set-up's files; removed by close
	el     edgeList
	o      *oracle
	reads  *traffic
	stream *mutationStream

	graphPath, indexPath string
	buildSeconds         float64
	indexBytes           int64

	// writes is where mutations go, and where the read-under-write phase
	// reads: the router on viaTier, otherwise an in-process dynamic index
	// over the same graph.
	writes    target
	tier      *tier
	routed    *wireTarget
	applied   int    // mutation batches applied so far: the oracle's state
	lastEpoch uint64 // epoch of the latest acknowledgement
}

func (e *env) close() {
	if e.routed != nil {
		e.routed.close()
	}
	if e.tier != nil {
		e.tier.stop()
	}
	os.RemoveAll(e.dir)
}

// runner executes one workload run.
type runner struct {
	sp      spec    // operation counts already scaled
	scale   float64 // -seconds ÷ defaultSeconds
	seed    uint64
	dep     deployer
	workDir string
	callers int // closed-loop callers of read passes: one per CPU
	log     func(format string, args ...any)

	tally   tally
	samples map[string][]float64
}

func (r *runner) sample(name string, v float64) { r.samples[name] = append(r.samples[name], v) }

// setUp generates the inputs, builds and saves the index, and brings up
// whatever the write phases need. Everything in here counts as setup_s.
func (r *runner) setUp(attempt int) (*env, error) {
	sp := r.sp
	e := &env{sp: sp, dir: filepath.Join(r.workDir, fmt.Sprintf("setup-%d", attempt))}
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return nil, err
	}
	ok := false
	defer func() {
		if !ok {
			e.close()
		}
	}()

	e.el = sp.generate()
	g := e.el.toGraph()
	t0 := time.Now()
	ix, err := kreach.BuildIndex(g, kreach.IndexOptions{K: sp.k, Cover: sp.cover, Seed: datasetSeed})
	if err != nil {
		return nil, err
	}
	e.buildSeconds = time.Since(t0).Seconds()

	e.graphPath, e.indexPath = filepath.Join(e.dir, "graph.krg"), filepath.Join(e.dir, "index.kri")
	if err := writeFile(e.graphPath, g.SaveBinary); err != nil {
		return nil, err
	}
	if err := writeFile(e.indexPath, ix.Save); err != nil {
		return nil, err
	}
	st, err := os.Stat(e.indexPath)
	if err != nil {
		return nil, err
	}
	e.indexBytes = st.Size()

	e.o = newOracle(e.el, liveBatches)
	e.reads = newTraffic(e.o, sp.family, sp.k, sp.transport == viaLibrary, r.seed)
	e.stream = newMutationStream(e.o, r.seed)

	if sp.transport == viaTier {
		if e.tier, err = bootTier(r.dep, e.graphPath, filepath.Join(e.dir, "wal"), sp.k); err != nil {
			return nil, err
		}
		e.routed = newWireTarget(e.tier.router.url, datasetName, r.callers)
		e.writes = e.routed
	} else {
		dyn, err := kreach.NewDynamicIndex(g, kreach.DynamicOptions{K: sp.k, Cover: sp.cover, Seed: datasetSeed})
		if err != nil {
			return nil, err
		}
		if e.writes, err = newLibTarget(dyn); err != nil {
			return nil, err
		}
	}
	if err := e.fillWindow(); err != nil {
		return nil, err
	}
	ok = true
	return e, nil
}

// fillWindow applies the stream's first liveBatches batches, which only
// add: every later batch both adds and removes, so the edge count is
// stationary from the first timed pass on.
func (e *env) fillWindow() error {
	fill := make([]*mutation, liveBatches)
	for i := range fill {
		fill[i] = e.stream.next()
		e.writes.apply(fill[i])
	}
	return e.settle(fill)
}

func writeFile(path string, save func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// settle decodes the acknowledgements of applied batches, checks that
// epochs only move forward, and tells the oracle.
func (e *env) settle(ms []*mutation) error {
	for _, m := range ms {
		if err := e.writes.settle(m); err != nil {
			return err
		}
		if m.number != e.applied+1 || m.acknowledged <= e.lastEpoch {
			return fmt.Errorf("mutation %d acknowledged at epoch %d after batch %d at epoch %d",
				m.number, m.acknowledged, e.applied, e.lastEpoch)
		}
		e.o.recordBatch(m.number, m.add)
		e.applied, e.lastEpoch = m.number, m.acknowledged
	}
	return nil
}

// quiesce waits until every replica of the tier serves the latest
// acknowledged state, so that quiet reads have one right answer.
func (e *env) quiesce() error {
	if e.tier == nil {
		return nil
	}
	if err := e.tier.failed(); err != nil {
		return err
	}
	return e.tier.follower.awaitEpoch(e.lastEpoch)
}

// load reads the saved graph and index back the way a replica would.
func (e *env) load() (kreach.Reacher, error) {
	gf, err := os.Open(e.graphPath)
	if err != nil {
		return nil, err
	}
	defer gf.Close()
	g, err := kreach.LoadBinary(gf)
	if err != nil {
		return nil, err
	}
	xf, err := os.Open(e.indexPath)
	if err != nil {
		return nil, err
	}
	defer xf.Close()
	return kreach.LoadAutoReacher(xf, g)
}

// quietReads is where one round's reads with no writer go.
type quietReads struct {
	target target
	stop   func()       // releases what the round started; safe to repeat
	failed func() error // a serving child has exited on its own
	// memoryMiB is the memory of whatever serves these reads. For child
	// processes it is the sum of their peak resident sets. When this
	// process serves them a peak would mostly describe the index build, so
	// it is what loading the saved graph and index added to the resident
	// set.
	memoryMiB func() (float64, error)
}

// peakMiB sums the peak resident sets of serving processes.
func peakMiB(nodes ...*node) (float64, error) {
	var sum float64
	for _, n := range nodes {
		mib, err := procStatusMiB(n.pid, "VmHWM")
		if err != nil {
			return 0, err
		}
		sum += mib
	}
	return sum, nil
}

// residentMiB is this process's resident set after handing every free page
// back to the OS.
func residentMiB() (float64, error) {
	debug.FreeOSMemory()
	return procStatusMiB(os.Getpid(), "VmRSS")
}

// coldStart goes from the saved files to a first verified answer. On
// viaDaemon that means executing a fresh kreachd, which the round then
// reads from. Elsewhere the files are loaded in-process; on viaTier the
// round's reads then go through the tier's router instead, whose replicas
// were booted by the set-up.
func (r *runner) coldStart(e *env, first [2]int32) (quietReads, time.Duration, error) {
	q := quietReads{stop: func() {}, failed: func() error { return nil }}
	runtime.GC() // so that the load does not pay for the previous round's garbage
	var took time.Duration
	var got []int8
	if r.sp.transport == viaDaemon {
		t0 := time.Now()
		n, err := r.dep.static(e.graphPath, e.indexPath)
		if err != nil {
			return q, 0, err
		}
		wt := newWireTarget(n.url, datasetName, r.callers)
		stopped := false
		q.stop = func() {
			if !stopped {
				stopped = true
				wt.close()
				n.stop()
			}
		}
		_, got = wt.probe([][2]int32{first}, 1)
		took = time.Since(t0)
		q.target, q.failed = wt, n.failed
		q.memoryMiB = func() (float64, error) { return peakMiB(n) }
	} else {
		// The memory the load adds to this process is read as a difference,
		// so the benchmark's own inputs and garbage do not count.
		before, err := residentMiB()
		if err != nil {
			return q, 0, err
		}
		t0 := time.Now()
		re, err := e.load()
		if err != nil {
			return q, 0, err
		}
		lib, err := newLibTarget(re)
		if err != nil {
			return q, 0, err
		}
		_, got = lib.probe([][2]int32{first}, 1)
		took = time.Since(t0)
		after, err := residentMiB()
		if err != nil {
			return q, 0, err
		}
		q.target = lib
		q.memoryMiB = func() (float64, error) { return after - before, nil }
	}
	// The files hold state 0 whatever has been applied to the dynamic side.
	r.checkProbes(e, [][2]int32{first}, got, 0, 1)
	if r.sp.transport == viaTier {
		q.target, q.failed = e.routed, e.tier.failed
		q.memoryMiB = func() (float64, error) { return peakMiB(e.tier.nodes()...) }
	}
	return q, took, nil
}

// checkProbes verifies single-pair answers; stride 1 checks every one.
func (r *runner) checkProbes(e *env, pairs [][2]int32, got []int8, state, stride int) {
	r.tally.attempted += len(pairs)
	for i, g := range got {
		if g < 0 {
			r.tally.fail(1, "probe failed or was refused")
			continue
		}
		if i%stride != 0 {
			continue
		}
		r.tally.checked++
		if e.o.reach(pairs[i][0], pairs[i][1], r.sp.k, state) != (g == 1) {
			r.tally.fail(1, fmt.Sprintf("reach(%d,%d) disagrees with BFS oracle", pairs[i][0], pairs[i][1]))
		}
	}
}

func (r *runner) checkBatch(e *env, pairs [][2]int32, replies []batchReply, quietState int, underWrite bool) {
	for i, rep := range replies {
		lo, hi := quietState, quietState
		if underWrite {
			lo, hi = rep.stateLo, rep.stateHi
			if e.tier != nil {
				lo = max(0, lo-followerSlack)
			}
		}
		e.o.checkPairs(&r.tally, pairs[rep.lo:rep.hi], rep.got, r.sp.k, lo, hi, i)
	}
}

func (r *runner) checkBalls(e *env, ops []ballOp, replies []ballReply, state int) (vertices int) {
	r.tally.attempted += len(ops)
	for i, rep := range replies {
		if rep.failed {
			r.tally.fail(1, "enumeration failed or was refused")
			continue
		}
		vertices += rep.size
		if rep.sampled {
			if rep.size != len(rep.members) {
				r.tally.fail(1, "enumeration pages do not add up to the reported size")
				continue
			}
			e.o.checkBall(&r.tally, ops[i].v, r.sp.k, state, ops[i].forward, rep.members)
		}
	}
	return vertices
}

// mutatePass applies a fixed number of batches from one closed-loop
// writer.
func (r *runner) mutatePass(e *env) (edgesPerSecond float64, err error) {
	ms := make([]*mutation, r.sp.mutations)
	for i := range ms {
		ms[i] = e.stream.next()
	}
	took := timeBlock(1, func(int) {
		for _, m := range ms {
			e.writes.apply(m)
		}
	})
	r.tally.attempted += len(ms)
	if err := e.settle(ms); err != nil {
		return 0, err
	}
	return float64(len(ms)*2*batchAdds) / took.Seconds(), nil
}

// underWritePass reads a fixed number of pairs in batches while a paced
// writer applies one mutation batch every writerPeriod. It leaves one CPU
// to the writer: callers-1 readers, but at least one.
func (r *runner) underWritePass(e *env) (pairsPerSecond float64, late []time.Duration, err error) {
	pairs := e.reads.pairs(r.sp.underWritePair)
	slice := libBatch
	if e.tier != nil {
		slice = wireBatch
	}
	base := e.applied
	var acked, sent atomic.Int64
	acked.Store(int64(base))
	sent.Store(int64(base))
	observe := func() (int, int) { return int(acked.Load()), int(sent.Load()) }

	// Batches are drawn before the clock starts, enough for a pass twice
	// as long as intended; the writer only sends them.
	e.stream.prepare(int(2 * time.Second / writerPeriod))
	stopWriter, writerDone := make(chan struct{}), make(chan struct{})
	var applied []*mutation
	go func() {
		defer close(writerDone)
		start := time.Now()
		for i := 0; ; i++ {
			due := start.Add(time.Duration(i) * writerPeriod)
			select {
			case <-stopWriter:
				return
			case <-time.After(time.Until(due)):
			}
			late = append(late, time.Since(due))
			m := e.stream.next()
			sent.Add(1)
			e.writes.apply(m)
			applied = append(applied, m)
			acked.Add(1)
		}
	}()
	took, replies := e.writes.batch(pairs, slice, max(1, r.callers-1), observe)
	close(stopWriter)
	<-writerDone

	r.tally.attempted += len(applied)
	if err := e.settle(applied); err != nil {
		return 0, nil, err
	}
	r.checkBatch(e, pairs, replies, 0, true)
	return float64(len(pairs)) / took.Seconds(), late, nil
}

// round starts from a fresh load or boot and then runs every phase
// passesPerRound times, the phases taking turns, so that each phase's
// samples are spread over the whole round rather than bunched.
func (r *runner) round(e *env) error {
	q, cold, err := r.coldStart(e, e.reads.pairs(1)[0])
	defer q.stop()
	if err != nil {
		return err
	}
	r.sample("cold_start_s", cold.Seconds())
	slice := libBatch
	if r.sp.transport != viaLibrary {
		slice = wireBatch
	}
	for pass := 0; pass < passesPerRound; pass++ {
		if err := e.quiesce(); err != nil {
			return err
		}
		// What quiet reads see: the saved files (state 0) except on the
		// tier, whose replicas serve everything applied so far.
		state := 0
		if r.sp.transport == viaTier {
			state = e.applied
		}
		pairs := e.reads.pairs(max(r.sp.pairs, r.sp.batchPairs))
		ballOps := e.reads.balls(r.sp.balls)

		took, got := q.target.probe(pairs[:r.sp.pairs], r.callers)
		r.sample("probe_per_s", float64(r.sp.pairs)/took.Seconds())
		r.checkProbes(e, pairs[:r.sp.pairs], got, state, sampleEvery)

		took, replies := q.target.batch(pairs[:r.sp.batchPairs], slice, r.callers, nil)
		r.sample("batch_pairs_per_s", float64(r.sp.batchPairs)/took.Seconds())
		r.checkBatch(e, pairs[:r.sp.batchPairs], replies, state, false)

		took, ballReplies := q.target.balls(ballOps, r.callers)
		vertices := r.checkBalls(e, ballOps, ballReplies, state)
		r.sample("ball_vertices_per_s", float64(vertices)/took.Seconds())

		perSecond, err := r.mutatePass(e)
		if err != nil {
			return err
		}
		r.sample("mutate_edges_per_s", perSecond)

		if perSecond, _, err = r.underWritePass(e); err != nil {
			return err
		}
		r.sample("read_under_write_pairs_per_s", perSecond)
	}
	if err := q.failed(); err != nil {
		return err
	}
	rss, err := q.memoryMiB()
	if err != nil {
		return err
	}
	r.sample("rss_mib", rss)
	return nil
}

// run executes the untraced run: setupRepeats set-ups, then rounds rounds
// on the last one.
func (r *runner) run() (map[string]float64, hostReport, error) {
	r.samples = map[string][]float64{}
	guard, err := startSentinel()
	if err != nil {
		return nil, hostReport{}, err
	}
	var e *env
	defer func() {
		if e != nil {
			e.close()
		}
	}()
	for i := 0; i < setupRepeats; i++ {
		if e != nil {
			e.close()
			e = nil
			runtime.GC()
		}
		t0 := time.Now()
		if e, err = r.setUp(i); err != nil {
			return nil, hostReport{}, fmt.Errorf("set-up: %w", err)
		}
		r.sample("setup_s", time.Since(t0).Seconds())
		r.sample("build_s", e.buildSeconds)
		r.tally.attempted += liveBatches
	}
	r.log("set-up %d×: graph |V|=%d |E|=%d, index %d bytes", setupRepeats, e.el.n, len(e.el.edges), e.indexBytes)
	for i := 0; i < rounds; i++ {
		if err := r.round(e); err != nil {
			return nil, hostReport{}, fmt.Errorf("round %d: %w", i+1, err)
		}
	}
	host, err := guard.finish()
	if err != nil {
		return nil, hostReport{}, err
	}
	metrics := map[string]float64{"index_mib": float64(e.indexBytes) / (1 << 20)}
	for name, vs := range r.samples {
		metrics[name] = summarize(name, vs)
		r.log("samples %-30s %.4g", name, vs)
	}
	return metrics, host, nil
}

// summarize reduces one metric's samples to the reported value: the median
// for set-up time and memory, and for every other timing the mean of the
// best fifth of its samples (three of a phase's fifteen passes, the fastest
// of five cold starts or three builds). On a shared host a neighbour can
// only slow a pass down, never speed it up, so the best passes are the ones
// that measured the program: on the reference host the median of fifteen
// passes moved by 12-18 % between runs of the memory-bound workload, the
// mean of the best three by 5-10 %.
func summarize(name string, vs []float64) float64 {
	if name == "setup_s" || name == "rss_mib" {
		return median(vs)
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	best := max(1, len(s)/5)
	if endToEndUnits[name] == "1/s" {
		s = s[len(s)-best:]
	} else {
		s = s[:best]
	}
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
