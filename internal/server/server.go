package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"kreach"
	"kreach/internal/cache"
)

// Kind labels the index variant a dataset serves; it aliases the public
// package's IndexKind so Reacher.Stats().Kind flows straight through.
type Kind = kreach.IndexKind

// Dataset kinds, re-exported for this package's callers.
const (
	KindPlain   = kreach.KindPlain   // fixed-k Index (or n-reach when k = Unbounded)
	KindHK      = kreach.KindHK      // (h,k)-reach HKIndex
	KindMulti   = kreach.KindMulti   // MultiIndex ladder, per-query k
	KindDynamic = kreach.KindDynamic // mutable DynamicIndex, accepts edge mutations
)

// Dataset is one named graph plus one Reacher answering for it. A Dataset
// is an immutable snapshot: all fields are read-only after registration,
// and replacing a dataset means registering a whole new Dataset via
// Registry.Swap or Registry.Reload. Handlers resolve the snapshot once per
// request, so in-flight requests keep answering against the snapshot they
// started with even while a swap lands.
//
// Handlers dispatch through the Reacher interface and the capability
// accessors (Mutable, PerQueryK) — never through the index's concrete
// type — so adding an index variant means implementing kreach.Reacher, not
// growing per-kind switches across the serving layer.
//
// A mutable (dynamic) dataset bends the "immutable snapshot" framing
// deliberately: the Dataset cell (name, base graph, index identity) is
// still fixed, but the index's edge set evolves in place behind its own
// locks, and its epoch advances with every mutation batch so epoch-keyed
// cache entries follow along. Graph remains the immutable base the dynamic
// overlay was started from; live counts come from the Reacher's stats.
type Dataset struct {
	Name    string
	Graph   *kreach.Graph
	Reacher kreach.Reacher

	// Loader rebuilds this dataset from its source of truth (for kreachd,
	// the -dataset spec: graph and index files are re-read, indexes
	// rebuilt). A dataset with a nil Loader cannot be reloaded. When a
	// swapped-in replacement has a nil Loader it inherits the old one, so a
	// reloadable dataset stays reloadable.
	Loader func() (*Dataset, error)

	// WAL is the durability store backing a dynamic dataset, nil for
	// in-memory ones. The store is driven by the index itself (mutations
	// journal through it, compactions checkpoint it); the serving layer
	// only reads its counters for /v1/stats and carries the handle across
	// compaction swaps so the section survives snapshot replacement. It is
	// also the source the replication feed endpoint streams from.
	WAL *kreach.WAL

	// ReadOnly marks a follower-replicated dataset: its edge set is driven
	// by the primary's WAL feed, so client mutations and compactions are
	// refused with 409 — accepting them would fork the epoch history the
	// replication protocol keeps exact.
	ReadOnly bool

	// Follower is the replication driver behind a ReadOnly dataset; stats
	// and metrics read its lag counters through it. Nil on primaries.
	Follower *Follower
}

// Kind reports which index variant the dataset holds, as tagged by the
// Reacher itself.
func (d *Dataset) Kind() Kind { return d.Reacher.Stats().Kind }

// Epoch returns the process-unique generation of the dataset's index. The
// query cache embeds it in every key, so swapping in a new snapshot (whose
// index necessarily has a fresh generation) invalidates all cached answers
// for the dataset without touching the cache.
func (d *Dataset) Epoch() uint64 { return d.Reacher.Epoch() }

// Mutable reports whether the dataset serves a mutable index, and returns
// it for the write path (edge mutations, compaction) when so.
func (d *Dataset) Mutable() (*kreach.DynamicIndex, bool) {
	dyn, ok := d.Reacher.(*kreach.DynamicIndex)
	return dyn, ok
}

// Enumerator reports whether the dataset's Reacher supports k-hop
// neighborhood enumeration, and returns the capability for the
// /v1/neighbors path when so. Like Mutable and PerQueryK it is a
// behavioral probe: a future backend gains (or loses) the endpoint by
// implementing (or not implementing) kreach.NeighborEnumerator, with no
// serving-layer changes.
func (d *Dataset) Enumerator() (kreach.NeighborEnumerator, bool) {
	e, ok := d.Reacher.(kreach.NeighborEnumerator)
	return e, ok
}

// perQueryK is the capability contract of a Reacher that answers arbitrary
// per-query hop bounds (a rung ladder): it exposes its rungs and, crucially
// for the cache, its own request-bound canonicalization — two request ks
// with the same NormalizeK image always produce the same answer, so cache
// keys use the normalized bound. Detecting the capability behaviorally lets
// future ladder-like backends inherit it without touching the server.
type perQueryK interface {
	Rungs() []int
	NormalizeK(k int) int
}

// PerQueryK reports whether the dataset's Reacher answers arbitrary
// per-query hop bounds, as opposed to one fixed k.
func (d *Dataset) PerQueryK() bool {
	_, ok := d.Reacher.(perQueryK)
	return ok
}

// NormalizeK canonicalizes a per-query request bound via the Reacher's own
// rules; on fixed-k datasets it returns k unchanged (their cache keys do
// not carry a k at all).
func (d *Dataset) NormalizeK(k int) int {
	if pq, ok := d.Reacher.(perQueryK); ok {
		return pq.NormalizeK(k)
	}
	return k
}

// CheckK rejects a request hop bound the dataset cannot answer, before any
// cache or index work happens. A nil reqK (absent in the request body)
// always passes: it means the Reacher's native bound. Validation delegates
// to kreach.ResolveK, so it can never drift from what the index itself
// would accept.
func (d *Dataset) CheckK(reqK *int) error {
	if reqK == nil || d.PerQueryK() {
		return nil
	}
	_, err := kreach.ResolveK(d.Reacher.K(), *reqK)
	return err
}

func (d *Dataset) valid() error {
	if d.Name == "" {
		return fmt.Errorf("server: dataset has no name")
	}
	if d.Graph == nil {
		return fmt.Errorf("server: dataset %q has no graph", d.Name)
	}
	if d.Reacher == nil {
		return fmt.Errorf("server: dataset %q has no index", d.Name)
	}
	return nil
}

// slot is the mutable cell behind one dataset name: an atomically swappable
// snapshot pointer (readers never block) plus a mutex that serializes
// writers — reloads and swaps of this name — so a slow reload cannot
// silently clobber a snapshot swapped in while its loader was running.
type slot struct {
	ptr      atomic.Pointer[Dataset]
	reloadMu sync.Mutex
}

// Registry holds the named datasets a server answers for. The name set is
// fixed after startup, but each name's snapshot is hot-swappable: Swap and
// Reload publish a replacement Dataset with an RCU-style pointer store,
// while Lookup returns whichever snapshot is current at that instant.
type Registry struct {
	mu     sync.RWMutex
	byName map[string]*slot
	order  []string // registration order; order[0] is the default
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*slot)}
}

// Add registers a dataset. The first dataset added becomes the default for
// requests that omit "graph".
func (r *Registry) Add(d *Dataset) error {
	if err := d.valid(); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[d.Name]; dup {
		return fmt.Errorf("server: duplicate dataset %q", d.Name)
	}
	sl := &slot{}
	sl.ptr.Store(d)
	r.byName[d.Name] = sl
	r.order = append(r.order, d.Name)
	return nil
}

// Names returns the dataset names in registration order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.order...)
}

// Lookup resolves the current snapshot of a dataset by name; the empty name
// means the default (first-registered) dataset. The returned Dataset is
// immutable — callers can keep using it across a concurrent Swap, which is
// exactly how handlers guarantee one request never mixes two snapshots.
func (r *Registry) Lookup(name string) (*Dataset, error) {
	sl, err := r.slotFor(name)
	if err != nil {
		return nil, err
	}
	return sl.ptr.Load(), nil
}

// ErrUnknownDataset reports a lookup for a name the registry never held.
var ErrUnknownDataset = errors.New("server: unknown graph")

func (r *Registry) slotFor(name string) (*slot, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if name == "" {
		if len(r.order) == 0 {
			return nil, fmt.Errorf("server: no datasets loaded")
		}
		return r.byName[r.order[0]], nil
	}
	sl, ok := r.byName[name]
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownDataset, name)
	}
	return sl, nil
}

// Swap atomically replaces the snapshot registered under d.Name and returns
// the snapshot it displaced. The name must already be registered — Swap
// replaces datasets, it does not grow the name set. If d.Loader is nil the
// replacement inherits the old snapshot's loader. In-flight requests that
// already resolved the old snapshot finish against it; requests arriving
// after Swap returns see d. Swaps serialize with reloads of the same name:
// a Swap issued while a Reload is rebuilding waits and then lands after it,
// so the replacement cannot be silently clobbered by the reload's result.
func (r *Registry) Swap(d *Dataset) (*Dataset, error) {
	if err := d.valid(); err != nil {
		return nil, err
	}
	sl, err := r.slotFor(d.Name)
	if err != nil {
		return nil, err
	}
	sl.reloadMu.Lock()
	defer sl.reloadMu.Unlock()
	old := sl.ptr.Load()
	if d.Loader == nil {
		d.Loader = old.Loader
	}
	sl.ptr.Store(d)
	retireDisplaced(old, d)
	return old, nil
}

// retireDisplaced marks a displaced dynamic snapshot retired, so a
// mutation that resolved the old snapshot before the swap fails with
// ErrRetired (and retries against the new one) instead of landing on an
// unpublished index and silently vanishing. Queries against the old
// snapshot keep answering its frozen state.
func retireDisplaced(old, repl *Dataset) {
	if old == nil {
		return
	}
	oldDyn, ok := old.Mutable()
	if !ok {
		return
	}
	if newDyn, _ := repl.Mutable(); oldDyn != newDyn {
		oldDyn.Retire()
	}
}

// ErrSuperseded reports a SwapIf whose expected snapshot is no longer the
// published one — something else (a reload, another compaction) replaced
// it first. The caller should re-resolve and decide whether to retry.
var ErrSuperseded = errors.New("server: snapshot superseded before swap")

// SwapIf atomically replaces the snapshot under repl.Name only if the
// currently published snapshot is still expect; otherwise it stores
// nothing and returns ErrSuperseded. Compactions publish through it so a
// reload landing mid-rebuild cannot be clobbered by the (now stale)
// compacted snapshot — which would silently revert mutations already
// acknowledged against the reloaded dataset.
func (r *Registry) SwapIf(expect, repl *Dataset) error {
	if err := repl.valid(); err != nil {
		return err
	}
	sl, err := r.slotFor(repl.Name)
	if err != nil {
		return err
	}
	sl.reloadMu.Lock()
	defer sl.reloadMu.Unlock()
	old := sl.ptr.Load()
	if old != expect {
		return fmt.Errorf("%w: %q", ErrSuperseded, repl.Name)
	}
	if repl.Loader == nil {
		repl.Loader = old.Loader
	}
	sl.ptr.Store(repl)
	retireDisplaced(old, repl)
	return nil
}

// ErrNotReloadable reports a reload request for a dataset registered
// without a Loader.
var ErrNotReloadable = errors.New("server: dataset has no loader")

// Reload rebuilds the named dataset via its Loader and swaps the result in,
// returning the new snapshot. Reloads of one name are serialized; reloads
// of different names proceed independently. The loaded dataset must keep
// the same name (a loader that renames is a bug) but may change kind,
// graph, or index freely.
func (r *Registry) Reload(name string) (*Dataset, error) {
	sl, err := r.slotFor(name)
	if err != nil {
		return nil, err
	}
	sl.reloadMu.Lock()
	defer sl.reloadMu.Unlock()
	old := sl.ptr.Load()
	if old.Loader == nil {
		return nil, fmt.Errorf("%w: %q", ErrNotReloadable, old.Name)
	}
	d, err := old.Loader()
	if err != nil {
		return nil, fmt.Errorf("server: reloading %q: %w", old.Name, err)
	}
	if err := d.valid(); err != nil {
		return nil, err
	}
	if d.Name != old.Name {
		return nil, fmt.Errorf("server: loader for %q produced dataset %q", old.Name, d.Name)
	}
	if d.Loader == nil {
		d.Loader = old.Loader
	}
	sl.ptr.Store(d)
	retireDisplaced(old, d)
	return d, nil
}

// Config tunes a Server.
type Config struct {
	// Parallelism is the ReachBatch worker count for /v1/batch
	// (0 = GOMAXPROCS).
	Parallelism int
	// MaxBatch caps the pairs accepted by one /v1/batch request
	// (0 = DefaultMaxBatch).
	MaxBatch int
	// CacheEntries sizes the /v1/reach result cache (total entries;
	// rounded so each shard is a power of two). 0 means
	// cache.DefaultCapacity; negative disables caching entirely.
	CacheEntries int
	// CacheShards is the cache shard count (0 = derived from GOMAXPROCS).
	CacheShards int
	// Logger receives structured request logs and serving-layer warnings.
	// nil means discard — a library server stays silent unless its owner
	// hands it a logger (kreachd always does).
	Logger *slog.Logger
	// SlowQueryThreshold is the latency past which reach/batch/neighbors
	// requests are traced into the /v1/debug/slow ring.
	// 0 = DefaultSlowQueryThreshold; negative disables tracing.
	SlowQueryThreshold time.Duration
}

// DefaultMaxBatch is the /v1/batch pair cap when Config.MaxBatch is 0.
const DefaultMaxBatch = 1 << 20

// Server answers reachability queries for a registry of datasets. Create
// one with New; it is an http.Handler.
type Server struct {
	reg     *Registry
	cfg     Config
	maxBody int64 // request body cap, derived from MaxBatch
	mux     *http.ServeMux
	// cache is the epoch-keyed result cache shared by every dataset (nil
	// when disabled). Keys embed the snapshot epoch, so entries from a
	// replaced snapshot can never answer for its successor.
	cache *cache.Cache[queryKey, cachedAnswer]

	logger        *slog.Logger
	obs           *serverMetrics
	slowRing      *slowRing
	slowThreshold time.Duration
	ready         atomic.Bool
	draining      atomic.Bool
	startTime     time.Time
	idBase        string        // request-ID prefix, unique per process start
	reqSeq        atomic.Uint64 // request-ID sequence
}

// New builds a Server over reg.
func New(reg *Registry, cfg Config) *Server {
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	s := &Server{reg: reg, cfg: cfg, mux: http.NewServeMux()}
	if cfg.CacheEntries >= 0 {
		s.cache = cache.New[queryKey, cachedAnswer](cache.Config{
			Capacity: cfg.CacheEntries,
			Shards:   cfg.CacheShards,
		})
	}
	s.logger = cfg.Logger
	if s.logger == nil {
		s.logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s.slowThreshold = cfg.SlowQueryThreshold
	if s.slowThreshold == 0 {
		s.slowThreshold = DefaultSlowQueryThreshold
	}
	s.slowRing = &slowRing{}
	s.startTime = time.Now()
	s.idBase = fmt.Sprintf("%x", s.startTime.UnixNano())
	s.obs = newServerMetrics(s)
	// A [s,t] pair of 32-bit ids serializes to at most ~24 bytes; 64 leaves
	// whitespace headroom. Bodies beyond the cap are rejected before the
	// decoder buffers them, so MaxBatch bounds memory, not just pair count.
	s.maxBody = 4096 + 64*int64(cfg.MaxBatch)
	s.mux.HandleFunc("POST /v1/reach", s.instrument("reach", true, s.handleReach))
	s.mux.HandleFunc("POST /v1/batch", s.instrument("batch", true, s.handleBatch))
	s.mux.HandleFunc("POST /v1/neighbors", s.instrument("neighbors", true, s.handleNeighbors))
	s.mux.HandleFunc("GET /v1/stats", s.instrument("stats", false, s.handleStats))
	s.mux.HandleFunc("GET /v1/datasets/{name}/wal", s.instrument("wal", false, s.handleWALFeed))
	s.mux.HandleFunc("POST /v1/datasets/{name}/reload", s.instrument("reload", false, s.handleReload))
	s.mux.HandleFunc("POST /v1/datasets/{name}/edges", s.instrument("edges", false, s.handleEdges))
	s.mux.HandleFunc("POST /v1/datasets/{name}/compact", s.instrument("compact", false, s.handleCompact))
	s.mux.HandleFunc("POST /v1/admin/drain", s.instrument("drain", false, s.handleDrain))
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/debug/slow", s.handleDebugSlow)
	return s
}

// MarkReady flips /readyz to 200. kreachd calls it once every dataset —
// including WAL recovery — is loaded and published; until then the server
// answers queries for whatever is registered but reports itself not ready,
// so rolling deploys don't route traffic to a half-recovered process.
// MarkReady is a no-op once the server has started draining: a late
// recovery goroutine cannot re-admit traffic to a process on its way out.
func (s *Server) MarkReady() {
	if s.draining.Load() {
		return
	}
	s.ready.Store(true)
	s.obs.ready.Set(1)
}

// StartDrain flips /readyz to 503 while queries keep being served. Routers
// and load balancers that gate on readiness stop sending new traffic, the
// in-flight requests finish normally, and the process can then shut down
// without a single connection reset — the first half of a zero-error
// rolling restart. Draining is one-way: MarkReady cannot undo it.
func (s *Server) StartDrain() {
	s.draining.Store(true)
	s.ready.Store(false)
	s.obs.ready.Set(0)
}

// Draining reports whether StartDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// InstanceID is the process-unique identity of this server, also carried
// by every response's X-Request-Id prefix, the /v1/stats server section
// and the kreach_server_build_info metric. Two replicas serving the same
// datasets always differ here, which is how a router (or an operator
// staring at two identical /v1/stats documents) tells them apart.
func (s *Server) InstanceID() string { return s.idBase }

// handleDrain is POST /v1/admin/drain: the HTTP face of StartDrain, for
// orchestrators that drain a replica before reloading or replacing it.
func (s *Server) handleDrain(w http.ResponseWriter, _ *http.Request) {
	s.StartDrain()
	writeJSON(w, http.StatusOK, map[string]string{"status": "draining"})
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// WriteBody writes an already encoded JSON body. kreach-router writes the
// replies it forwards through it too.
func WriteBody(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	w.Write(body)
}

// ReadBody reads r's body into buf, replacing its contents. Past limit
// bytes it stops with an *http.MaxBytesError, and the server closes the
// connection after the response. kreach-router reads its bodies through
// it too. buf grows only as bytes arrive: the client's Content-Length is
// never trusted to size it.
func ReadBody(w http.ResponseWriter, r *http.Request, buf *bytes.Buffer, limit int64) error {
	buf.Reset()
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit))
	return err
}

// writeBodyError answers a request whose body could not be read or decoded.
func writeBodyError(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge,
			"request body exceeds %d bytes", tooLarge.Limit)
		return
	}
	writeError(w, http.StatusBadRequest, "bad request body: %v", err)
}

func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, into any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		writeBodyError(w, err)
		return false
	}
	return true
}

// checkVertex validates one endpoint against the dataset's graph.
func checkVertex(d *Dataset, label string, v int) error {
	if n := d.Graph.NumVertices(); v < 0 || v >= n {
		return fmt.Errorf("%s vertex %d out of range [0,%d)", label, v, n)
	}
	return nil
}

// handleHealthz is liveness: the process is up and serving HTTP. It never
// reports anything about data; use /readyz for that.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is readiness: 200 only after MarkReady (every dataset
// published, WAL recovery included), 503 before — load balancers should
// gate traffic on this, not on /healthz.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if !s.ready.Load() {
		status := "loading"
		if s.draining.Load() {
			status = "draining"
		}
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": status})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}
