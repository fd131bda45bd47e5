package server

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"

	"kreach"
)

// queryKey identifies one cached answer: the snapshot epoch plus the query
// triple. Epochs are process-unique per index (see Dataset.Epoch), so keys
// never collide across datasets or across reloads of one dataset. For
// fixed-k datasets the k the index answers for is implied by the epoch and
// the field is left 0; only per-query-k (ladder) datasets vary k per query
// (-1 encodes classic reachability).
type queryKey struct {
	epoch uint64
	s, t  int32
	k     int32
}

// cachedAnswer is one cached query result, uniform across every Reacher:
// fixed-k answers carry Yes/No, the ladder's one-sided answers carry
// YesWithin plus the rung the answer is certain for.
type cachedAnswer struct {
	verdict    kreach.Verdict
	effectiveK int
}

func (a cachedAnswer) reachable() bool { return a.verdict != kreach.No }

// toAnswer compresses a ReachK/ReachBatch verdict into the cached shape:
// EffectiveK is retained only for YesWithin, where it carries information
// (the rung) beyond the request's own k.
func toAnswer(v kreach.Verdict, effK int) cachedAnswer {
	ans := cachedAnswer{verdict: v}
	if v == kreach.YesWithin {
		ans.effectiveK = effK
	}
	return ans
}

// requestK maps the request body's optional k onto the Reacher hop-bound
// convention: absent means UseIndexK (the dataset's native bound).
func requestK(reqK *int) int {
	if reqK == nil {
		return kreach.UseIndexK
	}
	return *reqK
}

// cacheK canonicalizes a per-query-k request bound to the value both the
// cache key and the Reacher use, so the two can never disagree. The rules
// are the Reacher's own (Dataset.NormalizeK → e.g. MultiIndex.NormalizeK:
// UseIndexK, negatives and k ≥ n−1 all mean classic reachability), not
// re-derived here, so a future per-query-k backend with different
// semantics gets correct cache keys for free. The normalized value always
// fits the key's int32, so two distinct request ks can never collide on
// one cache entry.
func cacheK(d *Dataset, reqK *int) int {
	return d.NormalizeK(requestK(reqK))
}

// keyFor builds the cache key for a query against snapshot d. reqK is the
// request's optional k, already validated by Dataset.CheckK.
func keyFor(d *Dataset, s, t int, reqK *int) queryKey {
	key := queryKey{epoch: d.Epoch(), s: int32(s), t: int32(t)}
	if d.PerQueryK() {
		key.k = int32(cacheK(d, reqK))
	}
	return key
}

// answer resolves one query through the cache (singleflight: a stampede on
// one hot key does a single index probe), or straight through to the
// Reacher when caching is disabled. The bool reports whether the caller's
// own probe was skipped — a cache hit, including collapsing onto another
// caller's successful in-flight probe. Errors are either the context's
// (client gone) or ErrProbePanicked on a collapsed caller whose leader's
// probe panicked; neither may be served as a normal answer.
func (s *Server) answer(ctx context.Context, d *Dataset, src, dst int, reqK *int) (cachedAnswer, bool, error) {
	probe := func() (cachedAnswer, error) {
		v, effK, err := d.Reacher.ReachK(ctx, src, dst, requestK(reqK))
		if err != nil {
			return cachedAnswer{}, err
		}
		return toAnswer(v, effK), nil
	}
	if s.cache == nil {
		a, err := probe()
		return a, false, err
	}
	return s.cache.Do(keyFor(d, src, dst, reqK), probe)
}

// reachRequest is the /v1/reach body. K follows the Reacher hop-bound
// convention: absent or 0 means the dataset's native bound (ladders:
// classic reachability), negative means classic reachability explicitly.
// The pointer keeps "absent" representable so validation can stay lenient
// about it on every dataset kind.
type reachRequest struct {
	Graph string `json:"graph"`
	S     int    `json:"s"`
	T     int    `json:"t"`
	K     *int   `json:"k"`
}

// reachResponse answers one query. Reachable is true for both exact Yes and
// the ladder's one-sided YesWithin; Verdict and EffectiveK carry the
// distinction for per-query-k datasets.
type reachResponse struct {
	Graph      string `json:"graph"`
	S          int    `json:"s"`
	T          int    `json:"t"`
	Reachable  bool   `json:"reachable"`
	Verdict    string `json:"verdict"`
	EffectiveK int    `json:"effective_k,omitempty"`
}

// writeAnswerError maps a query-path error onto an HTTP status: a hop-bound
// mismatch is the client's fault; a done request context means the client
// is gone and nothing should be written; a context error on a live request
// is a singleflight leader's cancellation bleeding onto a collapsed
// follower (cache.Do shares the leader's error), which the healthy
// follower should simply retry — 503, not a spurious 500.
func writeAnswerError(w http.ResponseWriter, r *http.Request, d *Dataset, err error) {
	switch {
	case errors.Is(err, kreach.ErrKMismatch):
		writeError(w, http.StatusBadRequest, "graph %q: %v", d.Name, err)
	case r.Context().Err() != nil:
		// Client disconnected (or timed out) mid-query; the response writer
		// has no reader anymore.
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusServiceUnavailable,
			"query cancelled by a concurrent caller, retry: %v", err)
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

func (s *Server) handleReach(w http.ResponseWriter, r *http.Request) {
	var req reachRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	d, err := s.reg.Lookup(req.Graph)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	if err := checkVertex(d, "source", req.S); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := checkVertex(d, "target", req.T); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := d.CheckK(req.K); err != nil {
		writeError(w, http.StatusBadRequest, "graph %q: %v", d.Name, err)
		return
	}
	rt := track(r.Context())
	rt.dataset, rt.s, rt.t, rt.k = d.Name, req.S, req.T, req.K
	ans, hit, err := s.answer(r.Context(), d, req.S, req.T, req.K)
	if err != nil {
		writeAnswerError(w, r, d, err)
		return
	}
	if hit {
		rt.outcome = outcomeCacheHit
		rt.path = kreach.PathCacheHit
	} else if rep, ok := d.Reacher.(kreach.ExecPathReporter); ok {
		rt.path = rep.ReachPath(req.S, req.T, requestK(req.K))
	}
	resp := reachResponse{
		Graph:     d.Name,
		S:         req.S,
		T:         req.T,
		Reachable: ans.reachable(),
		Verdict:   ans.verdict.String(),
	}
	if ans.verdict == kreach.YesWithin {
		resp.EffectiveK = ans.effectiveK
	}
	writeJSON(w, http.StatusOK, resp)
}

// BatchScratch is the reusable memory of one /v1/batch request: body,
// decoded pairs, reply columns and encoded reply. Pooled, so a request
// allocates the same handful of objects whatever its pair count.
// kreach-router reads each client body and replica reply into one too.
type BatchScratch struct {
	Body  bytes.Buffer
	Req   BatchRequest
	Reply BatchReply
	Out   []byte
}

var batchScratchPool = sync.Pool{New: func() any { return new(BatchScratch) }}

// maxPooledBatchBytes caps the buffers a pooled scratch keeps, so one huge
// batch does not pin its memory in the pool.
const maxPooledBatchBytes = 1 << 22

// GetBatchScratch takes a scratch from the pool. Its contents are whatever
// the last user left: reset what you use.
func GetBatchScratch() *BatchScratch { return batchScratchPool.Get().(*BatchScratch) }

// PutBatchScratch returns sc to the pool, unless a huge batch grew one of
// its buffers past the retention cap.
func PutBatchScratch(sc *BatchScratch) {
	if sc.Body.Cap() > maxPooledBatchBytes || cap(sc.Out) > maxPooledBatchBytes ||
		cap(sc.Req.Pairs) > maxPooledBatchBytes/16 {
		return
	}
	batchScratchPool.Put(sc)
}

// handleBatch is decode → validate → ReachBatch → encode. Every answer
// comes from the one snapshot d, so a response never mixes generations
// even if a reload lands mid-request. The request context rides into the
// worker pool: a client that disconnects mid-batch cancels the remaining
// pairs, and the partial answers are discarded. The result cache is not
// consulted: a per-pair lookup costs several times the probe it saves.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	sc := GetBatchScratch()
	defer PutBatchScratch(sc)
	if err := ReadBody(w, r, &sc.Body, s.maxBody); err != nil {
		writeBodyError(w, err)
		return
	}
	req := &sc.Req
	if err := DecodeBatchRequest(sc.Body.Bytes(), req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	d, err := s.reg.Lookup(req.Graph)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	if len(req.Pairs) > s.cfg.MaxBatch {
		writeError(w, http.StatusRequestEntityTooLarge,
			"batch of %d pairs exceeds limit %d", len(req.Pairs), s.cfg.MaxBatch)
		return
	}
	for i, p := range req.Pairs {
		if err := checkVertex(d, "source", p.S); err != nil {
			writeError(w, http.StatusBadRequest, "pair %d: %v", i, err)
			return
		}
		if err := checkVertex(d, "target", p.T); err != nil {
			writeError(w, http.StatusBadRequest, "pair %d: %v", i, err)
			return
		}
	}
	if err := d.CheckK(req.K); err != nil {
		writeError(w, http.StatusBadRequest, "graph %q: %v", d.Name, err)
		return
	}
	rt := track(r.Context())
	rt.dataset, rt.k, rt.pairs = d.Name, req.K, len(req.Pairs)
	if rt.workers = s.cfg.Parallelism; rt.workers <= 0 {
		rt.workers = runtime.GOMAXPROCS(0)
	}
	// A mutable dataset reports the epoch its batch was answered at; any
	// other index has one epoch for its lifetime.
	opts := kreach.BatchOptions{K: requestK(req.K), Parallelism: s.cfg.Parallelism}
	var answers []kreach.BatchVerdict
	var epoch uint64
	if dyn, ok := d.Mutable(); ok {
		answers, epoch, err = dyn.ReachBatchAt(r.Context(), req.Pairs, opts)
	} else {
		answers, err = d.Reacher.ReachBatch(r.Context(), req.Pairs, opts)
		epoch = d.Epoch()
	}
	if err != nil {
		// Cancelled mid-batch (or bad k): the answers are partial.
		writeAnswerError(w, r, d, err)
		return
	}
	reply := &sc.Reply
	reply.Graph, reply.Epoch, reply.Count = d.Name, epoch, len(answers)
	reply.Results = slices.Grow(reply.Results[:0], len(answers))[:len(answers)]
	for i, a := range answers {
		reply.Results[i] = a.Verdict != kreach.No
	}
	reply.Verdicts, reply.EffectiveK = reply.Verdicts[:0], reply.EffectiveK[:0]
	if d.PerQueryK() {
		for _, a := range answers {
			ans := toAnswer(a.Verdict, a.EffectiveK)
			reply.Verdicts = append(reply.Verdicts, ans.verdict.String())
			reply.EffectiveK = append(reply.EffectiveK, ans.effectiveK)
		}
	}
	sc.Out = AppendBatchReply(sc.Out[:0], reply)
	WriteBody(w, http.StatusOK, sc.Out)
}

// reloadResponse answers POST /v1/datasets/{name}/reload.
type reloadResponse struct {
	Graph    string `json:"graph"`
	Kind     Kind   `json:"kind"`
	Epoch    uint64 `json:"epoch"`
	Vertices int    `json:"vertices"`
	Edges    int    `json:"edges"`
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	d, err := s.reg.Reload(name)
	if err != nil {
		status := http.StatusInternalServerError
		switch {
		case errors.Is(err, ErrNotReloadable):
			status = http.StatusConflict
		case errors.Is(err, ErrUnknownDataset):
			status = http.StatusNotFound
		}
		writeError(w, status, "%v", err)
		return
	}
	track(r.Context()).dataset = d.Name
	writeJSON(w, http.StatusOK, reloadResponse{
		Graph:    d.Name,
		Kind:     d.Kind(),
		Epoch:    d.Epoch(),
		Vertices: d.Graph.NumVertices(),
		Edges:    d.Graph.NumEdges(),
	})
}

// datasetInfo is one /v1/stats entry.
type datasetInfo struct {
	Name       string        `json:"name"`
	Kind       Kind          `json:"kind"`
	Epoch      uint64        `json:"epoch"`
	Reloadable bool          `json:"reloadable"`
	Vertices   int           `json:"vertices"`
	Edges      int           `json:"edges"`
	K          *int          `json:"k,omitempty"`
	H          *int          `json:"h,omitempty"`
	Rungs      []int         `json:"rungs,omitempty"`
	CoverSize  *int          `json:"cover_size,omitempty"`
	IndexEdges *int          `json:"index_edges,omitempty"`
	SizeBytes  int           `json:"size_bytes"`
	ReadOnly   bool          `json:"read_only,omitempty"`
	Dynamic    *dynamicInfo  `json:"dynamic,omitempty"`
	WAL        *walInfo      `json:"wal,omitempty"`
	Follower   *followerInfo `json:"follower,omitempty"`
}

// dynamicInfo is the mutation/compaction section of a dynamic dataset's
// /v1/stats entry. Cumulative counters survive compactions.
type dynamicInfo struct {
	BaseEdges       int    `json:"base_edges"`
	DeltaAdded      int    `json:"delta_added"`
	DeltaRemoved    int    `json:"delta_removed"`
	MutationBatches uint64 `json:"mutation_batches"`
	EdgesAdded      uint64 `json:"edges_added"`
	EdgesRemoved    uint64 `json:"edges_removed"`
	Promotions      uint64 `json:"promotions"`
	RowsRecomputed  uint64 `json:"rows_recomputed"`
	RowsRelaxed     uint64 `json:"rows_relaxed"`
	MaintenanceBFS  uint64 `json:"maintenance_bfs"`
	Compactions     uint64 `json:"compactions"`
	ShouldCompact   bool   `json:"should_compact"`
}

// walInfo is the durability section of a dynamic dataset's /v1/stats
// entry, present only when the dataset runs with a write-ahead log.
type walInfo struct {
	Dir             string `json:"dir"`
	Sync            string `json:"sync"`
	RetainEpochs    int    `json:"retain_epochs"`
	RecordsAppended uint64 `json:"records_appended"`
	Syncs           uint64 `json:"syncs"`
	RecordsReplayed uint64 `json:"records_replayed"`
	Checkpoints     uint64 `json:"checkpoints"`
	Truncations     uint64 `json:"truncations"`
	SnapshotEpoch   uint64 `json:"snapshot_epoch"`
	LastEpoch       uint64 `json:"last_epoch"`
	TailFloor       uint64 `json:"tail_floor"`
	LogBytes        int64  `json:"log_bytes"`
	FeedRequests    uint64 `json:"feed_requests"`
	FeedSnapshots   uint64 `json:"feed_snapshots"`
	FeedRecords     uint64 `json:"feed_records"`
}

// followerInfo is the replication section of a follower dataset's
// /v1/stats entry: the lag numbers the router's prober demotes on.
type followerInfo struct {
	Primary          string  `json:"primary"`
	LastAppliedEpoch uint64  `json:"last_applied_epoch"`
	PrimaryEpoch     uint64  `json:"primary_epoch"`
	LagEpochs        uint64  `json:"lag_epochs"`
	LagSeconds       float64 `json:"lag_seconds"`
	PeakLagEpochs    uint64  `json:"peak_lag_epochs"`
	CaughtUp         bool    `json:"caught_up"`
	RecordsApplied   uint64  `json:"records_applied"`
	SnapshotsLoaded  uint64  `json:"snapshots_loaded"`
	SyncErrors       uint64  `json:"sync_errors"`
	LastContact      string  `json:"last_contact,omitempty"` // RFC 3339 UTC
}

// cacheInfo is the /v1/stats cache section. HitRate is derived —
// hits/(hits+misses), 0 with no traffic — so dashboards don't each
// re-derive it from the raw counters.
type cacheInfo struct {
	Enabled   bool    `json:"enabled"`
	Entries   int     `json:"entries"`
	Capacity  int     `json:"capacity"`
	Hits      uint64  `json:"hits"`
	Misses    uint64  `json:"misses"`
	Evictions uint64  `json:"evictions"`
	Collapsed uint64  `json:"collapsed"`
	HitRate   float64 `json:"hit_rate"`
}

// serverIdentity is the /v1/stats replica-identity section: who this
// process is, as opposed to what it serves. Together with the per-dataset
// epochs it lets a router (or an operator comparing two replicas' stats)
// tell otherwise-identical replicas apart and track each one's index
// generations across reloads. StartTime is RFC 3339 UTC.
type serverIdentity struct {
	InstanceID string `json:"instance_id"`
	StartTime  string `json:"start_time"`
	GoVersion  string `json:"go_version"`
	PID        int    `json:"pid"`
	Ready      bool   `json:"ready"`
	Draining   bool   `json:"draining"`
}

type statsResponse struct {
	Server   serverIdentity `json:"server"`
	Default  string         `json:"default"`
	Datasets []datasetInfo  `json:"datasets"`
	Cache    cacheInfo      `json:"cache"`
	Runtime  runtimeInfo    `json:"runtime"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	names := s.reg.Names()
	resp := statsResponse{Datasets: make([]datasetInfo, 0, len(names))}
	resp.Server = serverIdentity{
		InstanceID: s.idBase,
		StartTime:  s.startTime.UTC().Format(time.RFC3339Nano),
		GoVersion:  runtime.Version(),
		PID:        os.Getpid(),
		Ready:      s.ready.Load(),
		Draining:   s.draining.Load(),
	}
	if len(names) > 0 {
		resp.Default = names[0]
	}
	for _, name := range names {
		d, err := s.reg.Lookup(name)
		if err != nil {
			continue
		}
		st := d.Reacher.Stats()
		info := datasetInfo{
			Name:       d.Name,
			Kind:       st.Kind,
			Epoch:      st.Epoch,
			Reloadable: d.Loader != nil,
			Vertices:   d.Graph.NumVertices(),
			Edges:      d.Graph.NumEdges(),
			SizeBytes:  st.SizeBytes,
		}
		// The one remaining per-kind dispatch in the serving layer: pure
		// JSON shaping of the uniform ReacherStats (which optional fields a
		// variant reports). Query and mutation paths are kind-free.
		switch st.Kind {
		case KindPlain:
			info.K = intPtr(st.K)
			info.CoverSize = intPtr(st.CoverSize)
			info.IndexEdges = intPtr(st.IndexEdges)
		case KindHK:
			info.K = intPtr(st.K)
			info.H = intPtr(st.H)
			info.CoverSize = intPtr(st.CoverSize)
		case KindMulti:
			info.Rungs = st.Rungs
		case KindDynamic:
			dyn := st.Dynamic
			info.K = intPtr(st.K)
			info.CoverSize = intPtr(st.CoverSize)
			info.IndexEdges = intPtr(st.IndexEdges)
			info.Edges = dyn.LiveEdges // overlay applied, not the base CSR
			shouldCompact := false
			if mut, ok := d.Mutable(); ok {
				shouldCompact = mut.ShouldCompact()
			}
			info.Dynamic = &dynamicInfo{
				BaseEdges:       dyn.BaseEdges,
				DeltaAdded:      dyn.DeltaAdded,
				DeltaRemoved:    dyn.DeltaRemoved,
				MutationBatches: dyn.MutationBatches,
				EdgesAdded:      dyn.EdgesAdded,
				EdgesRemoved:    dyn.EdgesRemoved,
				Promotions:      dyn.Promotions,
				RowsRecomputed:  dyn.RowsRecomputed,
				RowsRelaxed:     dyn.RowsRelaxed,
				MaintenanceBFS:  dyn.MaintenanceBFS,
				Compactions:     dyn.Compactions,
				ShouldCompact:   shouldCompact,
			}
			if d.WAL != nil {
				wst := d.WAL.Stats()
				info.WAL = &walInfo{
					Dir:             wst.Dir,
					Sync:            wst.Sync,
					RetainEpochs:    wst.RetainEpochs,
					RecordsAppended: wst.RecordsAppended,
					Syncs:           wst.Syncs,
					RecordsReplayed: wst.RecordsReplayed,
					Checkpoints:     wst.Checkpoints,
					Truncations:     wst.Truncations,
					SnapshotEpoch:   wst.SnapshotEpoch,
					LastEpoch:       wst.LastEpoch,
					TailFloor:       wst.TailFloor,
					LogBytes:        wst.LogBytes,
					FeedRequests:    wst.FeedRequests,
					FeedSnapshots:   wst.FeedSnapshots,
					FeedRecords:     wst.FeedRecords,
				}
			}
		}
		info.ReadOnly = d.ReadOnly
		if d.Follower != nil {
			fs := d.Follower.Status()
			fi := &followerInfo{
				Primary:          fs.Primary,
				LastAppliedEpoch: fs.LastAppliedEpoch,
				PrimaryEpoch:     fs.PrimaryEpoch,
				LagEpochs:        fs.LagEpochs,
				LagSeconds:       fs.LagSeconds,
				PeakLagEpochs:    fs.PeakLagEpochs,
				CaughtUp:         fs.CaughtUp,
				RecordsApplied:   fs.RecordsApplied,
				SnapshotsLoaded:  fs.SnapshotsLoaded,
				SyncErrors:       fs.SyncErrors,
			}
			if !fs.LastContact.IsZero() {
				fi.LastContact = fs.LastContact.UTC().Format(time.RFC3339Nano)
			}
			info.Follower = fi
		}
		resp.Datasets = append(resp.Datasets, info)
	}
	if s.cache != nil {
		st := s.cache.Stats()
		resp.Cache = cacheInfo{
			Enabled:   true,
			Entries:   st.Entries,
			Capacity:  st.Capacity,
			Hits:      st.Hits,
			Misses:    st.Misses,
			Evictions: st.Evictions,
			Collapsed: st.Collapsed,
		}
		if total := st.Hits + st.Misses; total > 0 {
			resp.Cache.HitRate = float64(st.Hits) / float64(total)
		}
	}
	resp.Runtime = readRuntimeInfo()
	writeJSON(w, http.StatusOK, resp)
}

func intPtr(v int) *int { return &v }
