package kreach

import (
	"context"
	"errors"
	"fmt"
)

// This file is the v2 query surface: one Reacher interface implemented by
// every index variant, so serving layers, tools and future backends program
// against a single contract instead of four concrete types.
//
//	verdict, effK, err := r.ReachK(ctx, s, t, kreach.UseIndexK)
//	answers, err := r.ReachBatch(ctx, pairs, kreach.BatchOptions{})
//
// Hop-bound semantics are uniform across variants:
//
//   - k = UseIndexK (0, the zero value) answers at the Reacher's native
//     bound: the fixed k of a plain, (h,k) or dynamic index; classic
//     reachability for a MultiIndex ladder.
//   - k > 0 asks for that exact bound. Fixed-k variants answer only their
//     own k and reject anything else with a *KMismatchError; a MultiIndex
//     answers any k (exactly on a rung, one-sided between rungs).
//   - k < 0 (conventionally Unbounded) asks for classic reachability.
//
// Context semantics: ReachK checks ctx once before probing; ReachBatch
// threads ctx through the worker pool, which polls it between pairs and
// stops claiming work once it is cancelled (see ReachBatch for the partial-
// result contract).

// UseIndexK is the hop bound that selects a Reacher's native k: the fixed k
// the index was built with, or classic reachability for a MultiIndex. It is
// the zero value, so BatchOptions{} asks for the native bound.
const UseIndexK = 0

// ErrKMismatch is the sentinel wrapped by every KMismatchError; test with
// errors.Is when the offending bounds do not matter.
var ErrKMismatch = errors.New("kreach: hop bound not served by this index")

// KMismatchError reports a ReachK/ReachBatch hop bound that a fixed-k
// Reacher cannot answer. It unwraps to ErrKMismatch.
type KMismatchError struct {
	IndexK int // the bound the index answers (Unbounded = classic)
	QueryK int // the bound the query asked for
}

func (e *KMismatchError) Error() string {
	if e.IndexK == Unbounded {
		return fmt.Sprintf("kreach: index serves classic reachability (k unbounded), cannot answer k=%d", e.QueryK)
	}
	return fmt.Sprintf("kreach: index serves fixed k=%d, cannot answer k=%d", e.IndexK, e.QueryK)
}

func (e *KMismatchError) Unwrap() error { return ErrKMismatch }

// IndexKind labels a Reacher variant, as reported by Stats and by the
// serving layer's /v1/stats endpoint.
type IndexKind string

// The four built-in Reacher variants.
const (
	KindPlain   IndexKind = "kreach"  // fixed-k Index (Unbounded = classic n-reach)
	KindHK      IndexKind = "hkreach" // (h,k)-reach HKIndex
	KindMulti   IndexKind = "multi"   // MultiIndex ladder, per-query k
	KindDynamic IndexKind = "dynamic" // mutable DynamicIndex
)

// ReacherStats is a point-in-time description of a Reacher, uniform across
// variants so serving layers can report on any backend without knowing its
// concrete type. Fields that do not apply to a variant are zero: H is set
// only for (h,k) indexes, Rungs only for ladders, IndexEdges only where the
// index graph is materialized, Dynamic only for mutable indexes.
type ReacherStats struct {
	Kind       IndexKind
	K          int   // native hop bound (Unbounded for classic / a ladder's default)
	H          int   // (h,k) hop-cover radius, 0 otherwise
	Rungs      []int // ladder rungs in ascending order, nil otherwise
	Epoch      uint64
	CoverSize  int
	IndexEdges int
	SizeBytes  int
	Dynamic    *DynamicStats // live-edge and mutation counters, nil unless dynamic
}

// IndexInfo is the descriptive half of Reacher: everything a serving layer
// needs to report on an index without querying it.
type IndexInfo interface {
	// K returns the native hop bound: the k answered when ReachK is called
	// with UseIndexK. Unbounded means classic reachability (a plain n-reach
	// index, or a MultiIndex whose native answer is classic).
	K() int
	// Epoch returns the process-unique generation number; serving layers
	// embed it in cache keys so replacing an index self-invalidates them.
	Epoch() uint64
	// CoverSize returns |V_I|, the vertex-cover size.
	CoverSize() int
	// SizeBytes estimates the resident index size (excluding the graph).
	SizeBytes() int
	// Stats returns the full variant-tagged description.
	Stats() ReacherStats
}

// Reacher is the unified k-hop reachability query interface, implemented by
// Index, HKIndex, MultiIndex and DynamicIndex. All methods are safe for
// concurrent use.
type Reacher interface {
	IndexInfo

	// ReachK reports whether t is reachable from s within k hops (see the
	// package-level hop-bound semantics; UseIndexK selects the native
	// bound). The int is the hop bound the verdict is certain for: the
	// resolved k for exact Yes/No answers, or — for YesWithin — the rung
	// above k within which reachability is guaranteed. It returns a
	// *KMismatchError when this Reacher cannot answer k, or ctx.Err() if the
	// context is already done. Endpoints out of [0, NumVertices) panic,
	// mirroring slice indexing.
	ReachK(ctx context.Context, s, t, k int) (Verdict, int, error)

	// ReachBatch answers every (S, T) pair at the hop bound opts.K with a
	// worker pool, positionally aligned with pairs. If ctx is cancelled
	// mid-batch the pool stops between pairs and returns the partially
	// filled slice together with ctx.Err(); pairs never evaluated carry a
	// default verdict indistinguishable from a genuine No, so a non-nil
	// error means the slice must be discarded, not served. A
	// *KMismatchError is returned before any work when opts.K cannot be
	// answered.
	ReachBatch(ctx context.Context, pairs []Pair, opts BatchOptions) ([]BatchVerdict, error)
}

// BatchOptions configures one ReachBatch call. The zero value answers at
// the Reacher's native hop bound with GOMAXPROCS workers.
type BatchOptions struct {
	// K is the hop bound for every pair of the batch (UseIndexK = native).
	K int
	// Parallelism bounds the worker pool (0 = GOMAXPROCS, 1 = sequential).
	Parallelism int
}

// Interface compliance: the four variants are the reference Reachers.
var (
	_ Reacher = (*Index)(nil)
	_ Reacher = (*HKIndex)(nil)
	_ Reacher = (*MultiIndex)(nil)
	_ Reacher = (*DynamicIndex)(nil)
)

// boolVerdict lifts a fixed-k index's boolean answer into the shared
// verdict space: fixed-k answers are always exact.
func boolVerdict(ok bool) Verdict {
	if ok {
		return Yes
	}
	return No
}

// ResolveK maps a requested hop bound onto a fixed-k Reacher's own bound,
// following the package-level conventions: UseIndexK and the index's exact
// k always resolve, and — because every negative bound means classic
// reachability — any negative queryK resolves against a classic (Unbounded)
// index. Anything else is rejected with a *KMismatchError. It is exported
// for serving layers and custom Reacher implementations, so request
// validation and index behavior cannot drift apart.
func ResolveK(indexK, queryK int) (int, error) {
	if queryK == UseIndexK || queryK == indexK || (queryK < 0 && indexK == Unbounded) {
		return indexK, nil
	}
	return 0, &KMismatchError{IndexK: indexK, QueryK: queryK}
}

// boolVerdicts converts a fixed-k batch answer, stamping every verdict with
// the resolved bound it is exact for.
func boolVerdicts(oks []bool, effK int) []BatchVerdict {
	out := make([]BatchVerdict, len(oks))
	for i, ok := range oks {
		out[i] = BatchVerdict{Verdict: boolVerdict(ok), EffectiveK: effK}
	}
	return out
}

// ReachK implements Reacher. A plain index answers only its own k (or
// UseIndexK); the verdict is always exact.
func (ix *Index) ReachK(ctx context.Context, s, t, k int) (Verdict, int, error) {
	effK, err := ResolveK(ix.K(), k)
	if err != nil {
		return No, 0, err
	}
	if err := ctx.Err(); err != nil {
		return No, 0, err
	}
	return boolVerdict(ix.Reach(s, t)), effK, nil
}

// ReachBatch implements Reacher; see Index.ReachK for the hop-bound rules.
func (ix *Index) ReachBatch(ctx context.Context, pairs []Pair, opts BatchOptions) ([]BatchVerdict, error) {
	effK, err := ResolveK(ix.K(), opts.K)
	if err != nil {
		return nil, err
	}
	oks, err := ix.ix.ReachBatch(ctx, checkPairs(ix.g, pairs), opts.Parallelism)
	return boolVerdicts(oks, effK), err
}

// Stats implements IndexInfo.
func (ix *Index) Stats() ReacherStats {
	return ReacherStats{
		Kind:       KindPlain,
		K:          ix.K(),
		Epoch:      ix.Epoch(),
		CoverSize:  ix.CoverSize(),
		IndexEdges: ix.IndexEdges(),
		SizeBytes:  ix.SizeBytes(),
	}
}

// ReachK implements Reacher. An (h,k) index answers only its own k (or
// UseIndexK); the verdict is always exact.
func (ix *HKIndex) ReachK(ctx context.Context, s, t, k int) (Verdict, int, error) {
	effK, err := ResolveK(ix.K(), k)
	if err != nil {
		return No, 0, err
	}
	if err := ctx.Err(); err != nil {
		return No, 0, err
	}
	return boolVerdict(ix.Reach(s, t)), effK, nil
}

// ReachBatch implements Reacher; see HKIndex.ReachK for the hop-bound rules.
func (ix *HKIndex) ReachBatch(ctx context.Context, pairs []Pair, opts BatchOptions) ([]BatchVerdict, error) {
	effK, err := ResolveK(ix.K(), opts.K)
	if err != nil {
		return nil, err
	}
	oks, err := ix.ix.ReachBatch(ctx, checkPairs(ix.g, pairs), opts.Parallelism)
	return boolVerdicts(oks, effK), err
}

// Stats implements IndexInfo.
func (ix *HKIndex) Stats() ReacherStats {
	return ReacherStats{
		Kind:      KindHK,
		K:         ix.K(),
		H:         ix.H(),
		Epoch:     ix.Epoch(),
		CoverSize: ix.CoverSize(),
		SizeBytes: ix.SizeBytes(),
	}
}

// NormalizeK maps a requested hop bound onto the canonical value ReachK and
// ReachBatch actually probe: UseIndexK and negative bounds select classic
// reachability (Unbounded), and any k ≥ n−1 is classic reachability too
// (shortest paths are simple), answered exactly by the unbounded rung
// instead of one-sided. Serving layers that cache per-query-k answers must
// key them by the normalized bound — two request ks with one NormalizeK
// image always produce the same answer — and discover it through this
// method rather than re-deriving the rules.
func (ix *MultiIndex) NormalizeK(k int) int {
	if k == UseIndexK || k < 0 || k >= ix.g.NumVertices()-1 {
		return Unbounded
	}
	return k
}

// K implements IndexInfo: a ladder's native answer (the one ReachK gives
// for UseIndexK) is classic reachability, so K reports Unbounded. Per-query
// bounds are the point of the ladder — pass them to ReachK directly.
func (ix *MultiIndex) K() int { return Unbounded }

// CoverSize returns |V_I| of the vertex cover shared by every rung.
func (ix *MultiIndex) CoverSize() int { return ix.m.CoverSize() }

// ReachK implements Reacher. Any hop bound is answerable: exactly when k
// hits a rung (or the bracketing rungs agree), one-sided YesWithin
// otherwise. The int reports the bound the verdict is certain for — the
// normalized k for exact answers, the rung above k for YesWithin.
func (ix *MultiIndex) ReachK(ctx context.Context, s, t, k int) (Verdict, int, error) {
	if err := ctx.Err(); err != nil {
		return No, 0, err
	}
	k = ix.NormalizeK(k)
	verdict, within := ix.Reach(s, t, k)
	effK := k
	if verdict == YesWithin {
		effK = within
	}
	return verdict, effK, nil
}

// ReachBatch implements Reacher; every pair is answered for opts.K under
// MultiIndex.ReachK's rules.
func (ix *MultiIndex) ReachBatch(ctx context.Context, pairs []Pair, opts BatchOptions) ([]BatchVerdict, error) {
	k := ix.NormalizeK(opts.K)
	res, err := ix.m.ReachBatch(ctx, checkPairs(ix.g, pairs), k, opts.Parallelism)
	out := make([]BatchVerdict, len(res))
	for i, r := range res {
		out[i] = BatchVerdict{Verdict: r.Verdict, EffectiveK: k}
		if r.Verdict == YesWithin {
			out[i].EffectiveK = r.EffectiveK
		}
	}
	return out, err
}

// Stats implements IndexInfo.
func (ix *MultiIndex) Stats() ReacherStats {
	return ReacherStats{
		Kind:      KindMulti,
		K:         Unbounded,
		Rungs:     ix.Rungs(),
		Epoch:     ix.Epoch(),
		CoverSize: ix.CoverSize(),
		SizeBytes: ix.SizeBytes(),
	}
}

// ReachK implements Reacher: a dynamic index answers its fixed k (or
// UseIndexK) against the live edge set.
func (ix *DynamicIndex) ReachK(ctx context.Context, s, t, k int) (Verdict, int, error) {
	effK, err := ResolveK(ix.K(), k)
	if err != nil {
		return No, 0, err
	}
	if err := ctx.Err(); err != nil {
		return No, 0, err
	}
	return boolVerdict(ix.Reach(s, t)), effK, nil
}

// ReachBatch implements Reacher; see DynamicIndex.ReachK for the hop-bound
// rules. The whole batch answers from one edge set: a mutation either
// precedes every pair or follows every pair. ReachBatchAt also returns the
// epoch that edge set has.
func (ix *DynamicIndex) ReachBatch(ctx context.Context, pairs []Pair, opts BatchOptions) ([]BatchVerdict, error) {
	out, _, err := ix.ReachBatchAt(ctx, pairs, opts)
	return out, err
}

// ReachBatchAt is ReachBatch that also returns the epoch every answer is
// exact for, read under the same lock as the batch ran, so that a reply can
// name the state that produced it (as Ball.Epoch does for a ball).
func (ix *DynamicIndex) ReachBatchAt(ctx context.Context, pairs []Pair, opts BatchOptions) ([]BatchVerdict, uint64, error) {
	effK, err := ResolveK(ix.K(), opts.K)
	if err != nil {
		return nil, 0, err
	}
	oks, epoch, err := ix.d.ReachBatch(ctx, checkPairs(ix.g, pairs), opts.Parallelism)
	return boolVerdicts(oks, effK), epoch, err
}

// Stats implements IndexInfo; the Dynamic section carries the live-edge
// counts and cumulative mutation history (counters survive compactions).
func (ix *DynamicIndex) Stats() ReacherStats {
	st := ix.dynStats()
	return ReacherStats{
		Kind:       KindDynamic,
		K:          st.K,
		Epoch:      st.Epoch,
		CoverSize:  st.CoverSize,
		IndexEdges: st.IndexArcs,
		SizeBytes:  ix.SizeBytes(),
		Dynamic:    &st,
	}
}
