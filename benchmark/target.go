package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"kreach"
)

// A target is something the benchmark can read from and, when dynamic,
// write to: the public API in this process, or a daemon (or a router in
// front of daemons) over loopback. Every pass follows the same rules: the
// inputs are prepared before the clock starts, the clock is read once
// before and once after the whole block, callers are closed-loop (each
// sends its next operation when the previous one returns), and replies are
// only decoded and checked after the clock stops.
type target interface {
	// probe answers single pairs; reply i is 1 (yes), 0 (no) or -1
	// (failed).
	probe(pairs [][2]int32, callers int) (time.Duration, []int8)
	// batch answers pairs in slices of at most maxSlice. When a writer runs
	// beside the pass, observe reports how many mutation batches have been
	// acknowledged and how many sent; each reply records the first number
	// before its request and the second after it, which brackets the
	// states the answer can come from.
	batch(pairs [][2]int32, maxSlice, callers int, observe func() (acked, sent int)) (time.Duration, []batchReply)
	// balls enumerates; it retains the members of every ballSampleEvery-th
	// operation and only the sizes of the others.
	balls(ops []ballOp, callers int) (time.Duration, []ballReply)
	// apply sends one mutation batch and keeps the raw outcome in m;
	// settle, called after the clock stops, decodes it and records the
	// acknowledged epoch. A settle error means the product refused or
	// misapplied the batch, after which the oracle's history no longer
	// describes the product.
	apply(m *mutation)
	settle(m *mutation) error
}

// batchReply is one answered slice of a batch pass.
type batchReply struct {
	lo, hi           int    // the slice is pairs[lo:hi]
	got              []bool // nil when the request failed
	stateLo, stateHi int    // see target.batch; zero without a writer
}

// ballReply is one enumeration's outcome.
type ballReply struct {
	size    int          // vertices enumerated
	members []ballMember // retained for sampled operations only
	sampled bool
	failed  bool
}

// ballSampleEvery is the stride of the ball sample checked against the
// oracle. Balls are fewer and each check is a whole BFS, so the sample is
// denser than for pairs.
const ballSampleEvery = 8

// timeBlock runs work on callers goroutines, released together, and
// returns the time from the release until the last one finishes.
func timeBlock(callers int, work func(caller int)) time.Duration {
	runtime.GC()
	var wg sync.WaitGroup
	release := make(chan struct{})
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-release
			work(c)
		}()
	}
	t0 := time.Now()
	close(release)
	wg.Wait()
	return time.Since(t0)
}

// claimer hands out [lo, hi) chunks of n operations to closed-loop
// callers, so no caller idles while another still has a backlog.
type claimer struct {
	next     atomic.Int64
	n, chunk int
}

func (c *claimer) claim() (lo, hi int, ok bool) {
	lo = int(c.next.Add(int64(c.chunk))) - c.chunk
	if lo >= c.n {
		return 0, 0, false
	}
	return lo, min(lo+c.chunk, c.n), true
}

// libTarget drives the public API in this process.
type libTarget struct {
	r   kreach.Reacher
	en  kreach.NeighborEnumerator
	dyn *kreach.DynamicIndex // nil for an immutable index
}

func newLibTarget(r kreach.Reacher) (*libTarget, error) {
	en, ok := r.(kreach.NeighborEnumerator)
	if !ok {
		return nil, fmt.Errorf("%T cannot enumerate neighbourhoods", r)
	}
	dyn, _ := r.(*kreach.DynamicIndex)
	return &libTarget{r: r, en: en, dyn: dyn}, nil
}

func (t *libTarget) probe(pairs [][2]int32, callers int) (time.Duration, []int8) {
	ctx := context.Background()
	got := make([]int8, len(pairs))
	cl := claimer{n: len(pairs), chunk: 4096}
	took := timeBlock(callers, func(int) {
		for lo, hi, ok := cl.claim(); ok; lo, hi, ok = cl.claim() {
			for i := lo; i < hi; i++ {
				v, _, err := t.r.ReachK(ctx, int(pairs[i][0]), int(pairs[i][1]), kreach.UseIndexK)
				switch {
				case err != nil:
					got[i] = -1
				case v != kreach.No:
					got[i] = 1
				}
			}
		}
	})
	return took, got
}

func (t *libTarget) batch(pairs [][2]int32, maxSlice, callers int, observe func() (int, int)) (time.Duration, []batchReply) {
	ctx := context.Background()
	in := make([]kreach.Pair, len(pairs))
	for i, p := range pairs {
		in[i] = kreach.Pair{S: int(p[0]), T: int(p[1])}
	}
	var replies []batchReply
	for lo := 0; lo < len(in); lo += maxSlice {
		replies = append(replies, batchReply{lo: lo, hi: min(lo+maxSlice, len(in))})
	}
	verdicts := make([][]kreach.BatchVerdict, len(replies))
	// The library's batch executor is the worker pool: one goroutine
	// submits, Parallelism callers answer.
	took := timeBlock(1, func(int) {
		for i := range replies {
			r := &replies[i]
			if observe != nil {
				r.stateLo, _ = observe()
			}
			v, err := t.r.ReachBatch(ctx, in[r.lo:r.hi], kreach.BatchOptions{Parallelism: callers})
			if observe != nil {
				_, r.stateHi = observe()
			}
			if err == nil {
				verdicts[i] = v
			}
		}
	})
	for i, vs := range verdicts {
		if vs == nil {
			continue
		}
		replies[i].got = make([]bool, len(vs))
		for j, v := range vs {
			replies[i].got[j] = v.Verdict != kreach.No
		}
	}
	return took, replies
}

func (t *libTarget) balls(ops []ballOp, callers int) (time.Duration, []ballReply) {
	ctx := context.Background()
	replies := make([]ballReply, len(ops))
	kept := make([]*kreach.Ball, len(ops))
	cl := claimer{n: len(ops), chunk: 1}
	took := timeBlock(callers, func(int) {
		for i, _, ok := cl.claim(); ok; i, _, ok = cl.claim() {
			r := &replies[i]
			enumerate := t.en.ReachInto
			if ops[i].forward {
				enumerate = t.en.ReachFrom
			}
			ball, err := enumerate(ctx, int(ops[i].v), kreach.UseIndexK, kreach.EnumOptions{})
			if err != nil || !ball.Complete() {
				r.failed = true
				continue
			}
			r.size = ball.Total
			if r.sampled = i%ballSampleEvery == 0; r.sampled {
				kept[i] = ball
			}
		}
	})
	for i, ball := range kept {
		if ball == nil {
			continue
		}
		ms := make([]ballMember, len(ball.Neighbors))
		for j, nb := range ball.Neighbors {
			ms[j] = ballMember{id: int32(nb.ID), frontier: nb.Bucket == kreach.DistFrontier}
		}
		replies[i].members = ms
	}
	return took, replies
}

func (t *libTarget) apply(m *mutation) {
	if t.dyn == nil {
		m.err = fmt.Errorf("mutate on an immutable index")
		return
	}
	m.libReply, m.err = t.dyn.Mutate(m.addJ, m.remJ)
}

func (t *libTarget) settle(m *mutation) error {
	if m.err != nil {
		return fmt.Errorf("mutation %d: %w", m.number, m.err)
	}
	return m.acknowledge(m.libReply.Added, m.libReply.Removed, m.libReply.Epoch)
}

// acknowledge records the product's reply to one batch and rejects a
// partial application.
func (m *mutation) acknowledge(added, removed int, epoch uint64) error {
	if added != len(m.add) || removed != len(m.remove) || epoch == 0 {
		return fmt.Errorf("mutation %d: product applied %d adds and %d removes at epoch %d, want %d and %d",
			m.number, added, removed, epoch, len(m.add), len(m.remove))
	}
	m.acknowledged = epoch
	return nil
}
