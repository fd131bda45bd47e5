package router

import (
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ReplicaState is the health classification the router maintains per
// replica. Transitions are driven by both the active prober and the
// request path (a failed request demotes immediately — a SIGKILLed replica
// must stop receiving traffic at the next request, not the next probe).
type ReplicaState int32

const (
	// StateHealthy replicas are eligible for placement.
	StateHealthy ReplicaState = iota
	// StateDegraded replicas have failed recently (1..ejectAfter-1
	// consecutive failures) and receive no new placements, but a single
	// successful probe or request restores them.
	StateDegraded
	// StateEjected replicas have failed ejectAfter+ consecutive times and
	// are fully out of rotation until a probe succeeds.
	StateEjected
)

func (s ReplicaState) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StateDegraded:
		return "degraded"
	case StateEjected:
		return "ejected"
	}
	return "unknown"
}

// Replica is the router's view of one kreachd backend: transport, health
// state, in-flight load (the placement signal), and the per-dataset
// epochs /v1/stats and the rolling reload report. All fields are safe for
// concurrent use; the mutable identity/epoch section hides behind mu.
type Replica struct {
	ID   string // host:port
	Base string // http://host:port
	http *http.Client

	inflight atomic.Int64 // requests currently against this replica
	draining atomic.Bool  // router-side drain (rolling reload): no new placements
	state    atomic.Int32 // ReplicaState
	fails    atomic.Int32 // consecutive failures (probe or request path)
	ready    atomic.Bool  // backend /readyz verdict (true until a probe says otherwise)
	lagged   atomic.Bool  // replication lag beyond configured bounds: no new placements

	mu         sync.Mutex
	instance   string            // backend instance_id from /v1/stats
	epochs     map[string]uint64 // per-dataset index epoch, monotone per process
	lagEpochs  uint64            // worst per-dataset follower lag, from the last probe
	lagSeconds float64
	lastErr    string
	lastProbe  time.Time
}

func newReplica(base string, client *http.Client) (*Replica, error) {
	base = strings.TrimRight(base, "/")
	u, err := url.Parse(base)
	if err != nil {
		return nil, err
	}
	id := u.Host
	if id == "" {
		id = base
	}
	r := &Replica{ID: id, Base: base, http: client, epochs: make(map[string]uint64)}
	// Optimistic start: routable until a probe or request says otherwise,
	// so the router serves from the first request without waiting a probe
	// interval (a dead replica costs one retried request, not an outage).
	r.ready.Store(true)
	return r, nil
}

// State returns the current health classification.
func (r *Replica) State() ReplicaState { return ReplicaState(r.state.Load()) }

// Routable reports whether new placements may target this replica:
// healthy, backend-ready, not being drained by the router, and not lagging
// its replication primary beyond the configured bounds.
func (r *Replica) Routable() bool {
	return r.State() == StateHealthy && r.ready.Load() && !r.draining.Load() && !r.lagged.Load()
}

// Lagged reports whether the replica is demoted for replication lag.
func (r *Replica) Lagged() bool { return r.lagged.Load() }

// setLag records the worst per-dataset follower lag a probe observed and
// whether it crosses the demotion bounds. Replicas that are not followers
// always report (0, 0, false), so the flag never sticks on a primary.
func (r *Replica) setLag(epochs uint64, seconds float64, over bool) {
	r.mu.Lock()
	r.lagEpochs, r.lagSeconds = epochs, seconds
	r.mu.Unlock()
	r.lagged.Store(over)
}

// lagView returns the last probe's lag observation.
func (r *Replica) lagView() (epochs uint64, seconds float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lagEpochs, r.lagSeconds
}

// Inflight is the number of requests currently outstanding.
func (r *Replica) Inflight() int64 { return r.inflight.Load() }

// noteSuccess resets the failure streak and restores StateHealthy. It
// deliberately does not touch ready: a draining backend answers its last
// queries perfectly well and must still not receive new placements.
func (r *Replica) noteSuccess() {
	r.fails.Store(0)
	r.state.Store(int32(StateHealthy))
}

// noteFailure records one failed probe or request and demotes the
// replica: degraded on the first failure, ejected at ejectAfter
// consecutive ones.
func (r *Replica) noteFailure(ejectAfter int, err error) {
	n := r.fails.Add(1)
	if int(n) >= ejectAfter {
		r.state.Store(int32(StateEjected))
	} else {
		r.state.Store(int32(StateDegraded))
	}
	if err != nil {
		r.mu.Lock()
		r.lastErr = err.Error()
		r.mu.Unlock()
	}
}

// Epoch returns the replica's last-known index epoch for a dataset.
func (r *Replica) Epoch(dataset string) (uint64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.epochs[dataset]
	return e, ok
}

// observeEpoch folds an epoch observation (from a probe or a reload
// response) into the replica's view. Epochs are process-local generation
// counters and strictly increase across reloads/mutations, so newest-wins
// is the correct merge even when a slow probe result lands after a
// fresher reload observation.
func (r *Replica) observeEpoch(dataset string, epoch uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if epoch > r.epochs[dataset] {
		r.epochs[dataset] = epoch
	}
}

// setInstance records the backend's process identity. A changed instance
// id means the backend restarted: every stored epoch belongs to a dead
// process and is dropped (the new process starts its own counter).
func (r *Replica) setInstance(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.instance != id {
		r.instance = id
		r.epochs = make(map[string]uint64)
	}
}

// snapshot returns a consistent copy of the mutable section for stats.
func (r *Replica) snapshot() (instance string, epochs map[string]uint64, lastErr string, lastProbe time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	epochs = make(map[string]uint64, len(r.epochs))
	for k, v := range r.epochs {
		epochs[k] = v
	}
	return r.instance, epochs, r.lastErr, r.lastProbe
}
