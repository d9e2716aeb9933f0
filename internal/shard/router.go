package shard

import (
	"errors"
	"fmt"
	"time"

	"rex/internal/client"
	"rex/internal/overload"
	"rex/internal/readpath"
)

// GroupClient submits to one replica group. client.Client (in-process
// or TCP) and server.Client satisfy it: each follows its own group's `not
// primary` hints independently, so a failover in one group never stalls
// routing to the others. Each group client keeps its own session token, so
// session reads stay read-your-writes per group without ever comparing cut
// frontiers across groups (they live in different trace spaces).
type GroupClient interface {
	// Do submits one replicated request to the group and returns the
	// application response.
	Do(body []byte) ([]byte, error)
	// QueryLevel runs a read at the given consistency level, routing to
	// the primary or a caught-up secondary as the level demands.
	QueryLevel(level readpath.Level, q []byte) ([]byte, error)
}

// ErrMapRetriesExhausted reports that a request kept landing on
// non-owners (or frozen ranges) for the router's whole attempt budget —
// the map could not be brought up to date in time.
var ErrMapRetriesExhausted = errors.New("shard: map retries exhausted")

// ErrRebalance reports a permanent rebalance-layer NACK (ReplyErr).
var ErrRebalance = errors.New("shard: rebalance error")

// Router routes requests to groups by an application-supplied key. It is
// single-task like its GroupClients (a router per routing task avoids
// head-of-line blocking between tasks). Redirects, elections and sheds
// inside a group are the group client's business; the router owns only
// which group a key goes to.
//
// With Enveloped unset the router trusts Map forever and forwards raw
// bodies. With Enveloped set it speaks the rebalance envelope: each
// request carries the routed range's epoch, and a wrong-group / stale /
// frozen NACK (or a client.ErrPermanent from a stale route) triggers a
// bounded map refetch with jittered backoff instead of retrying the same
// group blindly.
type Router struct {
	Map    *ShardMap
	Groups []GroupClient // one per group, indexed by group id

	// Enveloped turns on the rebalance envelope protocol.
	Enveloped bool
	// Fetch returns the current map (a linearizable read of the map home
	// group). Nil disables refetch; NACKs then only burn attempts.
	Fetch func() (*ShardMap, error)
	// Clock drives the backoff; it defaults to real time and MUST be the
	// env.Env inside the simulation.
	Clock client.Clock
	// Recorder, when set, records Do and linearizable QueryLevel calls
	// with raw application bytes, before enveloping, so one global history
	// spans groups and the linearizability checker sees a key's operations
	// across an ownership move. ClientID labels the history's client
	// column.
	Recorder client.Recorder
	ClientID uint64
	// MaxAttempts bounds NACK-driven rerouting per call (default 32).
	MaxAttempts int
	// BudgetExhausted counts calls abandoned on a dry retry budget.
	BudgetExhausted uint64

	pace *client.Pacer
}

// Router retry pacing: every envelope NACK consumed real replication
// work (the request went through consensus before being refused), so
// NACK-driven retries spend tokens. Successes earn a full token and the
// bucket is deep — rebalance freezes are short and bursty; only a
// sustained NACK storm with no goodput drains it.
const (
	minRouteBackoff  = 500 * time.Microsecond
	maxRouteBackoff  = 20 * time.Millisecond
	routeBudgetRatio = 1.0
	routeBudgetBurst = 128
)

// NewRouter binds a map to its per-group clients.
func NewRouter(m *ShardMap, groups []GroupClient) (*Router, error) {
	if len(groups) != m.Groups() {
		return nil, fmt.Errorf("shard: router has %d group clients for %d groups", len(groups), m.Groups())
	}
	return &Router{Map: m, Groups: groups}, nil
}

// GroupFor exposes the key hash for callers that track per-group state.
func (r *Router) GroupFor(key []byte) int { return r.Map.GroupFor(key) }

// pacer lazily builds the router's backoff and budget, seeded from the
// client id (set after NewRouter).
func (r *Router) pacer() *client.Pacer {
	if r.pace == nil {
		clock := r.Clock
		if clock == nil {
			clock = client.RealClock()
		}
		r.pace = client.NewPacer(clock, int64(r.ClientID)*2654435761+0x5bd1e995,
			minRouteBackoff, maxRouteBackoff, routeBudgetRatio, routeBudgetBurst)
	}
	return r.pace
}

// spend charges one retry against the budget; false means the budget is
// dry and the call must be abandoned.
func (r *Router) spend() bool {
	if r.pacer().Spend() {
		return true
	}
	r.BudgetExhausted++
	return false
}

// refetch replaces the map if a newer version can be fetched. It is
// called only on evidence of staleness (a NACK carrying a version above
// ours, or a permanent transport error), so the backoff loop around it
// bounds the fetch rate.
func (r *Router) refetch() {
	if r.Fetch == nil {
		return
	}
	nm, err := r.Fetch()
	if err != nil || nm == nil {
		return
	}
	if nm.Version > r.Map.Version && nm.Groups() == len(r.Groups) {
		r.Map = nm
	}
}

func (r *Router) attempts() int {
	if r.MaxAttempts > 0 {
		return r.MaxAttempts
	}
	return 32
}

// route returns the target group and envelope for a key hash.
func (r *Router) route(kind byte, h uint64, body []byte) (int, []byte) {
	if len(r.Map.Ranges) == 0 {
		return int(h % uint64(len(r.Groups))), Envelope(kind, r.Map.Version, h, body)
	}
	rg := r.Map.Ranges[r.Map.RangeIndexFor(h)]
	return rg.Group, Envelope(kind, rg.Epoch, h, body)
}

// Do submits body to the group owning key.
func (r *Router) Do(key, body []byte) ([]byte, error) {
	if !r.Enveloped {
		return r.Groups[r.Map.GroupFor(key)].Do(body)
	}
	op := client.Record(r.Recorder, r.ClientID, body)
	resp, definite, err := r.call(HashKey(key), body, func(g int, env []byte) ([]byte, error) {
		return r.Groups[g].Do(env)
	})
	if err != nil {
		op.Fail(definite)
		return nil, err
	}
	op.Return(resp)
	return resp, nil
}

// QueryLevel runs a read for key at the given consistency level against
// the owning group: linearizable reads go to that group's primary,
// session/eventual reads fan out over its secondaries with the group
// client's own session token. Linearizable reads are recorded (they must
// be, to constrain the history); weaker reads are checked by the session
// checker instead.
func (r *Router) QueryLevel(key []byte, level readpath.Level, q []byte) ([]byte, error) {
	if !r.Enveloped {
		return r.Groups[r.Map.GroupFor(key)].QueryLevel(level, q)
	}
	var op client.Op
	if level == readpath.Linearizable {
		op = client.Record(r.Recorder, r.ClientID, q)
	}
	resp, _, err := r.call(HashKey(key), q, func(g int, env []byte) ([]byte, error) {
		return r.Groups[g].QueryLevel(level, env)
	})
	if err != nil {
		// A failed read mutated nothing and was never seen: discard it.
		op.Fail(true)
		return nil, err
	}
	op.Return(resp)
	return resp, nil
}

// call is the enveloped routing loop. It reroutes only after
// deterministic rebalance NACKs (which provably did not mutate state) or
// a permanent error on a stale route; an unknown-outcome error is
// surfaced to the caller rather than blindly resubmitted, since a
// resubmission would be a second, distinct request. definite reports
// that no attempt can have mutated state.
func (r *Router) call(h uint64, body []byte, send func(g int, env []byte) ([]byte, error)) (resp []byte, definite bool, err error) {
	r.pacer().Reset()
	definite = true
	for attempt := 0; attempt < r.attempts(); attempt++ {
		if attempt > 0 && !r.spend() {
			// Every retry here follows a NACK that consumed replication
			// work; a dry budget means this router is amplifying load on
			// a cluster that is refusing it.
			return nil, definite, client.ErrRetryBudget
		}
		g, env := r.route(EnvApp, h, body)
		out, err := send(g, env)
		if err != nil {
			if errors.Is(err, client.ErrPermanent) {
				// A permanent error (e.g. a stale-sequence wrap) may mean
				// an earlier attempt landed: outcome unknown.
				definite = false
				r.refetch()
				r.pacer().Backoff()
				continue
			}
			if errors.Is(err, overload.ErrOverloaded) || errors.Is(err, overload.ErrDeadlineExceeded) {
				// Shed before admission: provably never executed. Surface
				// it — the caller owns the load decision now.
				return nil, definite, err
			}
			return nil, false, err
		}
		done, payload, rerr := r.handleReply(out, attempt)
		if done {
			if rerr != nil {
				return nil, false, rerr
			}
			r.pacer().Earn()
			return payload, true, nil
		}
	}
	return nil, definite, ErrMapRetriesExhausted
}

// handleReply interprets an envelope reply. done=false means "NACKed,
// rerouted, try again".
func (r *Router) handleReply(resp []byte, attempt int) (done bool, payload []byte, err error) {
	st, payload, err := DecodeReply(resp)
	if err != nil {
		return true, nil, err
	}
	switch st {
	case ReplyOK:
		return true, payload, nil
	case ReplyWrongGroup, ReplyStale:
		if ReplyVersion(payload) > r.Map.Version {
			r.refetch()
		} else if attempt > 2 {
			// Same-version NACKs that persist mean our map is stale but
			// the responder's is too (mid-flip); fetch the authoritative
			// one.
			r.refetch()
		}
		r.pacer().Backoff()
		return false, nil, nil
	case ReplyFrozen:
		// Bounded migration write barrier; wait it out, occasionally
		// confirming the flip landed.
		if attempt > 1 {
			r.refetch()
		}
		r.pacer().Backoff()
		return false, nil, nil
	case ReplyErr:
		return true, nil, fmt.Errorf("%w: %s", ErrRebalance, ReplyErrMessage(payload))
	default:
		return true, nil, fmt.Errorf("shard: unknown reply status %d", st)
	}
}
