// Package client is Rex's one client state machine. A Client tags each
// request with its (client, seq) pair, follows `not primary` hints, paces
// retries with a jittered backoff and a retry budget, carries the session
// token, and tells a definite did-not-execute NACK apart from an unknown
// outcome when it records a history for the consistency checkers.
//
// The Client reaches one replica group through a Conn. cluster.NewClient
// gives it a Conn that calls in-process replicas directly; server.NewClient
// gives it one that speaks the TCP protocol and maps every wire status
// back to the error the replica would have returned in-process. The same
// policy therefore runs under the simulator (where chaos checks it) and
// against rexd.
//
// A Client is single-caller and lock-free: it owns its sequence numbers,
// session and retry state, which keeps it deterministic under the
// simulator. Callers sharing one across goroutines serialize it
// themselves (server.Client holds a mutex at its API).
package client

import (
	"context"
	"errors"
	"fmt"
	"time"

	"rex/internal/core"
	"rex/internal/overload"
	"rex/internal/readpath"
	"rex/internal/retry"
)

// Conn reaches the replicas of one group, indexed 0..Replicas()-1. Each
// call returns the response, the session token covering it, and the
// replica's typed error: core.ErrNotPrimary, core.ErrStaleSeq,
// core.ErrStopped, an overload.Shed, overload.ErrDeadlineExceeded, a
// readpath routing error, ErrUnavailable when the replica could not be
// reached at all, or an error wrapping ErrPermanent.
type Conn interface {
	// Replicas returns the number of replica slots.
	Replicas() int
	// Submit runs one replicated request on replica i. budget is the
	// caller's remaining deadline, 0 for none.
	Submit(i int, client, seq uint64, body []byte, budget time.Duration) ([]byte, readpath.Token, error)
	// Query runs a read at level on replica i, presenting tok.
	Query(i int, level readpath.Level, tok readpath.Token, q []byte) ([]byte, readpath.Token, error)
}

// Clock is the time source retries sleep on; env.Env satisfies it, so a
// Client paces in virtual time inside the simulator.
type Clock interface {
	Now() time.Duration
	Sleep(d time.Duration)
}

type realClock struct{ base time.Time }

func (c realClock) Now() time.Duration    { return time.Since(c.base) }
func (c realClock) Sleep(d time.Duration) { time.Sleep(d) }

// RealClock returns a wall-clock Clock.
func RealClock() Clock { return realClock{base: time.Now()} }

var (
	// ErrPermanent marks failures no retry against this target can fix: a
	// stale sequence number, a group the server does not host, a request
	// too large to frame. A rebalance-aware router treats it as "refetch
	// the map and reroute".
	ErrPermanent = errors.New("client: permanent failure")

	// ErrUnavailable reports a replica that could not be reached (down,
	// or its address refused the connection). The request never left the
	// client, so it did not execute.
	ErrUnavailable = errors.New("client: replica unavailable")

	// ErrTimeout reports a request abandoned at its deadline. The outcome
	// is unknown unless every attempt was a definite NACK.
	ErrTimeout = errors.New("client: request timed out")

	// ErrTooManyAttempts reports a request abandoned after MaxAttempts
	// redirects/retries. The outcome is unknown (like a timeout).
	ErrTooManyAttempts = errors.New("client: too many attempts")

	// ErrRetryBudget reports a request abandoned because the retry budget
	// ran dry: the group is failing faster than it is succeeding, and more
	// retries would only feed the overload.
	ErrRetryBudget = fmt.Errorf("client: %w", retry.ErrBudgetExhausted)
)

var errNoReplicas = fmt.Errorf("%w: no replicas", ErrPermanent)

// DefaultMaxAttempts bounds one call's redirect-and-retry loop. With the
// backoff schedule below it gives a few seconds of retries — plenty for
// any election — so a request that still cannot land fails with
// ErrTooManyAttempts instead of spinning until the deadline.
const DefaultMaxAttempts = 256

// DefaultTimeout bounds a call whose caller set no deadline.
const DefaultTimeout = 30 * time.Second

// Retry pacing: exponential backoff from 1ms, jittered in [b/2, b], capped
// so a long outage is probed every ~25ms; a server retry-after hint is
// honored up to maxPause.
const (
	minRetryBackoff = time.Millisecond
	maxRetryBackoff = 25 * time.Millisecond
	maxPause        = 50 * time.Millisecond
)

// Retry budget: a token bucket refilled by successes. Only retries after a
// shed spend a token — they re-offer load to a server that just refused it
// for lack of capacity. Every success earns back RetryBudgetRatio. The
// bucket starts full, so cold-start elections and short outages ride
// through; with ratio 0.5 steady-state shed retries are capped at 50% of
// goodput.
const (
	RetryBudgetRatio = 0.5
	RetryBudgetBurst = 64
)

// Client submits writes and leveled reads to one replica group.
type Client struct {
	ID   uint64
	Conn Conn
	// Target is the replica tried first: the believed primary.
	Target int
	// MaxAttempts caps redirects/retries per call; 0 means
	// DefaultMaxAttempts.
	MaxAttempts int
	// Recorder, when set, observes every write and every linearizable
	// read for the consistency checker.
	Recorder Recorder
	// Shed counts attempts NACKed by admission control.
	Shed uint64
	// BudgetExhausted counts calls abandoned on a dry retry budget.
	BudgetExhausted uint64

	pace   *Pacer
	seq    uint64
	sess   readpath.SessionState
	readRR int
}

// New returns a client with the given unique id over conn. The backoff
// seed derives from the id: deterministic under the simulator,
// decorrelated across clients.
func New(id uint64, conn Conn, clock Clock) *Client {
	return &Client{
		ID:   id,
		Conn: conn,
		pace: NewPacer(clock, int64(id)*0x9e3779b9+0x7f4a7c15, minRetryBackoff, maxRetryBackoff, RetryBudgetRatio, RetryBudgetBurst),
	}
}

// Do submits one request, retrying across failovers until a response
// arrives, DefaultTimeout passes, or the attempt budget runs out.
func (c *Client) Do(body []byte) ([]byte, error) {
	return c.submit(context.Background(), body, DefaultTimeout, false)
}

// DoTimeout is Do with an explicit deadline, which also rides with every
// attempt so the primary can refuse work that could no longer be answered
// in time.
func (c *Client) DoTimeout(body []byte, timeout time.Duration) ([]byte, error) {
	return c.submit(context.Background(), body, timeout, true)
}

// DoCtx is Do honoring ctx: cancellation aborts the retry loop between
// attempts (an attempt in flight runs to completion, its outcome then
// unknown), and a ctx deadline bounds the call like DoTimeout's.
func (c *Client) DoCtx(ctx context.Context, body []byte) ([]byte, error) {
	if dl, ok := ctx.Deadline(); ok {
		return c.submit(ctx, body, time.Until(dl), true)
	}
	return c.submit(ctx, body, DefaultTimeout, false)
}

func (c *Client) maxAttempts() int {
	if c.MaxAttempts > 0 {
		return c.MaxAttempts
	}
	return DefaultMaxAttempts
}

// submit is the one write retry/redirect loop. bounded reports that the
// caller set the timeout, so the remaining time is propagated.
func (c *Client) submit(ctx context.Context, body []byte, timeout time.Duration, bounded bool) ([]byte, error) {
	if c.Conn.Replicas() == 0 {
		return nil, errNoReplicas
	}
	c.seq++
	seq := c.seq
	op := Record(c.Recorder, c.ID, body)
	deadline := c.pace.Now() + timeout
	target := c.Target
	c.pace.Reset()
	// definite stays true while every attempt was answered with a
	// did-not-execute NACK; on final failure the op is then discarded from
	// the history instead of haunting the checker as maybe-executes-anytime.
	definite := true
	// chargeRetry marks the next attempt as budget-consuming: only a shed
	// is overload. A down replica, a redirect or a crashed-mid-request
	// ErrStopped is fault churn, already bounded by the deadline; charging
	// it would let an election or restart storm drain the budget.
	chargeRetry := false
	for attempts := 0; ; attempts++ {
		now := c.pace.Now()
		if now >= deadline {
			op.Fail(definite)
			return nil, fmt.Errorf("%w after %v", ErrTimeout, timeout)
		}
		if err := ctx.Err(); err != nil {
			op.Fail(definite)
			return nil, err
		}
		if attempts >= c.maxAttempts() {
			op.Fail(definite)
			return nil, fmt.Errorf("%w: gave up after %d attempts", ErrTooManyAttempts, attempts)
		}
		if chargeRetry && !c.pace.Spend() {
			c.BudgetExhausted++
			op.Fail(definite)
			return nil, fmt.Errorf("%w: after %d attempts", ErrRetryBudget, attempts)
		}
		chargeRetry = false
		var budget time.Duration
		if bounded {
			budget = deadline - now
		}
		n := c.Conn.Replicas()
		resp, tok, err := c.Conn.Submit(target%n, c.ID, seq, body, budget)
		if err == nil {
			c.pace.Earn()
			c.Target = target % n
			c.sess.Observe(tok)
			op.Return(resp)
			return resp, nil
		}
		switch classify(err) {
		case redirect:
			target = c.follow(err, target)
		case unreachable:
			target++
		case shed:
			// Overload is not a routing problem: retry the same target
			// after the hint, and make the retry spend budget.
			c.Shed++
			chargeRetry = true
			c.pace.Pause(overload.RetryAfter(err))
			continue
		case expired:
			op.Fail(definite)
			return nil, err
		case transient, primaryOnly:
			// The submit may have been admitted before the failure.
			definite = false
			target++
		default:
			// An earlier admitted attempt may be exactly what moved a
			// stale sequence number, so the outcome is unknown.
			op.Fail(false)
			return nil, permanentErr(err)
		}
		c.pace.Backoff()
	}
}

// follow takes a not-primary NACK's leader hint: a fresh hint is
// authoritative, so the backoff restarts and the redirect is followed
// promptly; without one the next replica is tried.
func (c *Client) follow(err error, target int) int {
	var np core.ErrNotPrimary
	if errors.As(err, &np) && np.Leader >= 0 {
		c.pace.Reset()
		return np.Leader
	}
	return target + 1
}

// QueryLevel runs a read at the given consistency level. Linearizable
// reads chase the primary and are recorded like writes (they claim a
// linearization point). Session and eventual reads rotate over the likely
// secondaries, falling back to the primary when the query is classified
// primary-only; session reads carry and refresh the session token.
func (c *Client) QueryLevel(level readpath.Level, q []byte) ([]byte, error) {
	return c.query(context.Background(), level, q, DefaultTimeout)
}

// QueryLevelTimeout is QueryLevel with an explicit deadline.
func (c *Client) QueryLevelTimeout(level readpath.Level, q []byte, timeout time.Duration) ([]byte, error) {
	return c.query(context.Background(), level, q, timeout)
}

// QueryLevelCtx is QueryLevel honoring ctx between attempts.
func (c *Client) QueryLevelCtx(ctx context.Context, level readpath.Level, q []byte) ([]byte, error) {
	timeout := DefaultTimeout
	if dl, ok := ctx.Deadline(); ok {
		timeout = time.Until(dl)
	}
	return c.query(ctx, level, q, timeout)
}

// query is the one leveled-read retry/redirect loop.
func (c *Client) query(ctx context.Context, level readpath.Level, q []byte, timeout time.Duration) ([]byte, error) {
	if !level.Valid() {
		return nil, fmt.Errorf("%w: invalid consistency level %d", ErrPermanent, uint8(level))
	}
	if c.Conn.Replicas() == 0 {
		return nil, errNoReplicas
	}
	lin := level == readpath.Linearizable
	// A failed read is always discarded: it mutated nothing and the caller
	// never saw a response, so dropping it cannot invalidate any other
	// op's linearization.
	var op Op
	if lin {
		op = Record(c.Recorder, c.ID, q)
	}
	deadline := c.pace.Now() + timeout
	toPrimary := lin
	c.pace.Reset()
	var lastErr error
	for attempts := 0; c.pace.Now() < deadline && attempts < c.maxAttempts(); attempts++ {
		if err := ctx.Err(); err != nil {
			op.Fail(true)
			return nil, err
		}
		n := c.Conn.Replicas()
		i := c.Target % n
		if !toPrimary {
			c.readRR++
			i = (c.Target + 1 + c.readRR) % n
		}
		var tok readpath.Token
		if level == readpath.Session {
			tok = c.sess.Token()
		}
		resp, newTok, err := c.Conn.Query(i, level, tok, q)
		if err == nil {
			c.sess.Observe(newTok)
			if lin {
				c.Target = i
			}
			op.Return(resp)
			return resp, nil
		}
		lastErr = err
		switch classify(err) {
		case redirect:
			c.Target = c.follow(err, c.Target) % n
			toPrimary = true
		case primaryOnly:
			// Stop probing secondaries: the primary serves any level.
			toPrimary = true
		case shed:
			// A weak read may still find capacity on another secondary, so
			// keep rotating.
			c.Shed++
			c.pace.Pause(overload.RetryAfter(err))
			continue
		case unreachable, transient:
			// Another replica, or the next election's winner, can serve it.
		default:
			op.Fail(true)
			return nil, permanentErr(err)
		}
		c.pace.Backoff()
	}
	op.Fail(true)
	if lastErr == nil {
		lastErr = errors.New("client: no replica served the read")
	}
	return nil, fmt.Errorf("client: read failed after retries: %w", lastErr)
}

// permanentErr marks err as one no retry against this target can fix.
func permanentErr(err error) error {
	if errors.Is(err, ErrPermanent) {
		return err
	}
	return fmt.Errorf("%w: %w", ErrPermanent, err)
}

// verdict is how a retry loop treats one failed attempt.
type verdict int

const (
	// redirect: not the primary; follow the leader hint. Definite NACK.
	redirect verdict = iota
	// unreachable: the request never reached the replica. Definite.
	unreachable
	// shed: refused before admission; honor the retry-after hint. Definite.
	shed
	// primaryOnly: a weak read this secondary may not serve. Definite.
	primaryOnly
	// expired: the propagated deadline ran out before admission. Definite,
	// and no retry can beat a deadline that has passed.
	expired
	// transient: stopped or demoted mid-request, or a read wait that timed
	// out; another replica can serve it. A write's outcome is unknown.
	transient
	// permanent: no retry can help (a stale sequence number, anything the
	// protocol does not classify).
	permanent
)

// classify is the one classification of a replica's error, shared by the
// write and read loops whatever the Conn.
func classify(err error) verdict {
	var np core.ErrNotPrimary
	switch {
	case errors.As(err, &np):
		return redirect
	case errors.Is(err, ErrUnavailable):
		return unreachable
	case errors.Is(err, overload.ErrOverloaded):
		return shed
	case errors.Is(err, readpath.ErrPrimaryOnly):
		return primaryOnly
	case errors.Is(err, overload.ErrDeadlineExceeded):
		return expired
	case errors.Is(err, core.ErrStopped),
		errors.Is(err, readpath.ErrFrontierWait),
		errors.Is(err, readpath.ErrLeaseWait):
		return transient
	}
	return permanent
}
