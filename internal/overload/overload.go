// Package overload holds the pieces of Rex's overload-protection layer
// that are shared between the core replica, the TCP server, and the
// clients: the typed shed/deadline errors that cross the wire, the
// CoDel-style admission controller that decides *when* to shed, and
// the encoding of the optional request-deadline wire field.
//
// Design summary (DESIGN.md "Overload & admission control"):
//
//   - Requests queue in exactly one place — the primary's admission
//     gate, ahead of trace recording. Once a request is admitted into
//     the trace it must execute (replay correctness), so all shedding
//     happens at admission.
//   - The controller watches the sojourn time of completed requests
//     (admission → release). When the sojourn floor stays above Target
//     for a full Interval the gate starts shedding arrivals that would
//     otherwise wait, at CoDel's increasing rate (interval/sqrt(n)),
//     until a sojourn below Target is seen again.
//   - Sheds carry a retry-after hint so budget-limited clients back off
//     by the controller's own estimate instead of guessing.
package overload

import (
	"errors"
	"fmt"
	"math"
	"time"

	"rex/internal/wire"
)

// ErrOverloaded is the sentinel for load-shed NACKs. Concrete errors
// are usually Shed values carrying a retry-after hint; match with
// errors.Is(err, ErrOverloaded). The message is part of the wire
// contract (stable-string matching across the TCP boundary) — keep it
// stable.
var ErrOverloaded = errors.New("overloaded: retry later")

// ErrDeadlineExceeded is returned when a request's propagated deadline
// expired before it was admitted for execution. It is only ever
// produced ahead of trace admission, so the request provably did not
// and will not execute. Keep the message stable (wire contract).
var ErrDeadlineExceeded = errors.New("deadline exceeded before execution")

// Shed is a load-shed NACK with a retry-after hint. It matches
// ErrOverloaded under errors.Is.
type Shed struct {
	// RetryAfter is the server's estimate of when capacity may free up.
	// Zero means "no estimate"; clients fall back to their own backoff.
	RetryAfter time.Duration
}

func (s Shed) Error() string { return ErrOverloaded.Error() }

// Is makes errors.Is(err, ErrOverloaded) succeed for Shed values.
func (s Shed) Is(target error) bool { return target == ErrOverloaded }

// RetryAfter extracts the retry-after hint from an error chain, or 0.
func RetryAfter(err error) time.Duration {
	var s Shed
	if errors.As(err, &s) {
		return s.RetryAfter
	}
	return 0
}

// Pressure levels reported by the controller, driving graceful
// degradation by consistency level (weakest reads shed first, writes
// protected last).
const (
	// PressureNone: no degradation; everything is served.
	PressureNone = 0
	// PressureElevated: the controller is in its dropping state.
	// Session/eventual reads are shed with a retry-after hint and
	// linearizable reads stop falling back to the consensus barrier
	// (lease-only or shed) — writes are still admitted normally.
	PressureElevated = 1
	// PressureCritical: the gate has a deep standing queue. All reads
	// are shed; writes are shed at the controller's drop rate.
	PressureCritical = 2
)

// Config parameterizes a Controller.
type Config struct {
	// Target is the acceptable sojourn (admission → response release)
	// floor. It must sit above the normal commit latency — the point is
	// to detect a standing queue, not ordinary consensus time.
	Target time.Duration
	// Interval is the CoDel control interval: how long the sojourn
	// floor must exceed Target before shedding starts.
	Interval time.Duration
}

// Controller is a CoDel-style admission controller. It is not safe for
// concurrent use: the owning replica calls it under its own mutex,
// which also keeps it deterministic under the simulator.
//
// State machine: sojourn observations below Target reset everything.
// When observations stay above Target continuously for Interval, the
// controller enters its dropping state and schedules sheds at
// Interval/sqrt(count) spacing — the classic CoDel control law — until
// a below-target sojourn appears.
type Controller struct {
	cfg Config

	firstAbove time.Duration // when sojourns first went above target (0 = none)
	dropping   bool
	dropNext   time.Duration // next scheduled shed while dropping
	count      int           // sheds this dropping episode
}

// NewController returns a controller with cfg, applying defaults for
// zero fields (Target 25ms, Interval 100ms).
func NewController(cfg Config) *Controller {
	if cfg.Target <= 0 {
		cfg.Target = 25 * time.Millisecond
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 100 * time.Millisecond
	}
	return &Controller{cfg: cfg}
}

// Target returns the sojourn target in force.
func (c *Controller) Target() time.Duration { return c.cfg.Target }

// OnSojourn feeds one completed request's sojourn time at (virtual)
// time now.
func (c *Controller) OnSojourn(now, sojourn time.Duration) {
	if sojourn < c.cfg.Target {
		c.firstAbove = 0
		c.dropping = false
		c.count = 0
		return
	}
	if c.firstAbove == 0 {
		// Above target: arm. Shedding starts only if we stay above
		// target for a full interval.
		c.firstAbove = now + c.cfg.Interval
		return
	}
	if !c.dropping && now >= c.firstAbove {
		c.dropping = true
		c.count = 0
		c.dropNext = now
	}
}

// Dropping reports whether the controller is in its dropping state.
func (c *Controller) Dropping() bool { return c.dropping }

// ShouldShed is consulted for an arrival that would otherwise have to
// wait at a full admission gate. While dropping, it sheds at the CoDel
// rate; otherwise the arrival should wait.
func (c *Controller) ShouldShed(now time.Duration) bool {
	if !c.dropping {
		return false
	}
	if now < c.dropNext {
		return false
	}
	c.count++
	c.dropNext = now + time.Duration(float64(c.cfg.Interval)/math.Sqrt(float64(c.count)))
	return true
}

// RetryAfter is the hint attached to sheds: the current inter-shed
// spacing, i.e. roughly when the controller expects to re-evaluate.
func (c *Controller) RetryAfter() time.Duration {
	if c.count < 1 {
		return c.cfg.Interval
	}
	return time.Duration(float64(c.cfg.Interval) / math.Sqrt(float64(c.count)))
}

// Pressure maps controller state to a degradation level. The caller
// may escalate further (e.g. on queue depth).
func (c *Controller) Pressure() int {
	if !c.dropping {
		return PressureNone
	}
	if c.count >= 8 {
		return PressureCritical
	}
	return PressureElevated
}

// --- Wire deadline field ---

// MaxWireDeadline caps the deadline budget a frame may carry. Anything
// larger is rejected as corrupt: a garbage trailing field must produce
// an error, not an absurd deadline.
const MaxWireDeadline = time.Hour

// AppendWireDeadline appends the optional trailing deadline field to a
// request frame: the remaining budget in milliseconds as a uvarint. A
// non-positive budget appends nothing (meaning "no deadline"); since a
// zero encoded budget would be indistinguishable from garbage, budgets
// under 1ms round up to 1ms.
func AppendWireDeadline(e *wire.Encoder, budget time.Duration) {
	if budget <= 0 {
		return
	}
	if budget > MaxWireDeadline {
		budget = MaxWireDeadline
	}
	ms := uint64(budget / time.Millisecond)
	if ms == 0 {
		ms = 1
	}
	e.Uvarint(ms)
}

// DecodeWireDeadline reads the optional trailing deadline field. It
// returns 0 when the frame carries none, the remaining
// budget otherwise, and an error for truncated, oversized, or
// otherwise garbage trailers.
func DecodeWireDeadline(d *wire.Decoder) (time.Duration, error) {
	if d.Err() != nil {
		return 0, d.Err()
	}
	if d.Remaining() == 0 {
		return 0, nil
	}
	ms := d.Uvarint()
	if err := d.Err(); err != nil {
		return 0, fmt.Errorf("deadline field: %w", err)
	}
	if ms == 0 || ms > uint64(MaxWireDeadline/time.Millisecond) {
		return 0, fmt.Errorf("deadline field %dms out of range: %w", ms, wire.ErrCorrupt)
	}
	if d.Remaining() != 0 {
		// Unknown extra trailer bytes: reject rather than silently
		// dropping what a future protocol version considers meaningful.
		return 0, fmt.Errorf("trailing bytes after deadline field: %w", wire.ErrCorrupt)
	}
	return time.Duration(ms) * time.Millisecond, nil
}
