package client

import (
	"time"

	"rex/internal/retry"
)

// Pacer is one caller's retry pacing: a jittered exponential backoff and
// a retry budget (internal/retry), sleeping on a Clock. A Client owns one
// for its group; a shard router owns another for map-driven rerouting.
type Pacer struct {
	clock  Clock
	bo     *retry.Backoff
	budget *retry.Budget
}

// NewPacer returns a pacer backing off over [min, max] with a budget
// earning ratio tokens per success, capped at (and starting full at)
// burst.
func NewPacer(clock Clock, seed int64, min, max time.Duration, ratio, burst float64) *Pacer {
	return &Pacer{clock: clock, bo: retry.NewBackoff(min, max, seed), budget: retry.NewBudget(ratio, burst)}
}

// Backoff sleeps one jittered exponential step.
func (p *Pacer) Backoff() { p.clock.Sleep(p.bo.Next()) }

// Reset restarts the backoff schedule at its minimum.
func (p *Pacer) Reset() { p.bo.Reset() }

// Pause sleeps a server-provided retry-after hint, capped so the hint
// shapes the pause while the retry loop keeps owning the overall policy.
func (p *Pacer) Pause(ra time.Duration) {
	if ra <= 0 || ra > maxPause {
		ra = maxPause
	}
	p.clock.Sleep(ra)
}

// Spend charges one retry against the budget; false means the budget is
// dry and the call must be abandoned.
func (p *Pacer) Spend() bool { return p.budget.Allow() }

// Earn credits the budget for a success.
func (p *Pacer) Earn() { p.budget.Success() }

// Now reads the pacer's clock.
func (p *Pacer) Now() time.Duration { return p.clock.Now() }
