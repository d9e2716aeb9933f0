package server

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"rex/internal/apps/hashdb"
	"rex/internal/client"
	"rex/internal/core"
	"rex/internal/overload"
	"rex/internal/readpath"
)

// replicaErrors is every typed error a replica returns to a submit or a
// read, plus an untyped refusal.
var replicaErrors = []error{
	core.ErrNotPrimary{Leader: 2},
	core.ErrNotPrimary{Leader: -1},
	core.ErrStaleSeq,
	core.ErrStopped,
	core.ErrReconfigInFlight,
	overload.Shed{RetryAfter: 3 * time.Millisecond},
	overload.Shed{RetryAfter: 1500 * time.Microsecond},
	overload.Shed{},
	overload.ErrDeadlineExceeded,
	readpath.ErrPrimaryOnly,
	readpath.ErrFrontierWait,
	readpath.ErrLeaseWait,
	fmt.Errorf("rex: session token for group 1 presented to group 0"),
}

// sentinels are the errors callers match with errors.Is.
var sentinels = []error{
	core.ErrStaleSeq, core.ErrStopped, core.ErrReconfigInFlight,
	overload.ErrOverloaded, overload.ErrDeadlineExceeded,
	readpath.ErrPrimaryOnly, readpath.ErrFrontierWait, readpath.ErrLeaseWait,
	client.ErrPermanent, client.ErrTooManyAttempts, client.ErrRetryBudget, client.ErrTimeout,
}

// scriptConn answers its first attempt with err and every later one
// with success.
type scriptConn struct {
	err   error
	calls []int
}

func (s *scriptConn) Replicas() int { return 3 }

func (s *scriptConn) answer(i int) ([]byte, readpath.Token, error) {
	s.calls = append(s.calls, i)
	if len(s.calls) == 1 {
		return nil, readpath.Token{}, s.err
	}
	return []byte("ok"), readpath.Token{}, nil
}

func (s *scriptConn) Submit(i int, _, _ uint64, _ []byte, _ time.Duration) ([]byte, readpath.Token, error) {
	return s.answer(i)
}

func (s *scriptConn) Query(i int, _ readpath.Level, _ readpath.Token, _ []byte) ([]byte, readpath.Token, error) {
	return s.answer(i)
}

type sleepClock struct {
	now   time.Duration
	slept []time.Duration
}

func (c *sleepClock) Now() time.Duration    { return c.now }
func (c *sleepClock) Sleep(d time.Duration) { c.slept = append(c.slept, d); c.now += d }

// coreRun is what the client core did with one scripted error.
type coreRun struct {
	calls []int
	slept []time.Duration
	err   error
	shed  uint64
}

func runCore(err error, op func(*client.Client) error) coreRun {
	conn := &scriptConn{err: err}
	clock := &sleepClock{}
	c := client.New(7, conn, clock)
	c.MaxAttempts = 2
	res := op(c)
	return coreRun{calls: conn.calls, slept: clock.slept, err: res, shed: c.Shed}
}

// sameErr reports how a and b differ under errors.Is/As; RetryAfter
// hints may differ by the wire's 1ms rounding.
func sameErr(a, b error, withPermanent bool) string {
	for _, s := range sentinels {
		if s == client.ErrPermanent && !withPermanent {
			continue
		}
		if errors.Is(a, s) != errors.Is(b, s) {
			return fmt.Sprintf("errors.Is(%v) differs", s)
		}
	}
	var npA, npB core.ErrNotPrimary
	if errors.As(a, &npA) != errors.As(b, &npB) || npA != npB {
		return fmt.Sprintf("not-primary differs: %+v vs %+v", npA, npB)
	}
	if d := overload.RetryAfter(a) - overload.RetryAfter(b); d < -time.Millisecond || d > time.Millisecond {
		return fmt.Sprintf("retry-after differs: %v vs %v", overload.RetryAfter(a), overload.RetryAfter(b))
	}
	return ""
}

// TestWireErrorsClassifyLikeInProcess is the conformance test between
// the two Conns: every replica error, taken through the server's
// error→status mapping and the TCP Conn's inverse, must drive the client
// core exactly as the in-process error does.
func TestWireErrorsClassifyLikeInProcess(t *testing.T) {
	ops := map[string]func(*client.Client) error{
		"write": func(c *client.Client) error { _, err := c.Do([]byte("w")); return err },
		"linearizable read": func(c *client.Client) error {
			_, err := c.QueryLevel(readpath.Linearizable, []byte("r"))
			return err
		},
		"eventual read": func(c *client.Client) error {
			_, err := c.QueryLevel(readpath.Eventual, []byte("r"))
			return err
		},
	}
	for _, inProc := range replicaErrors {
		overWire := statusErr(errStatus(inProc))
		if diff := sameErr(inProc, overWire, false); diff != "" {
			t.Errorf("%v crosses the wire as %v: %s", inProc, overWire, diff)
		}
		for name, op := range ops {
			a, b := runCore(inProc, op), runCore(overWire, op)
			if diff := sameErr(a.err, b.err, true); diff != "" {
				t.Errorf("%s after %v: core returned %v in-process, %v over the wire: %s", name, inProc, a.err, b.err, diff)
			}
			if !reflect.DeepEqual(a.calls, b.calls) || a.shed != b.shed {
				t.Errorf("%s after %v: attempts %v (shed %d) in-process, %v (shed %d) over the wire",
					name, inProc, a.calls, a.shed, b.calls, b.shed)
			}
			if len(a.slept) != len(b.slept) {
				t.Errorf("%s after %v: slept %v in-process, %v over the wire", name, inProc, a.slept, b.slept)
				continue
			}
			for k := range a.slept {
				if d := a.slept[k] - b.slept[k]; d < -time.Millisecond || d > time.Millisecond {
					t.Errorf("%s after %v: slept %v in-process, %v over the wire", name, inProc, a.slept, b.slept)
				}
			}
		}
	}
}

// TestTCPClientRidesThroughFailover stops the primary's replica and
// server while a client keeps writing: every write must succeed once a
// new primary is elected, or fail with a typed error — never give up
// inside the election.
func TestTCPClientRidesThroughFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time TCP cluster test")
	}
	g, primary := startTCPGroup(t)
	// The primary stops from another goroutine while the loop writes, so
	// a write is likely in flight on it.
	killed := make(chan struct{})
	defer func() { <-killed }()
	cl := NewClient(77, g.clientAddrs)
	defer cl.Close()
	const writes, killAt = 60, 20
	okAfter := 0
	for k := 0; k < writes; k++ {
		if k == killAt {
			go func() {
				g.servers[primary].Close()
				g.replicas[primary].Stop()
				close(killed)
			}()
		}
		_, err := cl.Do(hashdb.SetReq(fmt.Sprintf("fo-%d", k), []byte("v")))
		if err == nil {
			if k > killAt {
				okAfter++
			}
			continue
		}
		if strings.Contains(err.Error(), "no replica accepted") {
			t.Errorf("write %d gave up inside the election: %v", k, err)
			continue
		}
		typed := false
		for _, s := range sentinels {
			typed = typed || errors.Is(err, s)
		}
		if !typed {
			t.Errorf("write %d failed with an untyped error: %v", k, err)
		}
	}
	if okAfter == 0 {
		t.Error("no write succeeded after the primary stopped")
	}
}
