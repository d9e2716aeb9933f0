package client_test

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"rex/internal/client"
	"rex/internal/core"
	"rex/internal/overload"
	"rex/internal/readpath"
	"rex/internal/shard"
)

// reply is one scripted answer of a fake replica: an error, or a success
// carrying resp (nil means "ok").
type reply struct {
	err  error
	resp []byte
}

// call names the (group, replica) an attempt reached.
type call struct{ g, i int }

// fakeConn is a scripted client.Conn: each attempt, on any replica, takes
// the next reply; an exhausted script answers success.
type fakeConn struct {
	g      int
	script []reply
	log    *[]call
}

func (f *fakeConn) Replicas() int { return 3 }

func (f *fakeConn) next(i int) ([]byte, readpath.Token, error) {
	*f.log = append(*f.log, call{f.g, i})
	r := reply{resp: []byte("ok")}
	if len(f.script) > 0 {
		r, f.script = f.script[0], f.script[1:]
	}
	if r.err != nil {
		return nil, readpath.Token{}, r.err
	}
	if r.resp == nil {
		r.resp = []byte("ok")
	}
	return r.resp, readpath.Token{Applied: uint64(len(*f.log))}, nil
}

func (f *fakeConn) Submit(i int, _, _ uint64, _ []byte, _ time.Duration) ([]byte, readpath.Token, error) {
	return f.next(i)
}

func (f *fakeConn) Query(i int, _ readpath.Level, _ readpath.Token, _ []byte) ([]byte, readpath.Token, error) {
	return f.next(i)
}

// fakeClock advances only when slept on.
type fakeClock struct {
	now   time.Duration
	slept []time.Duration
}

func (c *fakeClock) Now() time.Duration { return c.now }
func (c *fakeClock) Sleep(d time.Duration) {
	c.slept = append(c.slept, d)
	c.now += d
}

// recorder keeps the outcome of the one operation a case runs.
type recorder struct{ outcome string }

func (r *recorder) Invoke(uint64, []byte) uint64 { r.outcome = "open"; return 0 }
func (r *recorder) Return(uint64, []byte)        { r.outcome = "return" }
func (r *recorder) Timeout(uint64)               { r.outcome = "timeout" }
func (r *recorder) Discard(uint64)               { r.outcome = "discard" }

// harness is one case's world: a client per group over scripted conns
// and, for two groups, an enveloped router over them.
type harness struct {
	clients []*client.Client
	router  *shard.Router
	clock   *fakeClock
	fetches int
}

// Router fixtures: a two-group map whose range holding routeKey is owned
// by group ga; the refetched map hands that range to gb.
var (
	routeKey = []byte("route-key")
	ga, gb   int
	mapV1    *shard.ShardMap
	mapV2    *shard.ShardMap
)

func init() {
	m, err := shard.NewShardMap(1, 2, 2, 1)
	if err != nil {
		panic(err)
	}
	m.EnsureRanges()
	idx := m.RangeIndexFor(shard.HashKey(routeKey))
	ga = m.Ranges[idx].Group
	gb = 1 - ga
	mapV1 = m
	mapV2 = m.Clone()
	mapV2.Version = 2
	mapV2.Ranges[idx].Group = gb
	mapV2.Ranges[idx].Epoch = 2
}

func nack(status byte, version uint64) reply { return reply{resp: shard.NackReply(status, version)} }

func shed(ra time.Duration) reply { return reply{err: overload.Shed{RetryAfter: ra}} }

func repeat(r reply, n int) []reply {
	out := make([]reply, n)
	for i := range out {
		out[i] = r
	}
	return out
}

func write(h *harness) ([]byte, error) { return h.clients[0].Do([]byte("w")) }

func read(level readpath.Level) func(h *harness) ([]byte, error) {
	return func(h *harness) ([]byte, error) { return h.clients[0].QueryLevel(level, []byte("r")) }
}

func routed(h *harness) ([]byte, error) { return h.router.Do(routeKey, []byte("w")) }

// TestClientCore drives the one client state machine (and the router on
// top of it) over scripted Conns: every retry decision the chaos runs and
// TCP users depend on, one row each.
func TestClientCore(t *testing.T) {
	notPrimary := func(leader int) reply { return reply{err: core.ErrNotPrimary{Leader: leader}} }
	stopped := reply{err: core.ErrStopped}
	cases := []struct {
		name        string
		groups      [][]reply // scripts, one per group; two groups add a router
		maxAttempts int
		op          func(h *harness) ([]byte, error)
		wantCalls   []call
		wantResp    string
		wantIs      []error // the returned error matches each
		wantOutcome string
		wantDry     uint64 // calls abandoned on a dry retry budget
		wantFetches int
	}{
		{
			name:        "redirect follows the leader hint",
			groups:      [][]reply{{notPrimary(2)}},
			op:          write,
			wantCalls:   []call{{0, 0}, {0, 2}},
			wantResp:    "ok",
			wantOutcome: "return",
		},
		{
			name:        "redirect without a hint tries the next replica",
			groups:      [][]reply{{notPrimary(-1)}},
			op:          write,
			wantCalls:   []call{{0, 0}, {0, 1}},
			wantResp:    "ok",
			wantOutcome: "return",
		},
		{
			name:        "stale sequence number is permanent and recorded unknown",
			groups:      [][]reply{{{err: core.ErrStaleSeq}}},
			op:          write,
			wantCalls:   []call{{0, 0}},
			wantIs:      []error{client.ErrPermanent, core.ErrStaleSeq},
			wantOutcome: "timeout",
		},
		{
			name:        "all-definite NACKs are discarded",
			groups:      [][]reply{{notPrimary(-1), {err: client.ErrUnavailable}, notPrimary(-1)}},
			maxAttempts: 3,
			op:          write,
			wantCalls:   []call{{0, 0}, {0, 1}, {0, 2}},
			wantIs:      []error{client.ErrTooManyAttempts},
			wantOutcome: "discard",
		},
		{
			name:        "an expired deadline after a shed is discarded",
			groups:      [][]reply{{shed(time.Millisecond), {err: overload.ErrDeadlineExceeded}}},
			op:          write,
			wantCalls:   []call{{0, 0}, {0, 0}},
			wantIs:      []error{overload.ErrDeadlineExceeded},
			wantOutcome: "discard",
		},
		{
			name:        "a shed retries the same target",
			groups:      [][]reply{{shed(5 * time.Millisecond)}},
			op:          write,
			wantCalls:   []call{{0, 0}, {0, 0}},
			wantResp:    "ok",
			wantOutcome: "return",
		},
		{
			name:        "shed retries spend the budget until it runs dry",
			groups:      [][]reply{repeat(shed(time.Millisecond), 100)},
			op:          write,
			wantCalls:   repeatCall(call{0, 0}, 1+client.RetryBudgetBurst),
			wantIs:      []error{client.ErrRetryBudget},
			wantOutcome: "discard",
			wantDry:     1,
		},
		{
			// More free retries than the budget holds tokens: a restart
			// storm must not drain it.
			name:        "not-primary and stopped retries stay free",
			groups:      [][]reply{append(repeat(stopped, client.RetryBudgetBurst+1), repeat(notPrimary(-1), client.RetryBudgetBurst+1)...)},
			op:          write,
			wantResp:    "ok",
			wantOutcome: "return",
		},
		{
			name:        "a stopped replica leaves the outcome unknown",
			groups:      [][]reply{{stopped, stopped}},
			maxAttempts: 2,
			op:          write,
			wantCalls:   []call{{0, 0}, {0, 1}},
			wantIs:      []error{client.ErrTooManyAttempts},
			wantOutcome: "timeout",
		},
		{
			name:        "primary-only flips a weak read to the primary",
			groups:      [][]reply{{{err: readpath.ErrPrimaryOnly}}},
			op:          read(readpath.Eventual),
			wantCalls:   []call{{0, 2}, {0, 0}},
			wantResp:    "ok",
			wantOutcome: "",
		},
		{
			name:        "a failed linearizable read is discarded",
			groups:      [][]reply{{stopped, {err: errors.New("query refused")}}},
			op:          read(readpath.Linearizable),
			wantCalls:   []call{{0, 0}, {0, 0}},
			wantOutcome: "discard",
		},
		{
			name:        "a linearizable read chases the leader hint",
			groups:      [][]reply{{notPrimary(1)}},
			op:          read(readpath.Linearizable),
			wantCalls:   []call{{0, 0}, {0, 1}},
			wantResp:    "ok",
			wantOutcome: "return",
		},
		{
			name:        "envelope NACK with a newer version refetches and reroutes",
			groups:      groupScripts(map[int][]reply{ga: {nack(shard.ReplyWrongGroup, 2)}, gb: {{resp: shard.OKReply([]byte("moved"))}}}),
			op:          routed,
			wantCalls:   []call{{ga, 0}, {gb, 0}},
			wantResp:    "moved",
			wantOutcome: "return",
			wantFetches: 1,
		},
		{
			name:        "a frozen range is retried on the same group",
			groups:      groupScripts(map[int][]reply{ga: {nack(shard.ReplyFrozen, 1), {resp: shard.OKReply([]byte("thawed"))}}}),
			op:          routed,
			wantCalls:   []call{{ga, 0}, {ga, 0}},
			wantResp:    "thawed",
			wantOutcome: "return",
		},
		{
			name:        "a permanent error on a stale route refetches and reroutes",
			groups:      groupScripts(map[int][]reply{ga: {{err: core.ErrStaleSeq}}, gb: {{resp: shard.OKReply([]byte("moved"))}}}),
			op:          routed,
			wantCalls:   []call{{ga, 0}, {gb, 0}},
			wantResp:    "moved",
			wantOutcome: "return",
			wantFetches: 1,
		},
		{
			name:        "envelope NACKs past the attempt bound are discarded",
			groups:      groupScripts(map[int][]reply{ga: repeat(nack(shard.ReplyStale, 1), 3)}),
			maxAttempts: 3,
			op:          routed,
			wantCalls:   []call{{ga, 0}, {ga, 0}, {ga, 0}},
			wantIs:      []error{shard.ErrMapRetriesExhausted},
			wantOutcome: "discard",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var log []call
			h := &harness{clock: &fakeClock{}}
			rec := &recorder{}
			groups := make([]shard.GroupClient, len(tc.groups))
			for g, script := range tc.groups {
				c := client.New(uint64(10+g), &fakeConn{g: g, script: script, log: &log}, h.clock)
				h.clients = append(h.clients, c)
				groups[g] = c
			}
			if len(groups) == 1 {
				h.clients[0].Recorder = rec
				h.clients[0].MaxAttempts = tc.maxAttempts
			} else {
				r, err := shard.NewRouter(mapV1.Clone(), groups)
				if err != nil {
					t.Fatal(err)
				}
				r.Enveloped = true
				r.Clock = h.clock
				r.Recorder = rec
				r.MaxAttempts = tc.maxAttempts
				r.Fetch = func() (*shard.ShardMap, error) { h.fetches++; return mapV2.Clone(), nil }
				h.router = r
			}

			resp, err := tc.op(h)

			if len(tc.wantIs) == 0 && tc.wantResp != "" && (err != nil || string(resp) != tc.wantResp) {
				t.Fatalf("got %q, %v; want %q", resp, err, tc.wantResp)
			}
			for _, want := range tc.wantIs {
				if !errors.Is(err, want) {
					t.Errorf("error %v does not match %v", err, want)
				}
			}
			if tc.wantCalls != nil && !reflect.DeepEqual(log, tc.wantCalls) {
				t.Errorf("attempts reached %v, want %v", log, tc.wantCalls)
			}
			if rec.outcome != tc.wantOutcome {
				t.Errorf("recorded %q, want %q", rec.outcome, tc.wantOutcome)
			}
			var dry uint64
			for _, c := range h.clients {
				dry += c.BudgetExhausted
			}
			if h.router != nil {
				dry += h.router.BudgetExhausted
			}
			if dry != tc.wantDry {
				t.Errorf("budget ran dry %d times, want %d", dry, tc.wantDry)
			}
			if h.fetches != tc.wantFetches {
				t.Errorf("map fetched %d times, want %d", h.fetches, tc.wantFetches)
			}
		})
	}
}

// TestShedPausesForRetryAfter checks the hint shapes the pause and is
// capped, and that the pause replaces the backoff step.
func TestShedPausesForRetryAfter(t *testing.T) {
	for _, tc := range []struct{ hint, want time.Duration }{
		{7 * time.Millisecond, 7 * time.Millisecond},
		{0, 50 * time.Millisecond},
		{time.Second, 50 * time.Millisecond},
	} {
		var log []call
		clock := &fakeClock{}
		c := client.New(1, &fakeConn{script: []reply{shed(tc.hint)}, log: &log}, clock)
		if _, err := c.Do([]byte("w")); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(clock.slept, []time.Duration{tc.want}) {
			t.Errorf("hint %v: slept %v, want [%v]", tc.hint, clock.slept, tc.want)
		}
		if c.Shed != 1 {
			t.Errorf("hint %v: Shed = %d, want 1", tc.hint, c.Shed)
		}
	}
}

func repeatCall(c call, n int) []call {
	out := make([]call, n)
	for i := range out {
		out[i] = c
	}
	return out
}

// groupScripts lays per-group scripts out in group order.
func groupScripts(byGroup map[int][]reply) [][]reply {
	out := make([][]reply, mapV1.Groups())
	for g, s := range byGroup {
		out[g] = s
	}
	return out
}
