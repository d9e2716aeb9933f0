package chaos

import (
	"fmt"
	"io"
	"math/rand"
	"testing"
	"time"

	"rex/internal/check"
	"rex/internal/cluster"
	"rex/internal/core"
	"rex/internal/env"
	"rex/internal/rexsync"
	"rex/internal/sched"
	"rex/internal/sim"
	"rex/internal/storage"
	"rex/internal/wire"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(42, 3, 3*time.Second)
	b := Generate(42, 3, 3*time.Second)
	if len(a.Steps) == 0 {
		t.Fatal("empty schedule")
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same seed produced different schedules:\n%v\n%v", a, b)
	}
	c := Generate(43, 3, 3*time.Second)
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Fatal("different seeds produced identical schedules")
	}
	for i := 1; i < len(a.Steps); i++ {
		if a.Steps[i].At < a.Steps[i-1].At {
			t.Fatalf("steps out of order at %d: %v", i, a.Steps)
		}
	}
}

func TestScenarioDerivedFromSeed(t *testing.T) {
	if a, b := appFor(7, "all"), appFor(7, ""); a != b {
		t.Fatalf("app not derived from seed alone: %q vs %q", a, b)
	}
	sc, err := Lookup("random")
	if err != nil {
		t.Fatal(err)
	}
	sc.App = "nosuchapp"
	if res := Run(sc, nil, nil); res.OK || len(res.Violations) == 0 {
		t.Fatal("unknown app accepted")
	}
	if _, err := Lookup("random+nosuchentry"); err == nil {
		t.Fatal("unknown entry accepted")
	}
	if _, err := Lookup("shards+rebalance"); err == nil {
		t.Fatal("entries on different topologies composed")
	}
}

func TestFaultLogInjectsFailures(t *testing.T) {
	fl := NewFaultLog(storage.NewMemLog())
	if err := fl.Append([]byte("a")); err != nil {
		t.Fatal(err)
	}
	fl.FailAppends(2)
	for i := 0; i < 2; i++ {
		if err := fl.Append([]byte("b")); err == nil {
			t.Fatalf("armed append %d succeeded", i)
		}
	}
	if err := fl.Append([]byte("c")); err != nil {
		t.Fatalf("append after faults exhausted: %v", err)
	}
	if got := fl.Injected(); got != 2 {
		t.Fatalf("injected = %d, want 2", got)
	}
	fl.FailAppends(5)
	fl.Disarm()
	if err := fl.Append([]byte("d")); err != nil {
		t.Fatalf("append after disarm: %v", err)
	}
	recs, err := fl.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("failed appends reached the log: %d records, want 3", len(recs))
	}
}

// journal is an order-sensitive state machine for the bug-detection test:
// every request appends its tag to one list under a single Rex lock, so a
// replayer that releases events before their causal predecessors can
// interleave the appends differently on each replica.
type journal struct {
	mu      *rexsync.Lock
	entries []string
}

func newJournal() core.Factory {
	return func(rt *sched.Runtime, host *core.TimerHost) core.StateMachine {
		return &journal{mu: rexsync.NewLock(rt, "journal")}
	}
}

func (j *journal) Apply(ctx *core.Ctx, req []byte) []byte {
	w := ctx.Worker()
	// The pre-lock compute varies by request and is long enough that
	// handlers overlap, so the lock sees real contention: the recorded
	// causal edges are then the only thing forcing replay to grant the
	// lock in the primary's order.
	ctx.Compute(time.Duration(1+int(req[len(req)-1])%7) * 300 * time.Microsecond)
	j.mu.Lock(w)
	j.entries = append(j.entries, string(req))
	j.mu.Unlock(w)
	return []byte{1}
}

func (j *journal) WriteCheckpoint(w io.Writer) error {
	e := wire.NewEncoder(nil)
	e.Uvarint(uint64(len(j.entries)))
	for _, s := range j.entries {
		e.BytesVal([]byte(s))
	}
	_, err := w.Write(e.Bytes())
	return err
}

func (j *journal) ReadCheckpoint(r io.Reader) error {
	buf, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	d := wire.NewDecoder(buf)
	n := d.Uvarint()
	j.entries = nil
	for i := uint64(0); i < n; i++ {
		j.entries = append(j.entries, string(d.BytesVal()))
	}
	return d.Err()
}

// runJournalLoad drives a concurrent append workload and returns any
// structural violations found after quiescence. With buggy set, replay
// releases events without waiting for their causal predecessors
// (Options.UnsafeReplayNoEdgeWaits) and the runtime's own divergence
// checks are disabled, leaving detection entirely to the checker.
func runJournalLoad(t *testing.T, seed int64, buggy bool) []string {
	t.Helper()
	e := sim.New(4)
	var violations []string
	e.Run(func() {
		c := cluster.New(e, newJournal(), cluster.Options{
			Replicas:                3,
			Workers:                 2,
			ProposeEvery:            2 * time.Millisecond,
			HeartbeatEvery:          20 * time.Millisecond,
			ElectionTimeout:         100 * time.Millisecond,
			StatusEvery:             20 * time.Millisecond,
			Seed:                    seed,
			DisableChecks:           buggy,
			UnsafeReplayNoEdgeWaits: buggy,
		})
		if err := c.Start(); err != nil {
			violations = append(violations, err.Error())
			return
		}
		if _, err := c.WaitPrimary(5 * time.Second); err != nil {
			violations = append(violations, err.Error())
			return
		}
		clients := env.GoEach(e, "journal-client", 4, func(ci int) {
			cl := c.NewClient(uint64(10 + ci))
			// Seeded think time staggers the clients, so requests reach the
			// primary at different offsets than the batch boundaries replay
			// starts them at.
			rng := rand.New(rand.NewSource(seed + int64(ci)))
			for k := 0; k < 100; k++ {
				if _, err := cl.DoTimeout([]byte(fmt.Sprintf("c%d-n%d", ci, k)), 5*time.Second); err != nil {
					violations = append(violations, fmt.Sprintf("client %d: %v", ci, err))
					return
				}
				e.Sleep(time.Duration(rng.Intn(1000)) * time.Microsecond)
			}
		})
		clients.Wait()
		states, faults, err := c.StableStates(30 * time.Second)
		if err != nil {
			violations = append(violations, err.Error())
			return
		}
		for i, ferr := range faults {
			violations = append(violations, fmt.Sprintf("replica %d faulted: %v", i, ferr))
		}
		violations = append(violations, check.StateAgreement(states)...)
	})
	return violations
}

// TestCheckerCatchesBrokenReplayer proves the consistency checker has
// teeth: an intentionally broken build whose replayer ignores causal
// edges must produce a state-agreement violation, while the same workload
// on the correct build must not.
func TestCheckerCatchesBrokenReplayer(t *testing.T) {
	if v := runJournalLoad(t, 1, false); len(v) != 0 {
		t.Fatalf("correct build reported violations: %v", v)
	}
	for seed := int64(1); seed <= 5; seed++ {
		if v := runJournalLoad(t, seed, true); len(v) != 0 {
			t.Logf("broken replayer caught at seed %d: %v", seed, v[0])
			return
		}
	}
	t.Fatal("broken replayer produced no detectable divergence in 5 seeds")
}
