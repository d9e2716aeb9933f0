package chaos

import (
	"fmt"

	"rex/internal/cluster"
	"rex/internal/core"
	"rex/internal/obs"
)

// Engine applies a Schedule to a running cluster on its virtual clock.
// It is meant to run in its own simulator task, concurrent with the
// client workload.
type Engine struct {
	C      *cluster.Cluster
	Faults []*FaultLog // per-replica WAL wrappers; nil entries disable KindWALFault
	Reg    *obs.Registry
	Logf   func(string, ...any)
}

func (en *Engine) logf(format string, args ...any) {
	if en.Logf != nil {
		en.Logf(format, args...)
	}
}

func (en *Engine) count(name string) {
	if en.Reg != nil {
		en.Reg.CounterOf("chaos_" + name).Inc()
	}
}

// isDown reports whether replica i is crashed or crash-stopped on a
// storage fault.
func (en *Engine) isDown(i int) bool {
	r := en.C.Replica(i)
	return r == nil || r.Role() == core.RoleFaulted
}

func (en *Engine) downCount() int {
	n := 0
	for i := 0; i < en.C.Size(); i++ {
		if en.isDown(i) {
			n++
		}
	}
	return n
}

// Run executes every step at its offset from now. It returns after the
// last step fires.
func (en *Engine) Run(s Schedule) {
	e := en.C.Env
	start := e.Now()
	for _, st := range s.Steps {
		if wake := start + st.At; wake > e.Now() {
			e.Sleep(wake - e.Now())
		}
		en.Apply(st)
	}
}

// Apply executes one step now. Crashes that would reduce the cluster
// below a majority of live replicas are skipped (counted under
// chaos_fault_skipped), so the generator never has to reason about
// global liveness.
func (en *Engine) Apply(st Step) {
	n := en.C.Size()
	switch st.Kind {
	case KindCrashReplica, KindCrashPrimary:
		i := st.I % n
		if st.Kind == KindCrashPrimary {
			if i = en.C.Primary(); i < 0 {
				en.count("fault_skipped")
				return
			}
		}
		if en.isDown(i) || en.downCount() >= (n-1)/2 {
			en.count("fault_skipped")
			return
		}
		en.logf("chaos: crash replica %d (%s)", i, st.Kind)
		en.C.Crash(i)
	case KindRestartAll:
		if err := restartDown(en.C, en.Logf); err != nil {
			en.logf("chaos: restart failed: %v", err)
		}
	case KindPartition:
		i := st.I % n
		en.logf("chaos: partition {%d} | rest", i)
		for j := 0; j < n; j++ {
			if j != i {
				en.C.Net.SetPartition(i, j, true)
				en.C.Net.SetPartition(j, i, true)
			}
		}
	case KindPartitionAsym:
		i, j := st.I%n, st.J%n
		if i == j {
			en.count("fault_skipped")
			return
		}
		en.logf("chaos: cut link %d->%d", i, j)
		en.C.Net.SetPartition(i, j, true)
	case KindHeal:
		en.logf("chaos: heal network")
		en.C.Net.Heal()
	case KindLossBurst:
		en.logf("chaos: loss burst p=%.2f", st.P)
		en.C.Net.SetLoss(st.P)
	case KindDelayBurst:
		i, j := st.I%n, st.J%n
		if i == j {
			en.count("fault_skipped")
			return
		}
		en.logf("chaos: delay burst %d<->%d %v..%v", i, j, st.Min, st.Max)
		en.C.Net.SetDelay(i, j, st.Min, st.Max)
		en.C.Net.SetDelay(j, i, st.Min, st.Max)
	case KindWALFault:
		i := st.I % n
		if en.Faults == nil || en.Faults[i] == nil {
			en.count("fault_skipped")
			return
		}
		en.logf("chaos: arm %d WAL failures on replica %d", st.K, i)
		en.Faults[i].FailAppends(st.K)
	default:
		en.count("fault_skipped")
		return
	}
	en.count("fault_" + st.Kind.String())
}

// restartDown restarts every crashed or faulted replica of c that is
// still a member. A removed identity (crashed, or parked in RoleRemoved)
// must stay out: restarting it would only be refused again.
func restartDown(c *cluster.Cluster, logf func(string, ...any)) error {
	for i := 0; i < c.Size(); i++ {
		if r := c.Replica(i); r != nil && r.Role() == core.RoleFaulted {
			c.Crash(i) // reap the crash-stopped process
		}
		if c.Replica(i) == nil && isMember(c, i) {
			if logf != nil {
				logf("chaos: restart replica %d", i)
			}
			if err := c.Restart(i); err != nil {
				return fmt.Errorf("restart replica %d: %v", i, err)
			}
		}
	}
	return nil
}

// isMember reports whether replica i belongs to the primary's membership
// (true when there is no primary to ask).
func isMember(c *cluster.Cluster, i int) bool {
	p := c.Primary()
	if p < 0 {
		return true
	}
	r := c.Replica(p)
	return r == nil || r.Membership().IsMember(i)
}
