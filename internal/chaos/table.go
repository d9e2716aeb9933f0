package chaos

import (
	"fmt"
	"strings"
	"time"

	"rex/internal/cluster"
)

// table holds every chaos scenario. An entry carries its own defaults;
// Lookup composes entries with "+".
var table = []Scenario{{
	// Random crash/partition/loss/delay/WAL-fault schedules against one of
	// the applications, derived from the seed.
	Name:     "random",
	Duration: 3 * time.Second,
	Workload: []Workload{appLoad},
	Nemeses:  []Nemesis{scheduleNemesis},
	Checks:   Checks{Replay: true},
}, {
	// Kill one group's primary under routed load: the other groups must
	// keep at least half their rate (blast radius) and the victim must
	// re-elect; every group's history stays linearizable.
	Name:     "shards",
	App:      "hashdb",
	Duration: 3 * time.Second,
	Topology: Topology{Groups: 4},
	Workload: []Workload{routedLoad},
	Nemeses:  []Nemesis{groupKill},
	Checks:   Checks{Floors: map[string]int{"kills": 1, "survivorPct": 50}},
}, {
	// Replace, add and remove members under load and partitions.
	Name:     "reconfig",
	Duration: 2 * time.Second,
	Workload: []Workload{appLoad},
	Nemeses:  []Nemesis{reconfigPlan},
}, {
	// Periodic checkpoints off, so the log-growth floor alone bounds the
	// log, under promote/demote churn plus one secondary bounced across a
	// compaction. This used to livelock and then panic in Replayer.Extend;
	// it must end live, in agreement, and through the resync path.
	Name:     "recovery",
	Duration: 4 * time.Second,
	Topology: Topology{Tune: func(o *cluster.Options) {
		o.ElectionTimeout = 120 * time.Millisecond
		o.CheckpointEvery = 0
		o.MaxLogInstances = 48
	}},
	Workload: []Workload{appLoad},
	Nemeses:  []Nemesis{isolateChurn(0x5ec0fe5, span{180, 320}, span{150, 260}, true)},
	Checks:   Checks{Floors: map[string]int{"resyncs": 1}},
}, {
	// Isolate the primary mid-lease, repeatedly: no stale linearizable
	// read, session reads stay read-your-writes and monotonic, and both
	// read fast paths (lease and follower) are exercised.
	Name:     "reads",
	App:      "hashdb",
	Duration: 4 * time.Second,
	Topology: Topology{Tune: func(o *cluster.Options) {
		o.ReadWorkers = 2
		o.ElectionTimeout = 120 * time.Millisecond
		o.ReadWaitTimeout = 300 * time.Millisecond
	}},
	Workload: []Workload{sessionLoad},
	Nemeses:  []Nemesis{isolateChurn(0x6ead5, span{200, 350}, span{280, 450}, false)},
	Checks:   Checks{Floors: map[string]int{"failovers": 1, "leaseReads": 1, "followerReads": 1, "sessionOps": 1}},
}, {
	// Conflict-class elision on, failovers mid-load: promotions must
	// account for carried-over classified requests, and a secondary
	// replaying the elided trace must reconstruct the class edges.
	Name:     "conflicts",
	App:      "hashdb",
	Duration: 4 * time.Second,
	Topology: Topology{Tune: func(o *cluster.Options) {
		o.Workers = 4 // spread conflict classes over several threads
		o.ElectionTimeout = 120 * time.Millisecond
	}},
	Workload: []Workload{conflictLoad},
	Nemeses:  []Nemesis{isolateChurn(0xc0f1, span{250, 450}, span{280, 450}, false)},
	Checks:   Checks{Replay: true, Floors: map[string]int{"failovers": 1, "elided": 1, "sweeps": 1}},
}, {
	// A hot-key storm past admission capacity with a mid-storm primary
	// crash: must shed, keep the primary's queues bounded, stay
	// linearizable (sheds are definite no-executes) and recover.
	Name:     "overload",
	App:      "hashdb",
	Duration: 1500 * time.Millisecond,
	Topology: Topology{Tune: tuneOverload},
	Workload: []Workload{stormLoad},
	Nemeses:  []Nemesis{stormCrash},
	Checks: Checks{
		Floors:   map[string]int{"failovers": 1, "sheds": 1, "recovery": 32},
		Ceilings: map[string]int{"maxOut": overloadMaxOutstanding, "maxWait": overloadMaxWaiters},
	},
}, {
	// Split/merge/move ranges under primary-kill churn, checked through
	// one global routed history and per-client session guarantees.
	Name:     "rebalance",
	App:      "hashdb",
	Topology: Topology{Groups: 3, LiveRebalance: true, Tune: func(o *cluster.Options) { o.ReadWorkers = 2 }},
	Workload: []Workload{envelopedLoad},
	Nemeses:  []Nemesis{mapChurn},
	Checks:   Checks{Floors: map[string]int{"splits": 1, "merges": 1, "moves": 1, "kills": 1}},
}}

// Names lists the table's entries.
func Names() []string {
	names := make([]string, len(table))
	for i, sc := range table {
		names[i] = sc.Name
	}
	return names
}

// Lookup returns the named table entry. "a+b" composes entries that share
// a topology: one cluster tuned by both, both entries' workloads and
// nemeses at once, and the union of their checks.
func Lookup(spec string) (Scenario, error) {
	var sc Scenario
	for i, name := range strings.Split(spec, "+") {
		var next *Scenario
		for j := range table {
			if table[j].Name == name {
				next = &table[j]
			}
		}
		if next == nil {
			return Scenario{}, fmt.Errorf("chaos: unknown scenario %q (have %s)", name, strings.Join(Names(), ", "))
		}
		if i == 0 {
			sc = *next
			continue
		}
		var err error
		if sc, err = compose(sc, *next); err != nil {
			return Scenario{}, err
		}
	}
	return sc, nil
}

func compose(a, b Scenario) (Scenario, error) {
	if a.Topology.Groups != b.Topology.Groups || a.Topology.LiveRebalance != b.Topology.LiveRebalance {
		return Scenario{}, fmt.Errorf("chaos: %s and %s run on different topologies", a.Name, b.Name)
	}
	if a.App != "" && b.App != "" && a.App != b.App {
		return Scenario{}, fmt.Errorf("chaos: %s runs %s but %s runs %s", a.Name, a.App, b.Name, b.App)
	}
	sc := a
	sc.Name = a.Name + "+" + b.Name
	if sc.App == "" {
		sc.App = b.App
	}
	sc.Duration = max(a.Duration, b.Duration)
	if ta, tb := a.Topology.Tune, b.Topology.Tune; ta != nil && tb != nil {
		sc.Topology.Tune = func(o *cluster.Options) { ta(o); tb(o) }
	} else if tb != nil {
		sc.Topology.Tune = tb
	}
	sc.Workload = append(append([]Workload(nil), a.Workload...), b.Workload...)
	sc.Nemeses = append(append([]Nemesis(nil), a.Nemeses...), b.Nemeses...)
	sc.Checks = Checks{Replay: a.Checks.Replay || b.Checks.Replay, Floors: map[string]int{}, Ceilings: map[string]int{}}
	for _, c := range []Checks{a.Checks, b.Checks} {
		for name, v := range c.Floors {
			sc.Checks.Floors[name] = max(sc.Checks.Floors[name], v)
		}
		for name, v := range c.Ceilings {
			if old, ok := sc.Checks.Ceilings[name]; !ok || v < old {
				sc.Checks.Ceilings[name] = v
			}
		}
	}
	return sc, nil
}
