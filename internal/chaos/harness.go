package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"rex/internal/check"
	"rex/internal/cluster"
	"rex/internal/core"
	"rex/internal/env"
	"rex/internal/obs"
	"rex/internal/shard"
	"rex/internal/sim"
	"rex/internal/storage"
)

// Scenario is one reproducible chaos run: a cluster topology, the client
// workloads that load it, the nemeses that attack it, and the checks its
// evidence must pass. Everything random derives from Seed.
type Scenario struct {
	Name     string
	Seed     int64
	App      string        // "" or "all" derives the application from Seed
	Duration time.Duration // virtual length of the load phase
	Clients  int           // overrides every workload's client count when > 0
	Topology Topology
	Workload []Workload
	Nemeses  []Nemesis
	Checks   Checks
}

// Topology is the cluster under test: one three-replica group, or Groups
// sharded groups of three placed over Groups nodes.
type Topology struct {
	Groups        int  // 0 for a single group
	LiveRebalance bool // multi-group only: ranges can split, merge and move
	// Tune overrides the harness's base cluster.Options.
	Tune func(*cluster.Options)
}

// Workload is one client population. start spawns its n client tasks,
// with client ids from base up, and returns their group plus an optional
// after phase that runs once the load is over and the cluster is healed.
// Clock-driven workloads stop at Duration; those that poll run.stopped
// stop when the last nemesis returns.
type Workload struct {
	Clients int
	start   func(r *run, n int, base uint64) (load *env.Group, after func())
}

// Nemesis is one fault injector; each runs in its own task, concurrent
// with the load.
type Nemesis func(r *run)

// Checks are the scenario-specific verdicts on top of the ones every run
// gets: linearizability of each recorded history, read-your-writes and
// monotonic reads over every session event, the prefix property over
// chosen logs and state agreement after quiescence.
type Checks struct {
	// Replay crashes and restarts a secondary of each group after
	// quiescence: it must rebuild from its own log and snapshot into the
	// same state as the others (replay determinism).
	Replay bool
	// Floors are witness minimums on Result.Counts: proof the run really
	// exercised what it claims (a failover, a shed, a resync...).
	Floors map[string]int
	// Ceilings are bounds on Result.Counts (peak queue depths).
	Ceilings map[string]int
}

// Result is one scenario's verdict. Counts holds every counter the run
// produced (ops, timeouts, faults, witnesses); all of them reproduce
// exactly from the seed. CheckerWall is the only wall-clock figure.
type Result struct {
	Seed        int64
	App         string
	OK          bool
	Violations  []string
	Counts      map[string]int
	CheckerWall time.Duration
}

// String renders the non-zero counters as sorted name=value pairs.
func (res Result) String() string {
	names := make([]string, 0, len(res.Counts))
	for name, v := range res.Counts {
		if v != 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for i, name := range names {
		names[i] = fmt.Sprintf("%s=%d", name, res.Counts[name])
	}
	return strings.Join(names, " ")
}

// run is one scenario's live state inside the simulator.
type run struct {
	Scenario
	e      *sim.Env
	reg    *obs.Registry
	logf   func(string, ...any)
	spec   appSpec
	mc     *cluster.MultiCluster // nil for a single group
	groups []*cluster.Cluster
	faults []*FaultLog
	begin  time.Duration
	hists  []*check.History
	done   []int // per-group completed ops of the routed workload

	mu         env.Mutex
	stop       bool
	counts     map[string]int
	events     []check.SessionEvent
	violations []string
}

func (r *run) c() *cluster.Cluster { return r.groups[0] }

// loading reports whether a clock-driven workload is still in its phase.
func (r *run) loading() bool { return r.e.Now() < r.begin+r.Duration }

// stopped reports whether every nemesis has returned.
func (r *run) stopped() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stop
}

func (r *run) add(name string, n int) {
	r.mu.Lock()
	r.counts[name] += n
	r.mu.Unlock()
}

func (r *run) fail(format string, args ...any) {
	r.mu.Lock()
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

func (r *run) session(ev check.SessionEvent) {
	r.mu.Lock()
	r.events = append(r.events, ev)
	r.mu.Unlock()
}

// note counts one injected fault under chaos_fault_<kind>.
func (r *run) note(kind, format string, args ...any) {
	r.add("faults", 1)
	r.reg.CounterOf("chaos_fault_" + kind).Inc()
	r.log(format, args...)
}

func (r *run) log(format string, args ...any) {
	if r.logf != nil {
		r.logf("chaos: "+format, args...)
	}
}

func (r *run) history() *check.History {
	h := check.NewHistory(r.e.Now)
	r.hists = append(r.hists, h)
	return h
}

func (r *run) sleep(rng *rand.Rand, s span) {
	r.e.Sleep(time.Duration(s[0]+rng.Intn(s[1]-s[0])) * time.Millisecond)
}

// span is a [min, max) range of milliseconds.
type span [2]int

// Run executes the scenario under a fresh simulator and returns its
// verdict. Metrics land in reg, which may be shared across scenarios.
func Run(sc Scenario, reg *obs.Registry, logf func(string, ...any)) Result {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	sc.App = appFor(sc.Seed, sc.App)
	res := Result{Seed: sc.Seed, App: sc.App}
	spec, err := specFor(sc.App)
	if err != nil {
		res.Violations = []string{err.Error()}
		return res
	}
	e := sim.New(4)
	r := &run{Scenario: sc, e: e, reg: reg, logf: logf, spec: spec, mu: e.NewMutex(), counts: map[string]int{}}
	e.Run(r.main)

	for i, h := range r.hists {
		ops := h.Ops()
		r.counts["ops"] += h.Len()
		r.counts["discarded"] += h.Len() - len(ops)
		wall := time.Now()
		cr := check.CheckLinearizable(spec.model, ops, 0)
		took := time.Since(wall)
		res.CheckerWall += took
		r.counts["checked"] += cr.Ops
		r.counts["parts"] += cr.Partitions
		reg.CounterOf("chaos_ops_checked").Add(uint64(cr.Ops))
		reg.CounterOf("chaos_histories_verified").Inc()
		reg.HistogramOf("chaos_checker_wall").Observe(took)
		if !cr.Ok {
			r.violations = append(r.violations, fmt.Sprintf("history %d of %d ops is not linearizable (%s)", i, cr.Ops, sc.App))
		}
		if cr.Undecided {
			r.violations = append(r.violations, fmt.Sprintf("history %d: linearizability undecided: step budget exhausted", i))
		}
	}
	if r.counts["checked"] == 0 {
		r.violations = append(r.violations, "no operations recorded and checked")
	}
	r.counts["sessionOps"] = len(r.events)
	r.violations = append(r.violations, check.CheckSessionReads(r.events)...)
	for _, name := range sortedNames(sc.Checks.Floors) {
		if got, min := r.counts[name], sc.Checks.Floors[name]; got < min {
			r.violations = append(r.violations, fmt.Sprintf("%s = %d, want >= %d", name, got, min))
		}
	}
	for _, name := range sortedNames(sc.Checks.Ceilings) {
		if got, max := r.counts[name], sc.Checks.Ceilings[name]; got > max {
			r.violations = append(r.violations, fmt.Sprintf("%s = %d, want <= %d", name, got, max))
		}
	}
	res.Violations, res.Counts = r.violations, r.counts
	res.OK = len(res.Violations) == 0
	reg.CounterOf("chaos_scenarios_run").Inc()
	if !res.OK {
		reg.CounterOf("chaos_scenarios_failed").Inc()
	}
	return res
}

// appFor resolves "" or "all" to an application derived from the seed
// alone, so a printed seed reproduces the same run whatever -app said.
func appFor(seed int64, app string) string {
	if app == "" || app == "all" {
		return Apps()[uint64(seed)%uint64(len(Apps()))]
	}
	return app
}

func sortedNames(m map[string]int) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// main is the scenario's root task: build the topology, run the load
// and the nemeses, heal, and collect the structural evidence. No deferred
// Stop: when the run ends (or a task panics) the simulator reaps every
// remaining task itself, and a Stop could wait on an already-killed loop.
func (r *run) main() {
	if err := r.build(); err != nil {
		r.fail("%v", err)
		return
	}
	r.begin = r.e.Now()
	pending := len(r.Nemeses)
	r.stop = pending == 0
	nemeses := env.GoEach(r.e, "nemesis", pending, func(i int) {
		r.Nemeses[i](r)
		r.mu.Lock()
		pending--
		r.stop = pending == 0
		r.mu.Unlock()
	})
	loads := make([]*env.Group, len(r.Workload))
	afters := make([]func(), len(r.Workload))
	for k, w := range r.Workload {
		n := w.Clients
		if r.Clients > 0 {
			n = r.Clients
		}
		// Client ids of different workloads stay apart.
		loads[k], afters[k] = w.start(r, n, 100+10000*uint64(k))
	}
	for _, g := range loads {
		g.Wait()
	}
	nemeses.Wait()

	if !r.recover() {
		return
	}
	for _, after := range afters {
		if after != nil {
			after()
		}
	}
	r.settle("recovery")
	for _, c := range r.groups {
		for i := 0; i < c.Size(); i++ {
			rep := c.Replica(i)
			if rep == nil {
				continue
			}
			m := rep.Metrics()
			r.add("resyncs", int(m.Counter("rex_resync_total")))
			r.add("leaseReads", int(m.Counter("rex_lease_reads_total")))
			r.add("followerReads", int(m.Counter("rex_follower_reads_total")))
			r.add("sheds", int(m.Counter("rex_shed_total")))
			r.add("deadline", int(m.Counter("rex_deadline_exceeded_total")))
			r.add("elided", int(rep.Stats().ElidedOps))
		}
	}
	if r.Checks.Replay && len(r.violations) == 0 {
		r.replayRestart()
	}
}

// build starts the topology and waits for every group's first primary.
func (r *run) build() error {
	opts := cluster.Options{
		Replicas:        3,
		Workers:         2,
		Timers:          r.spec.timers,
		ProposeEvery:    2 * time.Millisecond,
		HeartbeatEvery:  20 * time.Millisecond,
		ElectionTimeout: 100 * time.Millisecond,
		StatusEvery:     20 * time.Millisecond,
		CheckpointEvery: 200 * time.Millisecond,
		Seed:            r.Seed,
		Logf:            r.logf,
		LiveRebalance:   r.Topology.LiveRebalance,
	}
	if r.Topology.Tune != nil {
		r.Topology.Tune(&opts)
	}
	if g := r.Topology.Groups; g > 0 {
		m, err := shard.NewShardMap(1, g, g, 3)
		if err != nil {
			return err
		}
		if r.mc, err = cluster.NewMulti(r.e, r.spec.factory, m, opts); err != nil {
			return err
		}
		r.groups = r.mc.Groups
		if err := r.mc.Start(); err != nil {
			return fmt.Errorf("multi-cluster start: %v", err)
		}
		return r.mc.WaitAllPrimaries(5 * time.Second)
	}
	opts.NewLog = func(i int) storage.Log {
		f := NewFaultLog(storage.NewMemLog())
		for len(r.faults) <= i {
			r.faults = append(r.faults, nil)
		}
		r.faults[i] = f
		return f
	}
	c := cluster.New(r.e, r.spec.factory, opts)
	r.groups = []*cluster.Cluster{c}
	if err := c.Start(); err != nil {
		return fmt.Errorf("cluster start: %v", err)
	}
	_, err := c.WaitPrimary(5 * time.Second)
	return err
}

// recover ends the fault phase: disarm pending WAL failures, heal the
// network, and restart every crashed or faulted member.
func (r *run) recover() bool {
	for _, f := range r.faults {
		if f != nil {
			f.Disarm()
		}
	}
	if r.mc != nil {
		r.mc.Net.Heal()
	}
	for g, c := range r.groups {
		if c.Net != nil {
			c.Net.Heal()
		}
		if err := restartDown(c, r.logf); err != nil {
			r.fail("%srecovery: %v", r.groupTag(g), err)
			return false
		}
	}
	return true
}

func (r *run) groupTag(g int) string {
	if r.mc == nil {
		return ""
	}
	return fmt.Sprintf("group %d: ", g)
}

// settle waits for every group to quiesce and checks state agreement and
// the prefix property.
func (r *run) settle(after string) {
	for g, c := range r.groups {
		tag := r.groupTag(g)
		states, faulted, err := c.StableStates(30 * time.Second)
		if err != nil {
			r.fail("%s%s: %v", tag, after, err)
			continue
		}
		for i, ferr := range faulted {
			r.fail("%sreplica %d faulted after %s: %v", tag, i, after, ferr)
		}
		for _, v := range check.StateAgreement(states) {
			r.fail("%s%s: %s", tag, after, v)
		}
		for _, v := range check.CheckPrefix(chosenLogs(c)) {
			r.fail("%s%s", tag, v)
		}
	}
}

// replayRestart checks replay determinism: a secondary of each group,
// rebuilt from its own WAL and snapshot, must land in the same state as
// the others.
func (r *run) replayRestart() {
	for g, c := range r.groups {
		p := c.Primary()
		for i := 0; i < c.Size(); i++ {
			if rep := c.Replica(i); i != p && rep != nil && rep.Role() != core.RoleRemoved {
				c.Crash(i)
				if err := c.Restart(i); err != nil {
					r.fail("%sreplay restart: %v", r.groupTag(g), err)
					return
				}
				break
			}
		}
	}
	r.settle("replay restart")
}

// chosenLogs snapshots every live replica's chosen instance sequence.
func chosenLogs(c *cluster.Cluster) []check.ChosenLog {
	var logs []check.ChosenLog
	for i := 0; i < c.Size(); i++ {
		r := c.Replica(i)
		if r == nil {
			continue
		}
		base, vals := r.ChosenLog()
		logs = append(logs, check.ChosenLog{Replica: i, Base: base, Vals: vals})
	}
	return logs
}
