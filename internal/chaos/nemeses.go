package chaos

import (
	"errors"
	"math/rand"
	"time"

	"rex/internal/env"
	"rex/internal/rebalance"
	"rex/internal/shard"
)

// scheduleNemesis runs a random Generate schedule (crashes, primary
// kills, partitions, loss and delay bursts, WAL faults) through the
// Engine. Its fault count is the schedule length, skipped steps included.
func scheduleNemesis(r *run) {
	s := Generate(r.Seed, r.c().Size(), r.Duration)
	r.add("faults", len(s.Steps))
	(&Engine{C: r.c(), Faults: r.faults, Reg: r.reg, Logf: r.logf}).Run(s)
}

// isolateChurn repeatedly isolates the current primary for hold, every
// gap, until the load phase ends, forcing a failover each round (counted
// under failovers). With bounce set, one seed-chosen round also crashes a
// secondary and restarts it after 500-800ms, so its recovery has to cross
// whatever the checkpoint floor compacted meanwhile. salt decorrelates
// the nemesis's random stream from the clients'.
func isolateChurn(salt int64, gap, hold span, bounce bool) Nemesis {
	return func(r *run) {
		c := r.c()
		rng := rand.New(rand.NewSource(r.Seed ^ salt))
		bounceRound := -1
		if bounce {
			bounceRound = 2 + rng.Intn(3)
		}
		last := c.Primary()
		for round := 0; r.loading(); round++ {
			r.sleep(rng, gap)
			p := c.Primary()
			if p < 0 {
				continue
			}
			if p != last {
				r.add("failovers", 1)
				last = p
			}
			r.note("isolate_primary", "round %d: isolate primary %d", round, p)
			c.Net.Isolate(p, true)
			r.sleep(rng, hold)
			c.Net.Isolate(p, false)
			r.note("heal", "round %d: heal primary %d", round, p)
			if round != bounceRound {
				continue
			}
			victim := (c.Primary() + 1) % c.Size()
			if victim == p {
				victim = (victim + 1) % c.Size()
			}
			r.note("crash_replica", "round %d: crash secondary %d", round, victim)
			c.Crash(victim)
			r.sleep(rng, span{500, 800})
			if err := c.Restart(victim); err != nil {
				r.fail("round %d restart %d: %v", round, victim, err)
				return
			}
			r.note("restart_replica", "round %d: restart secondary %d", round, victim)
		}
		if p := c.Primary(); p >= 0 && p != last {
			r.add("failovers", 1)
		}
	}
}

// reconfigWait bounds each membership transition (virtual time; generous
// because transitions race partitions).
const reconfigWait = 30 * time.Second

// reconfigPlan walks the membership machinery through a replace (half the
// time of a crashed node), an add whose catch-up is cut by a partition,
// and a remove back down to three voters, after an opening partition.
func reconfigPlan(r *run) {
	c := r.c()
	rng := rand.New(rand.NewSource(r.Seed ^ 0x7ec0f19))
	partition := func(i int) {
		r.note("partition", "partition {%d} | rest", i)
		for j := 0; j < c.Size(); j++ {
			if j != i {
				c.Net.SetPartition(i, j, true)
				c.Net.SetPartition(j, i, true)
			}
		}
	}
	heal := func() {
		c.Net.Heal()
		r.note("heal", "heal network")
	}
	// pickSecondary returns a random non-primary voter, -1 if none.
	pickSecondary := func() int {
		p := c.Primary()
		if p < 0 || c.Replica(p) == nil {
			return -1
		}
		var cands []int
		for _, v := range c.Replica(p).Membership().Voters {
			if v != p {
				cands = append(cands, v)
			}
		}
		if len(cands) == 0 {
			return -1
		}
		return cands[rng.Intn(len(cands))]
	}

	r.sleep(rng, span{100, 300})
	partition(rng.Intn(3))
	r.sleep(rng, span{40, 120})
	heal()

	r.sleep(rng, span{50, 150})
	if old := pickSecondary(); old >= 0 {
		if rng.Intn(2) == 0 {
			r.note("crash_replica", "crash replica %d before replacing it", old)
			c.Crash(old)
			r.sleep(rng, span{30, 80})
		}
		r.note("reconfig_replace", "replace replica %d", old)
		if nid, err := c.ReplaceNode(old); err != nil {
			r.fail("replace %d: %v", old, err)
		} else {
			if err := c.WaitVoter(nid, reconfigWait); err != nil {
				r.fail("replacement %d never promoted: %v", nid, err)
			}
			if err := c.WaitRemoved(old, reconfigWait); err != nil {
				r.fail("replaced %d never left: %v", old, err)
			}
		}
	}

	r.sleep(rng, span{50, 150})
	r.note("reconfig_add", "add a node")
	added, err := c.AddNode()
	if err != nil {
		r.fail("add: %v", err)
		return
	}
	r.sleep(rng, span{10, 60})
	partition(rng.Intn(c.Size()))
	r.sleep(rng, span{40, 120})
	heal()
	if err := c.WaitVoter(added, reconfigWait); err != nil {
		r.fail("joiner %d never promoted: %v", added, err)
	}
	r.sleep(rng, span{50, 150})
	if victim := pickSecondary(); victim >= 0 {
		r.note("reconfig_remove", "remove replica %d", victim)
		if err := c.RemoveNode(victim); err != nil {
			r.fail("remove %d: %v", victim, err)
		} else if err := c.WaitRemoved(victim, reconfigWait); err != nil {
			r.fail("removed %d never went quiet: %v", victim, err)
		}
	}
}

// stormCrash kills the primary a third into the load phase and restarts
// it 400ms later: overload protection must survive a failover, and the
// new primary sheds on its own. The victim's shed and deadline counters
// are banked first, since a restarted replica's registry starts at zero.
func stormCrash(r *run) {
	c := r.c()
	end := r.begin + r.Duration
	r.e.Sleep(r.Duration / 3)
	p := c.Primary()
	if p < 0 {
		return
	}
	if rep := c.Replica(p); rep != nil {
		m := rep.Metrics()
		r.add("sheds", int(m.Counter("rex_shed_total")))
		r.add("deadline", int(m.Counter("rex_deadline_exceeded_total")))
	}
	r.note("crash_primary", "crash primary %d mid-storm", p)
	c.Crash(p)
	r.e.Sleep(400 * time.Millisecond)
	r.note("restart", "restart old primary %d", p)
	if err := c.Restart(p); err != nil {
		r.log("restart %d: %v", p, err)
	}
	for r.e.Now() < end {
		if np := c.Primary(); np >= 0 && np != p {
			r.add("failovers", 1)
			return
		}
		r.e.Sleep(10 * time.Millisecond)
	}
}

// groupKill measures per-group throughput over two Duration/2 phases,
// crashes the primary of the seed-chosen group, and measures a third
// phase: survivorPct is the worst surviving group's post-kill rate as a
// percentage of its pre-kill rate (the blast radius; an idle group counts
// as 0). The killed group must then re-elect.
func groupKill(r *run) {
	phase := r.Duration / 2
	snapshot := func() []int {
		r.mu.Lock()
		defer r.mu.Unlock()
		return append([]int(nil), r.done...)
	}
	r.e.Sleep(phase)
	pre0 := snapshot()
	r.e.Sleep(phase)
	pre1 := snapshot()
	victim := int(uint64(r.Seed) % uint64(len(r.groups)))
	p, err := r.mc.CrashGroupPrimary(victim)
	if err != nil {
		r.fail("%v", err)
		return
	}
	r.note("kill_group_primary", "killed group %d primary (replica %d)", victim, p)
	r.add("kills", 1)
	post0 := snapshot()
	r.e.Sleep(phase)
	post1 := snapshot()
	worst := 100
	for g := range r.groups {
		pre, post := pre1[g]-pre0[g], post1[g]-post0[g]
		r.log("group %d: %d ops before the kill, %d after", g, pre, post)
		if g == victim {
			continue
		}
		pct := 0
		if pre > 0 {
			pct = 100 * post / pre
		}
		worst = min(worst, pct)
	}
	r.add("survivorPct", worst)
	if _, err := r.groups[victim].WaitPrimary(5 * time.Second); err != nil {
		r.fail("group %d after kill: %v", victim, err)
	}
}

// mapChurn drives random split/merge/move rounds through the rebalance
// coordinator — at least one of each kind must complete — while a killer
// crashes a random group's primary (the map home group included) every
// 400ms and restarts it 300ms later. It opens with 300ms of warm-up load
// and closes with 300ms of drain; the final map version is mapVersion.
func mapChurn(r *run) {
	const planOps = 6
	r.e.Sleep(300 * time.Millisecond)
	churn := true
	churning := func() bool {
		r.mu.Lock()
		defer r.mu.Unlock()
		return churn
	}
	killer := env.GoEach(r.e, "map-churn-killer", 1, func(int) {
		rng := rand.New(rand.NewSource(r.Seed*31 + 5))
		for churning() {
			r.e.Sleep(400 * time.Millisecond)
			g := rng.Intn(len(r.groups))
			p, err := r.mc.CrashGroupPrimary(g)
			if err != nil {
				continue
			}
			r.note("kill_group_primary", "killed group %d primary (replica %d)", g, p)
			r.add("kills", 1)
			r.e.Sleep(300 * time.Millisecond)
			if err := r.groups[g].Restart(p); err != nil {
				r.fail("restart group %d replica %d: %v", g, p, err)
				return
			}
		}
	})

	cd := r.mc.NewCoordinator(9000, r.reg)
	cd.Logf = r.logf
	rng := rand.New(rand.NewSource(r.Seed*17 + 3))
	count := func(name string) int {
		r.mu.Lock()
		defer r.mu.Unlock()
		return r.counts[name]
	}
	// apply runs one coordinator change and counts it under name; a map
	// version race between concurrent proposals is retried next round.
	apply := func(name string, err error) {
		switch {
		case err == nil:
			r.add(name, 1)
		case !errors.Is(err, rebalance.ErrProposeConflict):
			r.fail("%s: %v", name, err)
		}
	}
	for round := 0; round < planOps || count("splits") == 0 || count("merges") == 0 || count("moves") == 0; round++ {
		if round > planOps+8 {
			r.fail("rebalance plan stalled: %d splits, %d merges, %d moves after %d rounds",
				count("splits"), count("merges"), count("moves"), round)
			break
		}
		cur, _, err := cd.FetchMap()
		if err != nil {
			r.fail("fetch map: %v", err)
			break
		}
		kind := rng.Intn(3)
		if kind == 1 && count("merges") > 0 && count("moves") == 0 {
			kind = 2 // don't burn rounds re-merging before the first move
		}
		switch kind {
		case 0:
			at, ok := pickSplitPoint(cur, rng)
			if !ok {
				continue
			}
			_, err = cd.Split(at)
			apply("splits", err)
		case 1:
			boundary, ok := pickMergeBoundary(cur)
			if !ok {
				// No fusable pair: split first so one exists next round.
				if at, ok := pickSplitPoint(cur, rng); ok {
					if _, err := cd.Split(at); err == nil {
						r.add("splits", 1)
					}
				}
				continue
			}
			_, err = cd.Merge(boundary)
			apply("merges", err)
		case 2:
			at, dest, ok := pickMove(cur, rng)
			if !ok {
				continue
			}
			_, err = cd.Move(at, dest)
			apply("moves", err)
		}
		r.sleep(rng, span{50, 150})
	}

	r.mu.Lock()
	churn = false
	r.mu.Unlock()
	killer.Wait()
	if fm, _, err := cd.FetchMap(); err != nil {
		r.fail("final map: %v", err)
	} else {
		r.add("mapVersion", int(fm.Version))
		r.log("final map:\n%s", fm)
	}
	r.e.Sleep(300 * time.Millisecond)
}

// pickSplitPoint finds a random range wide enough to split and returns
// its midpoint.
func pickSplitPoint(m *shard.ShardMap, rng *rand.Rand) (uint64, bool) {
	if len(m.Ranges) == 0 {
		return 0, false
	}
	for try := 0; try < 8; try++ {
		i := rng.Intn(len(m.Ranges))
		lo, hi := m.RangeBounds(i)
		if hi-lo < 2 {
			continue
		}
		return lo + (hi-lo)/2 + 1, true
	}
	return 0, false
}

// pickMergeBoundary scans for an interior boundary whose two sides share
// an owner.
func pickMergeBoundary(m *shard.ShardMap) (uint64, bool) {
	for i := 1; i < len(m.Ranges); i++ {
		if m.Ranges[i].Group == m.Ranges[i-1].Group {
			return m.Ranges[i].Start, true
		}
	}
	return 0, false
}

// pickMove picks a random range and a random different destination
// group.
func pickMove(m *shard.ShardMap, rng *rand.Rand) (uint64, int, bool) {
	if len(m.Ranges) == 0 || m.Groups() < 2 {
		return 0, 0, false
	}
	i := rng.Intn(len(m.Ranges))
	dest := rng.Intn(m.Groups() - 1)
	if dest >= m.Ranges[i].Group {
		dest++
	}
	return m.Ranges[i].Start, dest, true
}
