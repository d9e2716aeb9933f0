package chaos

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"rex/internal/apps/hashdb"
	"rex/internal/check"
	"rex/internal/cluster"
	"rex/internal/env"
	"rex/internal/readpath"
	"rex/internal/wire"
)

// opTimeout bounds one client call in the closed-loop workloads.
const opTimeout = 3 * time.Second

// clientRNG is client ci's private random stream.
func (r *run) clientRNG(ci int) *rand.Rand {
	return rand.New(rand.NewSource(r.Seed + int64(ci)*7919))
}

// kvBody is the generic key-value mix: 45% get, 45% set of a unique
// value, 10% delete.
func kvBody(rng *rand.Rand, key, val string) []byte {
	switch r := rng.Intn(100); {
	case r < 45:
		return hashdb.GetReq(key)
	case r < 90:
		return hashdb.SetReq(key, []byte(val))
	}
	return hashdb.DelReq(key)
}

// appLoad runs the application's own request mix (appSpec.gen) on a small
// key space, recording every call.
var appLoad = Workload{Clients: 4, start: func(r *run, n int, base uint64) (*env.Group, func()) {
	hist := r.history()
	return env.GoEach(r.e, "app-client", n, func(ci int) {
		cl := r.c().NewClient(base + uint64(ci))
		cl.Recorder = hist
		rng := r.clientRNG(ci)
		for seq := 0; r.loading(); seq++ {
			if _, err := cl.DoTimeout(r.spec.gen(rng, cl.ID, seq), opTimeout); err != nil {
				r.add("timeouts", 1)
			}
			r.sleep(rng, span{2, 10})
		}
	}), nil
}}

// sessionLoad has each client write strictly increasing versions to a
// private key and read them back at session and linearizable level
// (plus unchecked eventual reads). Writes and linearizable reads go into
// the history; every confirmed write and every read becomes a session
// event for the read-your-writes and monotonic-reads check.
var sessionLoad = Workload{Clients: 4, start: func(r *run, n int, base uint64) (*env.Group, func()) {
	hist := r.history()
	return env.GoEach(r.e, "session-client", n, func(ci int) {
		cl := r.c().NewClient(base + uint64(ci))
		cl.Recorder = hist
		rng := r.clientRNG(ci)
		key := fmt.Sprintf("sess-%d", cl.ID)
		for seq, version := 0, uint64(1); r.loading(); seq, version = seq+1, version+1 {
			if _, err := cl.DoTimeout(hashdb.SetReq(key, []byte(strconv.FormatUint(version, 10))), opTimeout); err != nil {
				// Outcome unknown: the write may commit late (or never), so
				// it must not raise the read floor.
				r.add("timeouts", 1)
			} else {
				r.session(check.SessionEvent{Client: cl.ID, Kind: check.SessionWrite, Version: version})
			}
			level, name := readpath.Session, "session"
			if seq%3 == 1 {
				level, name = readpath.Linearizable, "linearizable"
			}
			if resp, err := cl.QueryLevelTimeout(level, hashdb.GetReq(key), opTimeout); err != nil {
				r.add("timeouts", 1)
			} else if v, ok := r.readVersion(cl.ID, resp); ok {
				r.session(check.SessionEvent{Client: cl.ID, Kind: check.SessionRead, Version: v, Level: name})
			}
			if seq%5 == 4 {
				// Eventual reads exercise the weakest path; they promise
				// nothing worth checking.
				if _, err := cl.QueryLevelTimeout(readpath.Eventual, hashdb.GetReq(key), opTimeout); err != nil {
					r.add("timeouts", 1)
				}
			}
			r.sleep(rng, span{2, 10})
		}
	}), nil
}}

// readVersion parses a hashdb get response holding a decimal version; an
// absent key is version 0.
func (r *run) readVersion(client uint64, resp []byte) (uint64, bool) {
	d := wire.NewDecoder(resp)
	ok, val := d.Bool(), d.BytesVal()
	if d.Err() != nil {
		r.fail("client %d: corrupt read response %x", client, resp)
		return 0, false
	}
	if !ok {
		return 0, true
	}
	v, err := strconv.ParseUint(string(val), 10, 64)
	if err != nil {
		r.fail("client %d: unparseable version %q", client, val)
		return 0, false
	}
	return v, true
}

// conflictLoad mixes private keys (pairwise-disjoint conflict classes,
// maximal elision) with shared keys every client contends on, so
// same-class ordering must survive elision. A side client issues
// whole-table sweeps — catch-all requests dispatched only behind the
// admission barrier — outside the history (they touch every key); state
// agreement and replay determinism still cover them.
var conflictLoad = Workload{Clients: 4, start: func(r *run, n int, base uint64) (*env.Group, func()) {
	hist := r.history()
	g := env.GoEach(r.e, "conflicts-client", n, func(ci int) {
		cl := r.c().NewClient(base + uint64(ci))
		cl.Recorder = hist
		rng := r.clientRNG(ci)
		for seq := 0; r.loading(); seq++ {
			var key string
			if rng.Intn(100) < 70 {
				key = fmt.Sprintf("own-%d-%d", ci, rng.Intn(4))
			} else {
				key = fmt.Sprintf("shared-%d", rng.Intn(3))
			}
			if _, err := cl.DoTimeout(kvBody(rng, key, "c"+strconv.Itoa(ci)+"-n"+strconv.Itoa(seq)), opTimeout); err != nil {
				r.add("timeouts", 1)
			}
			r.sleep(rng, span{2, 10})
		}
	})
	g.Add(1)
	r.e.Go("conflicts-sweeper", func() {
		defer g.Done()
		cl := r.c().NewClient(base - 1)
		rng := rand.New(rand.NewSource(r.Seed ^ 0x5eeb))
		for r.loading() {
			r.sleep(rng, span{60, 140})
			if _, err := cl.DoTimeout(hashdb.SweepReq(), opTimeout); err != nil {
				r.add("timeouts", 1)
			} else {
				r.add("sweeps", 1)
			}
		}
	})
	return g, nil
}}

// Overload tuning: a deliberately tiny primary (16 admitted, 24 waiting)
// so a fleet three times that size saturates it hard enough to engage
// both the CoDel controller and the hard waiter cap.
const (
	overloadMaxOutstanding = 16
	overloadMaxWaiters     = 24
	overloadOpTimeout      = 250 * time.Millisecond
	// overloadRecorded caps how many storm workers feed the history: the
	// whole fleet's ops on one hot key would blow the checker's budget,
	// and a sampled history already catches a lost or stale write.
	overloadRecorded = 6
)

func tuneOverload(o *cluster.Options) {
	o.ReadWorkers = 2
	o.ElectionTimeout = 120 * time.Millisecond
	o.ReadWaitTimeout = 300 * time.Millisecond
	o.MaxOutstanding = overloadMaxOutstanding
	o.MaxAdmissionWaiters = overloadMaxWaiters
	o.AdmissionTarget = 5 * time.Millisecond
	o.AdmissionInterval = 25 * time.Millisecond
}

// stormLoad is an open-loop zipfian hot-key write storm: every worker
// hammers the hot set with short deadlines, so offered load is set by
// fleet size, not completion rate. Linearizable reads ride along; under
// pressure they must be served off the lease or shed, never stale. A
// monitor samples the primary's admitted and waiting counts (maxOut,
// maxWait) through the storm and into recovery; after the storm a
// closed-loop probe must get 40 writes through again (recovery).
var stormLoad = Workload{Clients: 48, start: func(r *run, n int, base uint64) (*env.Group, func()) {
	hist := r.history()
	stormEnd := r.begin + r.Duration
	peak := func(name string, v int) {
		r.mu.Lock()
		r.counts[name] = max(r.counts[name], v)
		r.mu.Unlock()
	}
	monitor := env.GoEach(r.e, "overload-monitor", 1, func(int) {
		for r.e.Now() < stormEnd+200*time.Millisecond {
			if p := r.c().Primary(); p >= 0 {
				if rep := r.c().Replica(p); rep != nil {
					peak("maxOut", rep.Stats().Outstanding)
					peak("maxWait", int(rep.Metrics().Gauges["rex_admission_waiters"]))
				}
			}
			r.e.Sleep(5 * time.Millisecond)
		}
	})
	storm := env.GoEach(r.e, "overload-client", n, func(ci int) {
		cl := r.c().NewClient(base + uint64(ci))
		// The recorded sample and the bulk fleet use disjoint keys: a
		// recorded read returning an unrecorded client's value would look
		// like a lost write. Admission pressure is global, so the bulk
		// fleet still saturates the gate for everyone.
		prefix := "bulk"
		if ci < overloadRecorded {
			cl.Recorder = hist
			prefix = "hot"
		}
		rng := r.clientRNG(ci)
		zipf := rand.NewZipf(rng, 1.3, 1.0, 31)
		for seq := 0; r.e.Now() < stormEnd; seq++ {
			key := fmt.Sprintf("%s-%d", prefix, zipf.Uint64())
			val := strconv.FormatUint(uint64(ci)<<32|uint64(seq), 10)
			if _, err := cl.DoTimeout(hashdb.SetReq(key, []byte(val)), overloadOpTimeout); err != nil {
				r.add("timeouts", 1)
			}
			if seq%8 == 7 {
				if _, err := cl.QueryLevelTimeout(readpath.Linearizable, hashdb.GetReq(key), overloadOpTimeout); err != nil {
					r.add("timeouts", 1)
				}
			}
		}
		r.add("budgetDry", int(cl.BudgetExhausted))
	})
	return storm, func() {
		env.GoEach(r.e, "overload-probe", 4, func(ci int) {
			cl := r.c().NewClient(base + 800 + uint64(ci))
			cl.Recorder = hist
			key := fmt.Sprintf("probe-%d", ci)
			for seq := 0; seq < 10; seq++ {
				if _, err := cl.DoTimeout(hashdb.SetReq(key, []byte(strconv.Itoa(seq))), opTimeout); err == nil {
					r.add("recovery", 1)
				}
				r.e.Sleep(5 * time.Millisecond)
			}
		}).Wait()
		monitor.Wait()
	}
}}

// routedLoad sends a shared key space through the shard map: each task
// holds one client per group (one id for all groups) and records into
// that group's own history. run.done counts completions per group for
// the group-kill nemesis's blast-radius measurement.
var routedLoad = Workload{Clients: 8, start: func(r *run, n int, base uint64) (*env.Group, func()) {
	hists := make([]*check.History, len(r.groups))
	for g := range hists {
		hists[g] = r.history()
	}
	r.done = make([]int, len(r.groups))
	keys := 8 * len(r.groups)
	return env.GoEach(r.e, "routed-client", n, func(ci int) {
		gcs := make([]*cluster.Client, len(r.groups))
		for g, c := range r.groups {
			gcs[g] = c.NewClient(base + uint64(ci))
			gcs[g].Recorder = hists[g]
		}
		rng := r.clientRNG(ci)
		for seq := 0; !r.stopped(); seq++ {
			k := fmt.Sprintf("k%d", rng.Intn(keys))
			body := kvBody(rng, k, fmt.Sprintf("c%d-n%d", ci, seq))
			g := r.mc.Map.GroupFor([]byte(k))
			if _, err := gcs[g].DoTimeout(body, 2*time.Second); err != nil {
				r.add("timeouts", 1)
				continue
			}
			r.mu.Lock()
			r.done[g]++
			r.mu.Unlock()
			r.sleep(rng, span{1, 5})
		}
	}), nil
}}

// envelopedLoad drives map-following routers (one per task, ids spaced
// by 64: a router uses groups+1) through ONE global history, so an
// operation that lands on the wrong group during a map transition shows
// up as a stale read or lost write there rather than hiding inside a
// per-group history. A quarter of the traffic is session writes and
// reads on the client's private key, checked across ownership flips.
var envelopedLoad = Workload{Clients: 6, start: func(r *run, n int, base uint64) (*env.Group, func()) {
	hist := r.history()
	keys := 12 * len(r.groups)
	return env.GoEach(r.e, "enveloped-client", n, func(ci int) {
		rt := r.mc.NewRouter(base + 64*uint64(ci))
		rt.Recorder = hist
		rng := r.clientRNG(ci)
		id := base + uint64(ci)
		sessKey := fmt.Sprintf("sess-%d", ci)
		var sessVer uint64
		for seq := 0; !r.stopped(); seq++ {
			switch {
			case rng.Intn(4) != 0:
				k := fmt.Sprintf("k%d", rng.Intn(keys))
				if _, err := rt.Do([]byte(k), kvBody(rng, k, fmt.Sprintf("c%d-n%d", ci, seq))); err != nil {
					r.add("timeouts", 1)
				}
			case rng.Intn(2) == 0:
				next := sessVer + 1
				if _, err := rt.Do([]byte(sessKey), hashdb.SetReq(sessKey, []byte(strconv.FormatUint(next, 10)))); err == nil {
					sessVer = next
					r.session(check.SessionEvent{Client: id, Kind: check.SessionWrite, Version: next})
				}
			default:
				resp, err := rt.QueryLevel([]byte(sessKey), readpath.Session, hashdb.GetReq(sessKey))
				if err == nil {
					if v, ok := r.readVersion(id, resp); ok {
						r.session(check.SessionEvent{Client: id, Kind: check.SessionRead, Version: v, Level: "session"})
					}
				}
			}
			r.sleep(rng, span{1, 5})
		}
	}), nil
}}
