package chaos

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"rex/internal/obs"
)

// pins are the table entries (and one composition) at pinned seeds with
// short load phases. Zero fields take the entry's defaults.
var pins = []struct {
	scenario        string
	seed            int64
	duration        time.Duration
	groups, clients int
	registry        []string // registry counters the run must raise
}{
	{scenario: "random", seed: 1, duration: 1500 * time.Millisecond},
	{scenario: "shards", seed: 3, duration: 1400 * time.Millisecond, groups: 3, clients: 6},
	{scenario: "reconfig", seed: 1},
	{scenario: "recovery", seed: 1},
	{scenario: "reads", seed: 1},
	{scenario: "conflicts", seed: 1},
	{scenario: "overload", seed: 1},
	{scenario: "rebalance", seed: 9, groups: 3, clients: 4,
		registry: []string{"rex_rebalance_total", "rex_rebalance_moved_bytes"}},
	{scenario: "overload+reconfig", seed: 1},
}

// TestScenarioTable runs every pinned scenario twice. Each run must pass
// its own checks (the entry's witness floors and ceilings included),
// report its faults and checker time through the shared chaos_* metrics,
// and the two runs must produce identical counters: a scenario reproduces
// exactly from its seed.
func TestScenarioTable(t *testing.T) {
	covered := map[string]bool{}
	for _, p := range pins {
		p := p
		for _, name := range strings.Split(p.scenario, "+") {
			covered[name] = true
		}
		t.Run(p.scenario, func(t *testing.T) {
			sc, err := Lookup(p.scenario)
			if err != nil {
				t.Fatal(err)
			}
			sc.Seed, sc.Clients = p.seed, p.clients
			if p.duration > 0 {
				sc.Duration = p.duration
			}
			if p.groups > 0 {
				sc.Topology.Groups = p.groups
			}
			var runs [2]Result
			for i := range runs {
				reg := obs.NewRegistry()
				res := Run(sc, reg, nil)
				for _, v := range res.Violations {
					t.Errorf("run %d violation: %s", i, v)
				}
				if !res.OK {
					t.Fatalf("run %d failed: %s", i, res)
				}
				snap := reg.Snapshot()
				faults := uint64(0)
				for name, v := range snap.Counters {
					if strings.HasPrefix(name, "chaos_fault_") && name != "chaos_fault_skipped" {
						faults += v
					}
				}
				if faults == 0 || res.Counts["faults"] == 0 {
					t.Errorf("run %d: no chaos_fault_* counted (faults=%d)", i, res.Counts["faults"])
				}
				hists := snap.Counter("chaos_histories_verified")
				if wall := snap.Histogram("chaos_checker_wall"); hists == 0 || wall.Count != hists {
					t.Errorf("run %d: chaos_checker_wall observed %d times for %d histories", i, wall.Count, hists)
				}
				for _, name := range p.registry {
					if snap.Counter(name) == 0 {
						t.Errorf("run %d: %s = 0, want > 0", i, name)
					}
				}
				runs[i] = res
			}
			if !reflect.DeepEqual(runs[0].Counts, runs[1].Counts) {
				t.Fatalf("seed %d did not reproduce:\nfirst  %s\nsecond %s", p.seed, runs[0], runs[1])
			}
			t.Logf("%s seed=%d app=%s %s", p.scenario, p.seed, runs[0].App, runs[0])
		})
	}
	for _, name := range Names() {
		if !covered[name] {
			t.Errorf("table entry %s has no pinned seed", name)
		}
	}
}
