// Command rexchaos runs seed-deterministic chaos scenarios against an
// in-process Rex cluster under the simulator and checks the correctness
// contract: linearizability of the recorded client history, the prefix
// property over chosen logs, state agreement after quiescence, and the
// scenario's own checks (replay determinism, session reads, witness
// floors). -scenario names an entry of the chaos table, or several joined
// by "+" to run their workloads and nemeses together. On failure it
// prints the command that reproduces the exact run.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"rex/internal/chaos"
	"rex/internal/obs"
)

func main() {
	var (
		name      = flag.String("scenario", "random", "table entry to run, or entries joined by + ("+strings.Join(chaos.Names(), ", ")+")")
		seed      = flag.Int64("seed", 1, "base seed; scenario i runs with seed+i")
		scenarios = flag.Int("scenarios", 10, "number of seeds to run")
		app       = flag.String("app", "all", "hashdb|memcache|lockserver|all, for entries that do not pin one (all derives the app from each seed)")
		duration  = flag.Duration("duration", 0, "virtual load phase per run (0 takes the entry's default)")
		groups    = flag.Int("groups", 0, "replica groups for multi-group entries (0 takes the entry's default)")
		clients   = flag.Int("clients", 0, "clients per workload (0 takes each workload's default)")
		verbose   = flag.Bool("v", false, "log nemesis actions as they fire")
	)
	flag.Parse()

	sc, err := chaos.Lookup(*name)
	if err == nil {
		err = override(&sc, *app, *duration, *groups, *clients)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	reg := obs.NewRegistry()
	var logf func(string, ...any)
	if *verbose {
		logf = func(format string, args ...any) {
			fmt.Printf("    "+format+"\n", args...)
		}
	}

	start := time.Now()
	var failed []string
	for i := 0; i < *scenarios; i++ {
		sc.Seed = *seed + int64(i)
		res := chaos.Run(sc, reg, logf)
		verdict := "OK"
		if !res.OK {
			verdict = "FAIL"
			failed = append(failed, fmt.Sprint(res.Seed))
		}
		fmt.Printf("%s %2d/%d  seed=%-6d app=%-10s %s wall=%v %s\n", sc.Name, i+1, *scenarios,
			res.Seed, res.App, res, res.CheckerWall.Round(time.Microsecond), verdict)
		for _, v := range res.Violations {
			fmt.Printf("    violation: %s\n", v)
		}
	}
	printMetrics(reg)
	if len(failed) > 0 {
		fmt.Printf("FAILING SEEDS: %s\n", strings.Join(failed, " "))
		repro := fmt.Sprintf("go run ./cmd/rexchaos -scenario %s -scenarios 1 -seed %s", sc.Name, failed[0])
		flag.Visit(func(f *flag.Flag) {
			if f.Name != "scenario" && f.Name != "scenarios" && f.Name != "seed" {
				repro += fmt.Sprintf(" -%s=%v", f.Name, f.Value)
			}
		})
		fmt.Printf("reproduce with: %s\n", repro)
		os.Exit(1)
	}
	fmt.Printf("all %d %s scenarios OK in %v\n", *scenarios, sc.Name, time.Since(start).Round(time.Millisecond))
}

// override applies the command-line settings to the scenario's defaults.
func override(sc *chaos.Scenario, app string, duration time.Duration, groups, clients int) error {
	if app != "all" {
		if sc.App != "" && sc.App != app {
			return fmt.Errorf("rexchaos: scenario %s runs %s, not %s", sc.Name, sc.App, app)
		}
		sc.App = app
	}
	if duration > 0 {
		sc.Duration = duration
	}
	if groups > 0 {
		if sc.Topology.Groups == 0 {
			return fmt.Errorf("rexchaos: scenario %s runs a single replica group; -groups does not apply", sc.Name)
		}
		sc.Topology.Groups = groups
	}
	sc.Clients = clients
	return nil
}

func printMetrics(reg *obs.Registry) {
	snap := reg.Snapshot()
	var faultNames []string
	for name := range snap.Counters {
		if strings.HasPrefix(name, "chaos_fault_") {
			faultNames = append(faultNames, name)
		}
	}
	sort.Strings(faultNames)
	fmt.Printf("faults injected:")
	if len(faultNames) == 0 {
		fmt.Printf(" none")
	}
	for _, name := range faultNames {
		fmt.Printf(" %s=%d", strings.TrimPrefix(name, "chaos_fault_"), snap.Counters[name])
	}
	fmt.Println()
	wall := snap.Histogram("chaos_checker_wall")
	fmt.Printf("checker: histories=%d ops=%d wall mean=%v max=%v\n",
		snap.Counter("chaos_histories_verified"),
		snap.Counter("chaos_ops_checked"),
		wall.Mean().Round(time.Microsecond),
		wall.Max.Round(time.Microsecond))
}
