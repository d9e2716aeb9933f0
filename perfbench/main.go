// Command perfbench is Rex's wall-clock end-to-end benchmark. It boots a
// 3-replica hashdb group on the real environment with the same wiring as
// cmd/rexd (TCP transport on loopback, FileLog with fsync on every append,
// file snapshots, the client server), drives it from server.Client
// connections, checks every answer, and prints the end-to-end metrics
// (--trace 0) or the per-layer breakdown (--trace 1). See README.md.
//
//	bash perfbench/run.sh --workload write_steady --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"
)

// workload is one traffic mix. Keys are "key-%011d"; values carry the
// write's id so every read can be checked against the write history.
type workload struct {
	name      string
	why       string
	readShare float64 // share of generated ops that are linearizable gets
	valueSize int     // bytes per set value
	keys      int     // key space
	zipf      bool    // zipfian (hot keys first) instead of uniform keys
	rate      float64 // open-loop offered ops/s over all connections
}

var workloads = []workload{
	{
		name:      "write_steady",
		why:       "100% 100 B sets on zipfian keys: every op crosses record, Paxos, transport and a quorum fsync",
		valueSize: 100, keys: 50000, zipf: true, rate: 300,
	},
	{
		name:      "read_mostly",
		why:       "95% linearizable gets, 5% sets: server, lease check and app Query dominate; commit path carries 5%",
		readShare: 0.95, valueSize: 100, keys: 50000, zipf: true, rate: 1000,
	},
	{
		name:      "write_large",
		why:       "100% 4 KiB sets on uniform keys: bounded by delta, transport, WAL and checkpoint bytes, not op count",
		valueSize: 4096, keys: 4096, rate: 150,
	},
}

// Fixed shape of every run.
const (
	replicas   = 3
	maxConns   = 2                 // load connections, capped at nproc
	setupReps  = 5                 // set-ups per run; setup_s is their median
	preload    = 200               // hottest keys set during each set-up
	probeEvery = 100               // one Client.Status probe per this many generator slots
	runLimit   = 170 * time.Second // hard stop: a stuck run fails instead of hanging
)

func main() {
	os.Exit(run())
}

func run() int {
	wname := flag.String("workload", "", "workload name, or \"all\" to run every workload untraced then traced")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 30, "measured seconds per run (7 cycles: open loop 2/3, closed loop 1/3)")
	traceOn := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	dir := flag.String("dir", ".bench_build", "directory for WALs, snapshots and span files")
	commit := flag.String("commit", "unknown", "source commit, recorded in the run metadata")
	flag.Parse()

	if *wname == "all" {
		return runAll(*seed, *seconds, *dir, *commit)
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *wname {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s, or all), --seconds >= 1, --trace 0|1\n", names())
		return 2
	}
	watchdog := time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v; aborting\n", runLimit)
		os.Exit(3)
	})
	defer watchdog.Stop()

	conns := min(maxConns, runtime.NumCPU())
	meta := map[string]any{
		"workload": w.name, "seed": *seed, "seconds": *seconds, "trace": *traceOn,
		"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(), "go": runtime.Version(),
		"commit": *commit, "fsync": "every append", "injected_delay": "none", "replicas": replicas,
		"conns": conns, "offered_ops_s": w.rate, "value_bytes": w.valueSize, "keys": w.keys,
		"why": w.why,
	}
	mb, _ := json.Marshal(meta) // a map of plain values always marshals
	fmt.Printf("meta %s\n", mb)

	res, err := runWorkload(w, runConfig{
		seed: *seed, seconds: *seconds, traced: *traceOn == 1, conns: conns, dir: *dir,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	res.print()
	out, err := json.Marshal(res.summary())
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if !res.ok() {
		// Violations and invalid open-loop runs fail the run: no result line.
		return 1
	}
	fmt.Println(string(out))
	return 0
}

func names() string {
	s := ""
	for i, w := range workloads {
		if i > 0 {
			s += ", "
		}
		s += w.name
	}
	return s
}

// runAll runs every workload untraced then traced, each in its own
// process so clusters, heaps and ports never overlap, and fails if any run
// fails.
func runAll(seed int64, seconds int, dir, commit string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	failed := false
	for _, w := range workloads {
		for _, tr := range []string{"0", "1"} {
			fmt.Printf("== %s trace=%s\n", w.name, tr)
			cmd := exec.Command(self, "--workload", w.name, "--seed", fmt.Sprint(seed),
				"--seconds", fmt.Sprint(seconds), "--trace", tr, "--dir", dir, "--commit", commit)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s trace=%s: %v\n", w.name, tr, err)
				failed = true
			}
		}
	}
	if failed {
		return 1
	}
	return 0
}

// runDir makes a fresh directory under dir for one cluster's data.
func runDir(dir, prefix string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	return os.MkdirTemp(abs, prefix)
}
