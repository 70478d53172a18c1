// Command perfbench is the repository benchmark: four steady workloads
// driven through the live ulipc runtime, each printing its end-to-end
// metrics (untraced run) or its per-layer metrics (traced run) as the
// last line of standard output. perfbench/run.py builds and runs it;
// BENCHMARK.json lists the workloads and metrics.
//
//	perfbench --workload pingpong --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"ulipc/internal/core"
	"ulipc/internal/livebind"
)

const (
	trialsPerRun = 100                   // measured trials per run, each on a fresh system
	extraSetups  = 1                     // set-up-only rounds before each trial; setup_s is the median of all
	warmup       = 30 * time.Millisecond // untimed traffic before each trial's window
)

// runCfg is one invocation's settings.
type runCfg struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	exe      string // this binary, re-executed for child processes
	traceDir string
}

// measure is the length of one measured window: the whole run, or
// half of it when the traced run also measures the untraced baseline
// its overhead is taken against.
func (rc *runCfg) measure() time.Duration {
	d := time.Duration(rc.seconds * float64(time.Second))
	if rc.trace {
		d /= 2
	}
	return d
}

// perTrial is the measured window of one trial.
func (rc *runCfg) perTrial() time.Duration { return rc.measure() / trialsPerRun }

// watchdog bounds every blocking call of a run.
func (rc *runCfg) watchdog() time.Duration {
	return time.Duration(2*rc.seconds*float64(time.Second)) + 60*time.Second
}

var workloads = map[string]func(*runCfg, *checks) (*outcome, error){
	"pingpong": func(rc *runCfg, ck *checks) (*outcome, error) {
		return runInproc(rc, inprocSpec{alg: core.BSA, clients: 1, observer: true}, ck)
	},
	"wake2": func(rc *runCfg, ck *checks) (*outcome, error) {
		return runInproc(rc, inprocSpec{alg: core.BSW, clients: 2}, ck)
	},
	"xproc-zc": runXproc,
	"burst":    runBurst,
}

func main() {
	switch os.Getenv(roleEnv) {
	case "xclient":
		os.Exit(xclientMain())
	case "futexpeer":
		os.Exit(futexPeerMain())
	}
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: pingpong, wake2, xproc-zc or burst")
	seed := fs.Uint64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 10, "length of the measured run in seconds")
	trace := fs.Int("trace", 0, "1 for the traced run (per-layer metrics), 0 for end-to-end metrics")
	traceDir := fs.String("trace-dir", ".bench_build/trace", "where the traced run writes its spans")
	commit := fs.String("commit", "unknown", "source revision, for the environment stamp")
	if err := fs.Parse(args); err != nil {
		return err
	}
	runW, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		return errors.New("need --seconds > 0 and --trace 0 or 1")
	}
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locate binary: %w", err)
	}
	rc := &runCfg{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, exe: exe, traceDir: *traceDir}
	ck := &checks{}
	out, err := runW(rc, ck)
	if err != nil {
		return err
	}
	defs, values := endToEnd, out.e2e
	if rc.trace {
		if err := runProbes(rc, out); err != nil {
			return fmt.Errorf("probes: %w", err)
		}
		defs, values = perLayer, out.layer
	}

	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]metric{}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok && !rc.trace {
			return fmt.Errorf("workload %s did not measure %s", rc.workload, d.Name)
		}
		metrics[d.Name] = metric{v, d.Unit}
		fmt.Printf("metric %-28s %16.6g %-6s (%s is better)\n", d.Name, v, d.Unit, d.Better)
	}
	if !rc.trace {
		for _, d := range tails {
			fmt.Printf("tail   %-28s %16.6g %-6s (%s is better; not in the result)\n", d.Name, values[d.Name], d.Unit, d.Better)
		}
	}
	report := map[string]any{
		"env": map[string]any{
			"workload": rc.workload, "seed": rc.seed, "seconds": rc.seconds, "trace": rc.trace,
			"gomaxprocs": runtime.GOMAXPROCS(0), "num_cpu": runtime.NumCPU(),
			"go_version": runtime.Version(), "futex_backend": livebind.FutexBackend, "commit": *commit,
		},
		"samples": out.dists,
		"checks":  map[string]any{"failed": ck.failed, "violations": ck.notes},
		"info":    out.info,
	}
	if err := printJSON("report ", report); err != nil {
		return err
	}
	for _, n := range ck.notes {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", n)
	}
	return printJSON("", map[string]any{
		"correct":   ck.failed == 0,
		"attempted": max(out.attempted, 1),
		"failed":    ck.failed,
		"metrics":   metrics,
	})
}

// printJSON prints one line: prefix, then v as JSON with sorted keys.
func printJSON(prefix string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	fmt.Printf("%s%s\n", prefix, b)
	return nil
}
