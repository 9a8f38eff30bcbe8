// Command perfbench is the GRAFICS benchmark. GRAFICS has two kinds of
// user: phones that send a crowdsourced WiFi scan and wait for a floor,
// and the crowd pipeline that absorbs scans into each building's graph
// and refits its E-LINE embedding and clustering model. perfbench
// measures both, end to end over loopback HTTP against production
// settings: a lifecycle manager with a real state directory, a WAL that
// fsyncs every append, fast (Hogwild) fits, and the default GOMAXPROCS.
//
// One invocation runs one workload (see workload.go and BENCHMARK.json
// for what each exercises and why):
//
//	read-3b            3 buildings on one single-role node; reads only
//	read-fleet-48b     48 buildings on 2 shard groups behind fleet.Router
//	absorb-mix         read-3b's node, one request in three an absorb
//	refit-under-load   read-3b's node, a trickle of absorbs, and one
//	                   building refit every 2 s
//
// Inputs are generated from -seed. Load is open-loop from one process:
// requests are due at a frozen fixed rate, at most nproc sender
// goroutines share at most nproc connections, and every latency is timed
// from when the request was due, so a stall is charged to the system.
//
// With -trace 0 a run brings the workload up five times and drives each
// deployment for a fifth of -seconds. It reports the end-to-end metrics:
// the median read latency (the median over deployments of the median
// over windows), micro- and macro-F of the replies against held-out
// truth, the peak live heap (the median over deployments of each one's
// peak), and setup_s, the median bring-up time. It
// checks correctness: no failed request, every absorb acknowledged with
// "absorbed":true, and micro-F at or above a frozen floor. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 1 a run brings the workload up once and reports the
// per-layer breakdown instead, measured from outside the program: spans
// from the benchmark's client, from middleware around each handler it
// mounts, and from a pass-through server.Router around the lifecycle
// manager; deltas of the process metrics registry; an allocation
// calibration; a serial in-process ladder over portfolio, core, rfgraph,
// embed and cluster; and the measurements too noisy on a small shared
// machine to gate on: read p99, the highest rate a rate ladder sustains,
// absorb latency and refit time. Spans are written as JSON lines to
// -spans.
//
//	perfbench -workload read-3b -seed 1 -seconds 20 -trace 0
//	perfbench -workload read-3b -seed 1 -seconds 20 -out runs.jsonl
//	perfbench -compare parent.jsonl change.jsonl
//	perfbench -workload read-3b -seconds 10 -calibrate
//
// -compare prints, per workload and end-to-end metric, both sides'
// median and quartiles and a verdict against the BENCHMARK.json bound:
// within, worse, or unresolved when the spread exceeds the bound.
// -calibrate measures the closed-loop capacity a workload's fixed rate
// was frozen from.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the JSON object printed as the last line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run executes the command and returns its exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "measured seconds, split across the run's phases")
	trace := fs.Int("trace", 0, "1 reports the per-layer breakdown instead of the end-to-end metrics")
	spans := fs.String("spans", "", "traced runs: write the spans here as JSON lines (default .bench_build/spans-<workload>.jsonl)")
	out := fs.String("out", "", "also append the result, tagged with workload and seed, to this JSON-lines file")
	cmp := fs.Bool("compare", false, "compare two result files against the bounds in ./BENCHMARK.json: perfbench -compare PARENT CHANGE")
	calibrate := fs.Bool("calibrate", false, "measure the workload's closed-loop capacity, from which its fixed rate was frozen")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cmp {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "perfbench: -compare needs two result files")
			return 2
		}
		bad, err := compare(stdout, "BENCHMARK.json", fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		if bad > 0 {
			return 1
		}
		return 0
	}
	spec, err := lookupWorkload(*workload)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive")
		return 2
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	stateDir, err := os.MkdirTemp(buildDir, "state-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(stateDir)
	cfg := runConfig{seconds: *seconds, trace: *trace == 1, stateDir: stateDir, tail: minTail, log: stderr}
	if *calibrate {
		rps, err := calibrateWorkload(context.Background(), spec, *seed, cfg)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s: closed-loop capacity %.0f requests/s; 40%% is %.0f/s (frozen rate %.0f/s)\n", spec.Name, rps, 0.4*rps, spec.Rate)
		return 0
	}
	if cfg.trace {
		cfg.spans = *spans
		if cfg.spans == "" {
			cfg.spans = filepath.Join(buildDir, "spans-"+spec.Name+".jsonl")
		}
	}
	o, err := runWorkload(context.Background(), spec, *seed, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res := result{Correct: len(o.problems) == 0 && o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: o.metrics}
	if o.failed > 0 {
		o.problems = append(o.problems, fmt.Sprintf("%d of %d operations failed", o.failed, o.attempted))
	}
	for _, p := range o.problems {
		fmt.Fprintln(stderr, "INCORRECT:", p)
	}
	for _, name := range o.order {
		m := o.metrics[name]
		if lm, ok := layerMetrics[name]; ok && cfg.trace {
			fmt.Fprintf(stdout, "%-34s %14.6g %-6s moves %s on %s\n", name, m.Value, m.Unit, lm.moves, lm.on)
			continue
		}
		fmt.Fprintf(stdout, "%-34s %14.6g %s\n", name, m.Value, m.Unit)
	}
	if *out != "" {
		if err := appendRecord(*out, record{Workload: spec.Name, Seed: *seed, Trace: cfg.trace, result: res}); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// buildDir is the checkout-local scratch directory the benchmark builds
// into and keeps its state in.
const buildDir = ".bench_build"

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
