// Command evbench is evolvevm's end-to-end benchmark. It runs one named
// workload against the program's public entry points, checks every output
// against references recorded in evbench/ref, and prints every metric by
// name with its unit; the last line of standard output is one JSON
// object {"correct", "attempted", "failed", "metrics"}.
//
//	bash evbench/run.sh --workload serve-steady --seed 1 --seconds 40 --trace 0
//	bash evbench/run.sh --workload fig10 --seed 1 --seconds 40 --trace 1
//
// --trace 0 reports the end-to-end metrics, measured untraced. --trace 1
// runs the workload once untraced and once traced and reports the
// per-layer metrics plus the tracing overhead (traced minus untraced
// end-to-end numbers). Every measurement runs in a fresh child process,
// so process-wide caches start cold as they do for a freshly started
// server or a fresh expdriver. See README.md in this directory.
//
// Two more subcommands maintain and use the results:
//
//	evbench record [--workload W]             # rewrite references when virtual outcomes are meant to change
//	evbench compare OLD NEW                   # diff two saved outputs; refuses mixed CPUs
package main

import (
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "child":
			os.Exit(childMain(os.Args[2:]))
		case "record":
			os.Exit(recordMain(os.Args[2:]))
		case "compare":
			os.Exit(compareMain(os.Args[2:], os.Stdout))
		}
	}
	os.Exit(parentMain(os.Args[1:]))
}

func parentMain(args []string) int {
	fs := flag.NewFlagSet("evbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: serve-steady, serve-churn or fig10")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 20, "measured time per run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics and tracing overhead")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := workloadByName(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "evbench: need --workload (serve-steady|serve-churn|fig10), --seconds >= 1, --trace 0|1\n")
		return 2
	}
	cfg := runConfig{
		Workload: w.name,
		Seed:     *seed,
		Seconds:  time.Duration(*seconds) * time.Second,
	}
	res, err := measure(w, cfg, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "evbench: %v\n", err)
		return 1
	}
	report(os.Stdout, res, *trace == 1)
	if !res.Correct {
		return 1
	}
	return 0
}
