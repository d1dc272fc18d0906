// Command benchmark is the repository's serving benchmark: one
// in-process, count-based, closed-loop run of one workload against
// internal/server configured as `cmd/pqsda -serve` configures it.
//
//	bash benchmark/run.sh --workload tail_cold --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh --selfcheck
//
// The last line of standard output is the result, one JSON object with
// the keys correct, attempted, failed and metrics; everything meant for
// people goes to standard error. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
)

// buildDir is the one directory the benchmark writes to: relative to
// the checkout root it is started from, and listed in .gitignore.
const buildDir = ".bench_build"

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run, one of "+specFile+"'s")
		seed      = flag.Int64("seed", 1, "seed of the request script")
		seconds   = flag.Int("seconds", 10, "nominal seconds of timed work on the reference box; scales the script's operation counts, never a clock")
		trace     = flag.Int("trace", 0, "0: print the end-to-end metrics; 1: run traced passes too and print the per-layer metrics instead")
		traceOut  = flag.String("trace-out", "", "span file of a traced run (JSON lines; default "+buildDir+"/trace-<workload>-<seed>.jsonl)")
		selfcheck = flag.Bool("selfcheck", false, "measure the noise floor: two sets of runs per workload (all, or the one -workload names), one process per run as the driver starts them, checked against each metric's bound")
	)
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	spec, err := loadSpec(specFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: run from the checkout root:", err)
		os.Exit(2)
	}
	if *selfcheck {
		if err := selfCheck(spec, *workload, *seconds); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	if !spec.hasWorkload(*workload) {
		fmt.Fprintf(os.Stderr, "benchmark: -workload %q is not one of %s's\n", *workload, specFile)
		os.Exit(2)
	}
	p := fullPlan(spec, *workload, *seed, *seconds, *trace == 1)
	if p.trace {
		p.traceOut = *traceOut
		if p.traceOut == "" {
			p.traceOut = filepath.Join(buildDir, fmt.Sprintf("trace-%s-%d.jsonl", *workload, *seed))
		}
	}
	out, err := run(p)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// commit is the VCS revision the binary was built from, when the build
// saw one (a driver checkout is not a git repository).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
