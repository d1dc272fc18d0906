package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// selfCheckRuns is the size of each of selfCheck's two sets, the
// driver's.
const selfCheckRuns = 10

// selfCheck measures the benchmark's own noise floor the way the driver
// judges it: per workload (all of them, or only the one named), two
// sets of selfCheckRuns runs, run i of each set with seed i, every run a
// fresh process of this binary. For each end-to-end metric it prints both set medians, how much worse the
// second is than the first, and each set's quartile spread (Q3 − Q1 of
// statistics.quantiles(n=4), as a share of the median). It fails when a
// spread (setup_s excepted) or a median difference exceeds the metric's
// bound. The measuring process itself never starts a process; this
// outer loop does, because a run's peak RSS and heap history are only
// honest in a process of its own.
func selfCheck(spec *benchSpec, only string, seconds int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	failed := 0
	fmt.Printf("| workload | metric | median A | median B | B worse by | spread A | spread B | bound | |\n|---|---|---|---|---|---|---|---|---|\n")
	for _, wl := range spec.Workloads {
		w := wl.Name
		if only != "" && only != w {
			continue
		}
		var sets [2]map[string][]float64
		for set := range sets {
			sets[set] = map[string][]float64{}
			for seed := 1; seed <= selfCheckRuns; seed++ {
				out, err := childRun(exe, w, seed, seconds)
				if err != nil {
					return fmt.Errorf("%s set %c seed %d: %w", w, 'A'+set, seed, err)
				}
				for name, m := range out.Metrics {
					sets[set][name] = append(sets[set][name], m.Value)
				}
			}
		}
		for _, d := range spec.EndToEnd {
			a, b := sets[0][d.Name], sets[1][d.Name]
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma
			if d.Better == "higher" {
				worse = -worse
			}
			if ma == mb {
				worse = 0 // not -0
			}
			sa, sb := spread(a), spread(b)
			verdict := "ok"
			if worse > d.Bound || (d.Name != "setup_s" && (sa > d.Bound || sb > d.Bound)) {
				verdict = "FAIL"
				failed++
			} else if d.Name != "setup_s" && (sa > d.Bound/3 || sb > d.Bound/3) {
				verdict = "ok (spread above a third of the bound)"
			}
			fmt.Printf("| %s | %s | %.6g | %.6g | %+.2f%% | %.2f%% | %.2f%% | %.2g%% | %s |\n",
				w, d.Name, ma, mb, 100*worse, 100*sa, 100*sb, 100*d.Bound, verdict)
		}
	}
	if failed > 0 {
		return fmt.Errorf("selfcheck: %d metric(s) outside their bound", failed)
	}
	return nil
}

// spread is the interquartile range as a share of the median.
func spread(v []float64) float64 {
	q1, q3 := quartiles(v)
	if m := median(v); m != 0 {
		return (q3 - q1) / m
	}
	return 0
}

// childRun starts one run as the driver does and parses its result
// line. The child's report is shown only when the run fails.
func childRun(exe, workload string, seed, seconds int) (outcome, error) {
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.Itoa(seed),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	var report bytes.Buffer
	cmd.Stderr = &report
	stdout, err := cmd.Output()
	if err != nil {
		os.Stderr.Write(report.Bytes())
		return outcome{}, err
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var out outcome
	if err := json.Unmarshal(lines[len(lines)-1], &out); err != nil {
		return outcome{}, fmt.Errorf("bad result line: %w", err)
	}
	if !out.Correct || out.Failed > 0 {
		os.Stderr.Write(report.Bytes())
		return outcome{}, fmt.Errorf("run incorrect: %d of %d failed", out.Failed, out.Attempted)
	}
	return out, nil
}
