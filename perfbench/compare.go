package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// savedRun is one saved run output: the workload from its meta line and
// the metrics of its last line.
type savedRun struct {
	workload string
	metrics  map[string]float64
}

func readRuns(dir string) ([]savedRun, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		return nil, err
	}
	var runs []savedRun
	for _, p := range paths {
		r, err := readRun(p)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if r != nil {
			runs = append(runs, *r)
		}
	}
	return runs, nil
}

// readRun parses one run's standard output; it returns nil for a file that
// holds no result, such as a run that failed.
func readRun(path string) (*savedRun, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var meta struct {
		Workload string `json:"workload"`
		Trace    bool   `json:"trace"`
	}
	var last string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "meta "); ok {
			if err := json.Unmarshal([]byte(rest), &meta); err != nil {
				return nil, err
			}
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	var res struct {
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if meta.Workload == "" || meta.Trace || json.Unmarshal([]byte(last), &res) != nil {
		return nil, nil
	}
	r := &savedRun{workload: meta.Workload, metrics: map[string]float64{}}
	for k, v := range res.Metrics {
		r.metrics[k] = v.Value
	}
	return r, nil
}

// compareRuns prints, per workload and end-to-end metric, the median and
// quartiles of both sides, each side's spread (quartile distance over
// median) against a third of the bound, and whether B's median is worse
// than A's by more than the bound. It only reports.
func compareRuns(w io.Writer, spec *benchSpec, dirA, dirB string) error {
	a, err := readRuns(dirA)
	if err != nil {
		return err
	}
	b, err := readRuns(dirB)
	if err != nil {
		return err
	}
	workloads := map[string]bool{}
	for _, r := range append(append([]savedRun(nil), a...), b...) {
		workloads[r.workload] = true
	}
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-16s %-16s %5s %12s %12s %12s %7s | %5s %12s %12s %12s %7s | %8s %6s %s\n",
		"workload", "metric", "nA", "q1A", "medA", "q3A", "sprA", "nB", "q1B", "medB", "q3B", "sprB", "worse", "bound", "verdict")
	for _, wl := range names {
		for _, m := range spec.EndToEnd {
			xa, xb := values(a, wl, m.Name), values(b, wl, m.Name)
			if len(xa) < 2 || len(xb) < 2 {
				fmt.Fprintf(w, "%-16s %-16s too few runs (%d, %d)\n", wl, m.Name, len(xa), len(xb))
				continue
			}
			q1a, ma, q3a := quartiles(xa)
			q1b, mb, q3b := quartiles(xb)
			spa, spb := (q3a-q1a)/ma, (q3b-q1b)/mb
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = (ma - mb) / ma
			}
			var verdict []string
			if worse > m.Bound {
				verdict = append(verdict, "WORSE>bound")
			}
			if m.Name != "setup_s" && (spa > m.Bound/3 || spb > m.Bound/3) {
				verdict = append(verdict, "spread>bound/3")
			}
			if len(verdict) == 0 {
				verdict = append(verdict, "ok")
			}
			fmt.Fprintf(w, "%-16s %-16s %5d %12.6g %12.6g %12.6g %7.4f | %5d %12.6g %12.6g %12.6g %7.4f | %8.4f %6.3f %s\n",
				wl, m.Name, len(xa), q1a, ma, q3a, spa, len(xb), q1b, mb, q3b, spb, worse, m.Bound, strings.Join(verdict, ","))
		}
	}
	return nil
}

func values(runs []savedRun, workload, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r.metrics[metric]; ok && r.workload == workload {
			out = append(out, v)
		}
	}
	return out
}
