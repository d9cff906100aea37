// Command perfbench is the repository benchmark. One run measures one
// workload for a fixed time and prints every metric BENCHMARK.json names,
// checking every result it gets back:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	perfbench --compare <dirA> <dirB>
//
// Workloads:
//
//	paper_analytics  the paper's k-Means and PageRank cells on an embedded
//	                 engine (no server, no WAL)
//	wire_mix         90% Zipf point reads and 10% durable inserts from
//	                 nproc closed-loop clients over the wire protocol
//	router_mix       the same op stream through the cluster router in front
//	                 of a semi-synchronous primary and one replica
//
// With --trace 0 a run reports the end-to-end metrics; with --trace 1 it
// reports the per-layer split instead, measured by spans around calls into
// each layer and by deltas of the engine's own counters. Compare mode reads
// two directories of saved run outputs and prints each side's median and
// quartiles per workload and end-to-end metric; it reports and never fails.
//
// It drives the program only through its public Go functions; the program
// sees nothing but the inputs generated from --seed.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// repetitions is how often a wire run sets its workload up and measures
// it. setup_s is the median set-up time and every other end-to-end metric
// the median over the repetitions (the rounds of a paper run), so one
// repetition slowed from outside the program (on a shared host, CPU time
// given to other guests, slower host I/O) does not move it.
const repetitions = 5

// sizes are the data sizes of a run. A wire repetition runs a fixed op
// count, opsPerSecond times --seconds over the repetitions, so it leaves
// the table and its index in the same state on any host; the rates are what
// a 2-core host sustains.
type sizes struct {
	points, vertices, edges int
	rows                    int
	wireRate, routerRate    int
}

func (s sizes) opsPerSecond(viaRouter bool) int {
	if viaRouter {
		return s.routerRate
	}
	return s.wireRate
}

var fullSize = sizes{points: 50_000, vertices: 11_000, edges: 100_000, rows: 1_000_000, wireRate: 20_000, routerRate: 10_000}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	size     sizes
	clients  int
	workers  int
	out      string // build area inside the checkout: data and spans
}

func (c config) duration() time.Duration { return time.Duration(c.seconds) * time.Second }

func (c config) dataDir() string {
	dir := filepath.Join(c.out, "data")
	os.MkdirAll(dir, 0o755) //nolint:errcheck // MkdirTemp inside reports the failure
	return dir
}

func (c config) writeSpans(tr *tracer, rep *report) error {
	path, err := tr.write(filepath.Join(c.out, "spans"), c.workload, c.seed)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	rep.line("spans %s", path)
	return nil
}

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// report collects one run's metrics, failures and metadata.
type report struct {
	values    map[string]float64
	samples   map[string]int
	reps      map[string][]float64 // per metric: one value per repetition
	lines     []string
	meta      map[string]any
	attempted int
	failed    int
}

func newReport() *report {
	return &report{values: map[string]float64{}, samples: map[string]int{}, reps: map[string][]float64{},
		meta: map[string]any{}}
}

// set records a metric with the number of samples it was derived from.
func (r *report) set(name string, v float64, n int) {
	r.values[name] = v
	r.samples[name] = n
}

func (r *report) line(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *report) count(attempted, failed int) {
	r.attempted += attempted
	r.failed += failed
}

// fail counts one failed check.
func (r *report) fail(format string, args ...any) {
	r.count(1, 1)
	logf(format, args...)
}

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...) }

// repetition records one repetition's value of a metric derived from n
// samples; the metric is the median over the repetitions so far.
func (r *report) repetition(name string, v float64, n int) {
	r.reps[name] = append(r.reps[name], v)
	r.set(name, median(r.reps[name]), r.samples[name]+n)
}

// setupRepeated sets the workload up n times, tearing all but the last
// down, and reports the median set-up time as setup_s. The caller owns the
// returned set-up.
func setupRepeated[T any](c config, rep *report, n int, setup func() (T, func(), error)) (T, error) {
	var secs []float64
	var last T
	for i := 0; i < n; i++ {
		t0 := time.Now()
		v, teardown, err := setup()
		if err != nil {
			return last, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		if i < n-1 {
			teardown()
			continue
		}
		last = v
	}
	rep.set("setup_s", median(secs), len(secs))
	return last, nil
}

func main() {
	var (
		workload = flag.String("workload", "", "paper_analytics, wire_mix or router_mix")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Int("seconds", 10, "measured time of the run")
		trace    = flag.Int("trace", 0, "1 reports the per-layer split instead of the end-to-end metrics")
		specPath = flag.String("benchmark", "BENCHMARK.json", "benchmark definition (metric names, units, bounds)")
		out      = flag.String("out", ".bench_build", "directory for data and spans")
		compare  = flag.Bool("compare", false, "compare two directories of saved run outputs (report only)")
	)
	flag.Parse()
	spec, err := loadSpec(*specPath)
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	if *compare {
		if flag.NArg() != 2 {
			logf("--compare needs two directories")
			os.Exit(2)
		}
		if err := compareRuns(os.Stdout, spec, flag.Arg(0), flag.Arg(1)); err != nil {
			logf("%v", err)
			os.Exit(1)
		}
		return
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		logf("bad arguments: seconds=%d trace=%d", *seconds, *trace)
		os.Exit(2)
	}
	nproc := runtime.NumCPU()
	c := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		size: fullSize, clients: nproc, workers: nproc, out: *out}
	rep, err := run(c)
	if err != nil {
		logf("%s: %v", c.workload, err)
		os.Exit(1)
	}
	if err := emit(os.Stdout, c, spec, rep); err != nil {
		logf("%v", err)
		os.Exit(1)
	}
}

// run executes one workload and fills its report.
func run(c config) (*report, error) {
	rep := newReport()
	steal0, total0 := cpuTicks()
	var err error
	switch c.workload {
	case "paper_analytics":
		err = paperWorkload(c, rep)
	case "wire_mix":
		err = wireWorkload(c, rep, false)
	case "router_mix":
		err = wireWorkload(c, rep, true)
	default:
		err = fmt.Errorf("unknown workload")
	}
	if err != nil {
		return nil, err
	}
	if steal1, total1 := cpuTicks(); total1 > total0 {
		rep.meta["host_steal_pct"] = 100 * float64(steal1-steal0) / float64(total1-total0)
	}
	rep.meta["workload"] = c.workload
	rep.meta["seed"] = c.seed
	rep.meta["seconds"] = c.seconds
	rep.meta["trace"] = c.trace
	rep.meta["command"] = strings.Join(os.Args, " ")
	rep.meta["date"] = time.Now().UTC().Format(time.RFC3339)
	rep.meta["cpu_model"] = cpuModel()
	rep.meta["nproc"] = runtime.NumCPU()
	rep.meta["gomaxprocs"] = runtime.GOMAXPROCS(0)
	rep.meta["go_version"] = runtime.Version()
	rep.meta["clients"] = c.clients
	rep.meta["workers"] = c.workers
	return rep, nil
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTicks returns the host's stolen and total CPU ticks from /proc/stat
// (zeros where unavailable). Stolen time is CPU the hypervisor gave to other
// guests; the share stolen during a run explains most of its slowdown on a
// shared host, so it is recorded with the run.
func cpuTicks() (steal, total uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// emit prints the run: metadata, one line per metric with its unit and
// sample count, and last the result object. End-to-end metrics must all
// be present; a per-layer metric of a layer the workload does not touch
// reads 0.
func emit(w io.Writer, c config, spec *benchSpec, rep *report) error {
	metrics := spec.EndToEnd
	if c.trace {
		metrics = spec.PerLayer
	}
	bw := bufio.NewWriter(w)
	meta, err := json.Marshal(rep.meta)
	if err != nil {
		return err
	}
	fmt.Fprintf(bw, "meta %s\n", meta)
	for _, l := range rep.lines {
		fmt.Fprintf(bw, "# %s\n", l)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]value{}
	for _, m := range metrics {
		v, ok := rep.values[m.Name]
		if !ok && !c.trace {
			return fmt.Errorf("workload %s did not measure %s", c.workload, m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", m.Name, v)
		}
		out[m.Name] = value{Value: v, Unit: m.Unit}
		fmt.Fprintf(bw, "metric %-34s %16.6f %-6s n=%d\n", m.Name, v, m.Unit, rep.samples[m.Name])
	}
	errRate := float64(rep.failed) / float64(max(rep.attempted, 1))
	fmt.Fprintf(bw, "metric %-34s %16.6f %-6s n=%d\n", "error_rate", errRate, "ratio", rep.attempted)
	res, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.failed == 0 && rep.attempted > 0, max(rep.attempted, 1), rep.failed, out})
	if err != nil {
		return err
	}
	fmt.Fprintf(bw, "%s\n", res)
	return bw.Flush()
}
