package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"lambdadb/internal/analytics"
	"lambdadb/internal/bench"
	"lambdadb/internal/engine"
	"lambdadb/internal/exec"
	"lambdadb/internal/expr"
	"lambdadb/internal/graph"
	"lambdadb/internal/sql"
	"lambdadb/internal/types"
)

// The paper's Section 8 cells at benchmark scale: k-Means with d=10, k=5
// and 3 Lloyd iterations; PageRank with damping 0.85 and 10 iterations on
// an LDBC-like graph.
const (
	kmD, kmK, kmIters = 10, 5, 3
	prDamping         = 0.85
	prIters           = 10
	// shortReps repeats each built-in-operator cell per round, so the short
	// cells collect enough samples next to the two slow ITERATE cells.
	shortReps = 10
	// paperSetups is how often a paper run loads its data: a load takes
	// tens of milliseconds, so many of them steady the median.
	paperSetups = 21
)

// cell is one analytical query of the paper workload. Light cells run the
// built-in analytical operators; heavy cells are the same algorithms
// written SQL-centrically with ITERATE.
type cell struct {
	name   string
	query  string
	heavy  bool
	kmeans bool // result is k-Means centers (else PageRank ranks)
	reps   int
}

func paperCells() []cell {
	return []cell{
		{name: "kmeans_operator", query: bench.KMeansOperatorQuery(kmD, kmIters), kmeans: true, reps: shortReps},
		{name: "kmeans_lambda", query: bench.KMeansOperatorLambdaQuery(kmD, kmIters), kmeans: true, reps: shortReps},
		{name: "pagerank_operator", query: bench.PageRankOperatorQuery(prDamping, 0, prIters), reps: shortReps},
		{name: "kmeans_iterate", query: bench.KMeansIterateQuery(kmD, kmIters), heavy: true, kmeans: true, reps: 1},
		{name: "pagerank_iterate", query: bench.PageRankIterateQuery(prDamping, prIters), heavy: true, reps: 1},
	}
}

// paperData is one set-up of the paper workload: two embedded engines (no
// server, no WAL) holding the k-Means points/centers and the graph's edges.
type paperData struct {
	km *bench.KMeansDataset
	pr *bench.PageRankDataset
}

func setupPaper(c config) (*paperData, error) {
	km, err := bench.PrepareKMeans(bench.KMeansConfig{N: c.size.points, D: kmD, K: kmK, Iters: kmIters, Seed: c.seed})
	if err != nil {
		return nil, fmt.Errorf("prepare k-means: %w", err)
	}
	pr, err := bench.PreparePageRank(bench.PageRankConfig{Vertices: c.size.vertices,
		DirectedEdges: c.size.edges, Damping: prDamping, Iters: prIters, Seed: c.seed + 1})
	if err != nil {
		return nil, fmt.Errorf("prepare pagerank: %w", err)
	}
	return &paperData{km: km, pr: pr}, nil
}

func (p *paperData) db(c cell) *engine.DB {
	if c.kmeans {
		return p.km.DB
	}
	return p.pr.DB
}

// paperRun is what one measured phase of the paper workload produced.
type paperRun struct {
	ns        map[string][]int64 // per cell: execution times
	cpuNs     map[string][]int64 // per cell: process CPU time of each execution
	attempted int
	failed    int
	elapsed   time.Duration
	rounds    []round
	stats     map[string]*exec.OpStats // traced: last stats tree per heavy cell
	peak      map[string]int64         // traced: peak tracked bytes per heavy cell
}

// round is one pass over every cell: its executions, wall time and the
// process's CPU time.
type round struct {
	execs   int
	elapsed time.Duration
	cpu     time.Duration
}

// checker holds the reference results every execution is compared with:
// the built-in operators' first answers.
type checker struct {
	centers [][]float64
	ranks   map[int64]float64
}

// runPaper executes rounds of every cell until d has passed (at least one
// round, so d = 0 is a warm-up round), checking each result. With tr
// non-nil every execution is a span and the heavy cells run with
// per-operator statistics armed.
func runPaper(p *paperData, d time.Duration, ref *checker, tr *tracer) *paperRun {
	cells := paperCells()
	run := &paperRun{ns: map[string][]int64{}, cpuNs: map[string][]int64{},
		stats: map[string]*exec.OpStats{}, peak: map[string]int64{}}
	sessions := map[string]*engine.Session{}
	for _, c := range cells {
		s := p.db(c).NewSession()
		defer s.Close()
		s.CollectStats(tr != nil && c.heavy)
		sessions[c.name] = s
	}
	runtime.GC() // start from a collected heap, as drive does
	start := time.Now()
	for len(run.rounds) == 0 || time.Since(start) < d {
		cpu0, t0, n0 := processCPU(), time.Now(), run.attempted
		for _, c := range cells {
			for r := 0; r < c.reps; r++ {
				s := sessions[c.name]
				c0, t0 := processCPU(), time.Now()
				res, err := s.Exec(c.query)
				t1, c1 := time.Now(), processCPU()
				tr.add("cell."+c.name, 0, int64(run.attempted), t0, t1)
				run.attempted++
				run.ns[c.name] = append(run.ns[c.name], t1.Sub(t0).Nanoseconds())
				run.cpuNs[c.name] = append(run.cpuNs[c.name], (c1 - c0).Nanoseconds())
				if err == nil {
					err = ref.check(c, res)
				}
				if err != nil {
					run.failed++
					logf("paper %s: %v", c.name, err)
				}
				if tr != nil && c.heavy {
					run.stats[c.name] = s.LastStats()
					run.peak[c.name] = s.LastPeakBytes()
				}
			}
		}
		run.rounds = append(run.rounds, round{execs: run.attempted - n0, elapsed: time.Since(t0), cpu: processCPU() - cpu0})
	}
	run.elapsed = time.Since(start)
	return run
}

// check compares one result with the reference (set from the first
// operator result of its algorithm), with the 1e-9 tolerance of the
// variant-agreement tests of internal/bench.
func (ref *checker) check(c cell, res *engine.Result) error {
	if c.kmeans {
		rows := make([][]float64, len(res.Rows))
		for i, row := range res.Rows {
			for _, v := range row[1:] {
				rows[i] = append(rows[i], v.AsFloat())
			}
		}
		return ref.checkCenters(rows)
	}
	got := map[int64]float64{}
	for _, row := range res.Rows {
		got[row[0].AsInt()] = row[1].AsFloat()
	}
	return ref.checkRanks(got)
}

const tol = 1e-9

// checkCenters compares centers, sorted because cluster ids are not
// comparable across variants.
func (ref *checker) checkCenters(got [][]float64) error {
	sortCenters(got)
	if ref.centers == nil {
		ref.centers = got
	}
	if len(got) != kmK || len(got) != len(ref.centers) {
		return fmt.Errorf("%d centers, want %d", len(got), kmK)
	}
	for i := range got {
		for j := range got[i] {
			if math.Abs(got[i][j]-ref.centers[i][j]) > tol {
				return fmt.Errorf("center %d dim %d = %v, want %v", i, j, got[i][j], ref.centers[i][j])
			}
		}
	}
	return nil
}

func (ref *checker) checkRanks(got map[int64]float64) error {
	if ref.ranks == nil {
		ref.ranks = got
	}
	if len(got) == 0 || len(got) != len(ref.ranks) {
		return fmt.Errorf("%d ranks, want %d", len(got), len(ref.ranks))
	}
	for v, want := range ref.ranks {
		if math.Abs(got[v]-want) > tol {
			return fmt.Errorf("rank[%d] = %v, want %v", v, got[v], want)
		}
	}
	return nil
}

// sortCenters orders center coordinates lexicographically.
func sortCenters(cs [][]float64) {
	sort.Slice(cs, func(i, j int) bool {
		for x := range cs[i] {
			if cs[i][x] != cs[j][x] {
				return cs[i][x] < cs[j][x]
			}
		}
		return false
	})
}

func paperWorkload(c config, rep *report) error {
	p, err := setupRepeated(c, rep, paperSetups, func() (*paperData, func(), error) {
		p, err := setupPaper(c)
		return p, func() {}, err
	})
	if err != nil {
		return err
	}
	rep.meta["data"] = map[string]any{"points": c.size.points, "d": kmD, "k": kmK, "kmeans_iters": kmIters,
		"vertices": c.size.vertices, "directed_edges": len(p.pr.Graph.Src), "pagerank_iters": prIters,
		"short_cell_reps_per_round": shortReps}
	rep.meta["durability"] = "none (embedded engine, no WAL)"
	ref := &checker{}
	// One untimed round first, so the heap has grown to the ITERATE cells'
	// working size before any execution is measured. Its results are
	// checked like the others.
	warm := runPaper(p, 0, ref, nil)
	rep.count(warm.attempted, warm.failed)
	if !c.trace {
		run := runPaper(p, c.duration(), ref, nil)
		rep.count(run.attempted, run.failed)
		paperEndToEnd(run, rep)
		return nil
	}
	// Traced: an untraced half, then a traced half on the same read-only
	// data, so the difference is what tracing costs.
	plain := runPaper(p, c.duration()/2, ref, nil)
	tr := newTracer()
	traced := runPaper(p, c.duration()/2, ref, tr)
	rep.count(plain.attempted+traced.attempted, plain.failed+traced.failed)
	rep.set("trace.overhead_pct", overheadPct(rate(plain.attempted, plain.elapsed), rate(traced.attempted, traced.elapsed)), 1)
	paperLayers(c, p, traced, tr, ref, rep)
	return c.writeSpans(tr, rep)
}

func rate(n int, d time.Duration) float64 { return float64(n) / d.Seconds() }

// overheadPct is how much slower the traced throughput is, in percent.
func overheadPct(plain, traced float64) float64 { return (plain/traced - 1) * 100 }

// paperEndToEnd reports the light class (built-in operators) and the heavy
// class (ITERATE) as the sum over their cells of each cell's median CPU
// time per execution (all of the process's threads): the compute one
// execution of every cell of the class costs. CPU time leaves out the time
// the hypervisor gives the machine's CPUs to other guests, which moves
// wall time by 10-20% between runs of the same code on a shared host; the
// wall times are printed per cell. CPU per query is the median round's (see
// repetitions).
func paperEndToEnd(run *paperRun, rep *report) {
	for i, r := range run.rounds {
		rep.repetition("cpu_us_per_op", r.cpu.Seconds()*1e6/float64(r.execs), r.execs)
		rep.line("round %d: %.3f queries/s", i, rate(r.execs, r.elapsed))
	}
	var light, heavy float64
	var nLight, nHeavy int
	for _, c := range paperCells() {
		xs := msOf(run.ns[c.name])
		p50 := median(msOf(run.cpuNs[c.name]))
		rep.line("%-28s median %10.6f s  best %10.6f s  cpu median %10.6f s  n=%d",
			c.name+"_s", median(xs)/1e3, slices.Min(xs)/1e3, p50/1e3, len(xs))
		if c.heavy {
			heavy += p50
			nHeavy += len(xs)
		} else {
			light += p50
			nLight += len(xs)
		}
	}
	rep.set("light_ms", light, nLight)
	rep.set("heavy_ms", heavy, nHeavy)
}

func msOf(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	return out
}

// paperLayers derives the per-layer split of the paper workload: operator
// self times and estimate accuracy from the ITERATE stats trees, and direct
// timings of the expression evaluator, the analytics kernels and the graph
// index on the same data, whose results are checked like the queries'.
func paperLayers(c config, p *paperData, run *paperRun, tr *tracer, ref *checker, rep *report) {
	km := opBreakdown(run.stats["kmeans_iterate"])
	rep.set("exec.kmeans_iterate.join_s", km.self["join"], 1)
	rep.set("exec.kmeans_iterate.agg_s", km.self["agg"], 1)
	rep.set("exec.kmeans_iterate.project_s", km.self["project"], 1)
	rep.set("exec.kmeans_iterate.scan_s", km.self["scan"], 1)
	rep.set("exec.kmeans_iterate.rows", float64(km.rows), 1)
	rep.set("exec.kmeans_iterate.peak_mib", float64(run.peak["kmeans_iterate"])/(1<<20), 1)
	rep.set("plan.kmeans_iterate.est_ratio", km.estRatio, 1)
	pr := opBreakdown(run.stats["pagerank_iterate"])
	rep.set("exec.pagerank_iterate.join_s", pr.self["join"], 1)
	rep.set("exec.pagerank_iterate.agg_s", pr.self["agg"], 1)
	rep.set("exec.pagerank_iterate.rows", float64(pr.rows), 1)

	ds := p.km
	pts, cts := ds.Data, ds.Centers
	const probeReps = 5
	sq, err := compileSqDist()
	if err == nil {
		var lam expr.FloatFn
		lam, err = compileBenchLambda()
		if err == nil {
			pairBatch := pairs(pts, cts, c.size.points)
			for i := 0; i < probeReps; i++ {
				tr.timed("expr.sqdist", 0, func() { _, err = sq(pairBatch) })
				tr.timed("expr.lambda", 0, func() { lambdaAll(lam, pts, cts, c.size.points) })
			}
		}
	}
	if err != nil {
		rep.fail("expr probe: %v", err)
	}
	nPairs := float64(c.size.points * kmK)
	for i := 0; i < probeReps; i++ {
		var kmRes *analytics.KMeansResult
		tr.timed("analytics.kmeans", 0, func() {
			kmRes, err = analytics.KMeans(pts, c.size.points, kmD, append([]float64(nil), cts...), kmK,
				analytics.KMeansOptions{MaxIter: kmIters, Workers: c.workers})
		})
		if err == nil {
			centers := make([][]float64, kmK)
			for k := range centers {
				centers[k] = kmRes.Centers[k*kmD : (k+1)*kmD]
			}
			err = ref.checkCenters(centers)
		}
		if err != nil {
			rep.fail("analytics.KMeans: %v", err)
		}
		var g *graph.CSR
		tr.timed("graph.build", 0, func() { g, err = graph.Build(p.pr.Graph.Src, p.pr.Graph.Dst) })
		if err != nil {
			rep.fail("graph.Build: %v", err)
			continue
		}
		var prRes *analytics.PageRankResult
		tr.timed("analytics.pagerank", 0, func() {
			prRes, err = analytics.PageRank(g, analytics.PageRankOptions{Damping: prDamping, MaxIter: prIters, Workers: c.workers})
		})
		if err == nil {
			ranks := make(map[int64]float64, len(prRes.Ranks))
			for i, r := range prRes.Ranks {
				ranks[g.OrigIDs[i]] = r
			}
			err = ref.checkRanks(ranks)
		}
		if err != nil {
			rep.fail("analytics.PageRank: %v", err)
		}
	}
	self := tr.selfTimes(false)
	rep.set("expr.sqdist_ns_per_row", medianNs(self["expr.sqdist"])/nPairs, len(self["expr.sqdist"]))
	rep.set("expr.lambda_ns_per_pair", medianNs(self["expr.lambda"])/nPairs, len(self["expr.lambda"]))
	rep.set("analytics.kmeans_s", medianNs(self["analytics.kmeans"])/1e9, len(self["analytics.kmeans"]))
	rep.set("analytics.pagerank_s", medianNs(self["analytics.pagerank"])/1e9, len(self["analytics.pagerank"]))
	rep.set("graph.csr_build_s", medianNs(self["graph.build"])/1e9, len(self["graph.build"]))
}

func medianNs(ns []int64) float64 {
	xs := make([]float64, len(ns))
	for i, v := range ns {
		xs[i] = float64(v)
	}
	return median(xs)
}

// breakdown is an ITERATE stats tree folded by operator kind.
type breakdown struct {
	self     map[string]float64 // seconds of self time per kind
	rows     int64              // rows emitted by all operators
	estRatio float64            // max actual/estimated rows over the tree
}

func opBreakdown(st *exec.OpStats) breakdown {
	b := breakdown{self: map[string]float64{}}
	var walk func(*exec.OpStats)
	walk = func(s *exec.OpStats) {
		if s == nil {
			return
		}
		self := s.TimeNanos
		for _, ch := range s.Children {
			self -= ch.TimeNanos
			walk(ch)
		}
		b.self[opKind(s.Name)] += float64(max(self, 0)) / 1e9
		b.rows += s.RowsOut
		if s.Est > 0 && s.Instances > 0 {
			b.estRatio = max(b.estRatio, float64(s.RowsOut)/s.Est)
		}
	}
	walk(st)
	return b
}

// opKind classifies an operator by its EXPLAIN label.
func opKind(name string) string {
	switch {
	case strings.Contains(name, "Join"):
		return "join"
	case strings.HasPrefix(name, "Aggregate"):
		return "agg"
	case strings.HasPrefix(name, "Project"):
		return "project"
	case strings.Contains(name, "Scan"):
		return "scan"
	}
	return "other"
}

// compileSqDist compiles the ITERATE step's distance expression, the sum of
// (p.dj - c.dj)^2, against the schema of a points×centers pair batch.
func compileSqDist() (expr.Evaluator, error) {
	st, err := sql.ParseOne("SELECT " + sqDistText() + " FROM points p, centers c")
	if err != nil {
		return nil, err
	}
	core, ok := st.(*sql.Select).Body.(*sql.SelectCore)
	if !ok {
		return nil, fmt.Errorf("unexpected select shape %T", st.(*sql.Select).Body)
	}
	rc := vectorCtx("p").Concat(vectorCtx("c"))
	e, err := expr.Resolve(core.Items[0].Expr, rc)
	if err != nil {
		return nil, err
	}
	return expr.Compile(e)
}

func sqDistText() string {
	terms := make([]string, kmD)
	for j := range terms {
		terms[j] = fmt.Sprintf("(p.d%d - c.d%d)^2", j, j)
	}
	return strings.Join(terms, " + ")
}

func vectorSchema() types.Schema {
	s := make(types.Schema, kmD)
	for j := range s {
		s[j] = types.ColumnInfo{Name: fmt.Sprintf("d%d", j), Type: types.Float64}
	}
	return s
}

func vectorCtx(qual string) *expr.ResolveCtx { return expr.NewResolveCtx(vectorSchema(), qual) }

// pairs materializes every (point, center) pair as one batch row of 2d
// float columns, the input shape of the ITERATE step's distance projection.
func pairs(pts, cts []float64, n int) *types.Batch {
	b := types.NewBatch(append(vectorSchema(), vectorSchema()...))
	for i := 0; i < n; i++ {
		for k := 0; k < kmK; k++ {
			for j := 0; j < kmD; j++ {
				b.Cols[j].AppendFloat(pts[i*kmD+j])
				b.Cols[kmD+j].AppendFloat(cts[k*kmD+j])
			}
		}
	}
	return b
}

// compileBenchLambda compiles the λ of the kmeans_lambda cell, taken from
// its query text, bound to the points and centers schemas.
func compileBenchLambda() (expr.FloatFn, error) {
	st, err := sql.ParseOne(bench.KMeansOperatorLambdaQuery(kmD, kmIters))
	if err != nil {
		return nil, err
	}
	var lam *expr.Lambda
	if core, ok := st.(*sql.Select).Body.(*sql.SelectCore); ok {
		if tf, ok := core.From.(*sql.TableFunc); ok {
			for _, a := range tf.Args {
				if a.Lambda != nil {
					lam = a.Lambda
				}
			}
		}
	}
	if lam == nil {
		return nil, fmt.Errorf("no lambda in the kmeans_lambda query")
	}
	bound, err := expr.BindLambda(lam, []types.Schema{vectorSchema(), vectorSchema()})
	if err != nil {
		return nil, err
	}
	return expr.CompileFloatLambda(bound)
}

var lambdaSink float64

func lambdaAll(fn expr.FloatFn, pts, cts []float64, n int) {
	var s float64
	for i := 0; i < n; i++ {
		for k := 0; k < kmK; k++ {
			s += fn(pts[i*kmD:(i+1)*kmD], cts[k*kmD:(k+1)*kmD])
		}
	}
	lambdaSink = s
}
