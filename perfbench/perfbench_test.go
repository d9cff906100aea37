package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"lambdadb/internal/plancache"
)

func TestGenOpsDeterministicPerSeed(t *testing.T) {
	a, b := genOps(7, 5000, 1000), genOps(7, 5000, 1000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different op streams")
	}
	if reflect.DeepEqual(a, genOps(8, 5000, 1000)) {
		t.Fatal("different seeds gave the same op stream")
	}
	next, writes := int64(1000), 0
	for i, o := range a {
		if o.write {
			if o.key != next {
				t.Fatalf("op %d inserts key %d, want fresh key %d", i, o.key, next)
			}
			next++
			writes++
		} else if o.key < 0 || o.key >= 1000 {
			t.Fatalf("op %d reads key %d outside the loaded keys", i, o.key)
		}
	}
	if share := float64(writes) / float64(len(a)); share < 0.08 || share > 0.12 {
		t.Errorf("write share %.3f, want about %.2f", share, writeShare)
	}
	if valueOf(7, 42) != valueOf(7, 42) || valueOf(7, 42) == valueOf(8, 42) {
		t.Error("valueOf is not a per-seed function of the key")
	}
}

// TestZipfHotShare checks the property the wire mix is built on: roughly
// half of the reads at full size (about 60%) land on the 256 hottest keys,
// the plan cache's default capacity.
func TestZipfHotShare(t *testing.T) {
	ops := genOps(1, 200_000, fullSize.rows)
	reads, hot := 0, 0
	for _, o := range ops {
		if o.write {
			continue
		}
		reads++
		if o.key < plancache.DefaultSize {
			hot++
		}
	}
	share := float64(hot) / float64(reads)
	t.Logf("top-256 read share %.3f", share)
	if share < 0.4 || share > 0.7 {
		t.Errorf("top-256 read share %.3f, want roughly 0.5", share)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q2, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles = %v %v %v, want 0.75 1.5 2.25", q1, q2, q3)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "kid", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "kid", Start: 30, End: 50},
		{ID: 4, Parent: 1, Name: "kid", Start: 90, End: 120},
		{ID: 5, Name: "lone", Start: 0, End: 7},
	}
	self := tr.selfTimes(false)
	if got := self["root"]; len(got) != 1 || got[0] != 100-40-10 {
		t.Errorf("root self = %v, want [50]", got)
	}
	joined := tr.selfTimes(true)
	if _, ok := joined["lone"]; ok {
		t.Error("joined self times kept a span without children")
	}
}

// tinySize keeps the smoke runs fast.
var tinySize = sizes{points: 2_000, vertices: 300, edges: 3_000, rows: 5_000, wireRate: 1500, routerRate: 750}

// TestSmokeEveryWorkload runs each workload at tiny size, untraced and
// traced, and checks that it reports every metric of BENCHMARK.json with
// no failed operation, and that each layer it exercises was measured.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	measured := map[string][]string{
		"paper_analytics": {"exec.kmeans_iterate.join_s", "exec.kmeans_iterate.peak_mib", "exec.pagerank_iterate.rows",
			"plan.kmeans_iterate.est_ratio", "expr.sqdist_ns_per_row", "expr.lambda_ns_per_pair",
			"analytics.kmeans_s", "analytics.pagerank_s", "graph.csr_build_s"},
		"wire_mix": {"server.transport_read_us", "server.transport_write_us", "engine.read_us", "engine.write_us",
			"sql.parse_read_us", "plancache.hit_ratio", "exec.read_run_us", "storage.probe_last_us",
			"storage.commit_us", "wal.fsync_us", "wal.commit_wait_us"},
		"router_mix": {"server.transport_read_us", "engine.write_us", "repl.semisync_wait_us",
			"repl.apply_lag_records", "cluster.hop_read_us", "cluster.hop_write_us", "cluster.barrier_us"},
	}
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			c := config{workload: w.Name, seed: 3, seconds: 1, trace: traced, size: tinySize,
				clients: 2, workers: 2, out: t.TempDir()}
			rep, err := run(c)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			var out bytes.Buffer
			if err := emit(&out, c, spec, rep); err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct{ Value float64 }
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not the result: %v", w.Name, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: missing %s", w.Name, traced, m.Name)
				} else if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end %s = %v, want > 0", w.Name, m.Name, v.Value)
				}
			}
			if traced {
				for _, name := range measured[w.Name] {
					if rep.samples[name] == 0 {
						t.Errorf("%s: layer metric %s has no samples", w.Name, name)
					}
				}
			}
		}
	}
}
