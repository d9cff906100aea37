package plan

import (
	"strings"
	"testing"

	"lambdadb/internal/storage"
)

// sinkNode keeps benchmarked results alive so the calls are not removed.
var sinkNode Node

// BenchmarkBuildPointSelect plans one point SELECT on an indexed, analyzed
// table: name resolution, Optimize and OptimizeAccess, the work every
// plan-cache miss pays before execution.
func BenchmarkBuildPointSelect(b *testing.B) {
	s := testStore(b)
	if err := s.CreateIndex(storage.IndexDef{Name: "t_a", Table: "t", Column: "a", Kind: storage.HashIndex}); err != nil {
		b.Fatal(err)
	}
	rel, err := s.Resolve("t")
	if err != nil {
		b.Fatal(err)
	}
	ts, err := CollectTableStats(rel, s.Snapshot())
	if err != nil {
		b.Fatal(err)
	}
	stats := mapStats{"t": ts}
	sel, err := parseSelect("SELECT a, b FROM t WHERE a = 42")
	if err != nil {
		b.Fatal(err)
	}
	build := func() Node {
		bld := NewBuilder(s, s.Snapshot())
		bld.Stats = stats
		n, err := bld.BuildSelect(sel)
		if err != nil {
			b.Fatal(err)
		}
		return n
	}
	if tree := ExplainTree(build()); !strings.Contains(tree, "IndexScan t using t_a (a = 42)") {
		b.Fatalf("expected an index probe:\n%s", tree)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkNode = build()
	}
}
