package exec

import (
	"testing"

	"lambdadb/internal/expr"
	"lambdadb/internal/plan"
	"lambdadb/internal/types"
)

// buildFilterAggPlan is σ(v > 0.5) → Γ(sum(v)) over the benchmark table.
func buildFilterAggPlan(b testing.TB, rows int) plan.Node {
	s, tbl := bigTable(b, rows, 1000)
	pred := &expr.BinOp{Op: expr.OpGt, Typ: types.Bool,
		L: colRef("v", 1, types.Float64),
		R: &expr.Const{Val: types.NewFloat(float64(rows) / 2)}}
	return &plan.Aggregate{
		Child: &plan.Filter{Child: plan.NewScan(tbl, "", s.Snapshot()), Pred: pred},
		Aggs: []plan.AggSpec{{Func: plan.AggSum,
			Arg: colRef("v", 1, types.Float64), Type: types.Float64, Name: "sum(v)"}},
	}
}

// BenchmarkVectorizedFilterAgg measures the engine's batch-at-a-time path:
// compiled predicate over column vectors, hash-free global aggregate.
func BenchmarkVectorizedFilterAgg(b *testing.B) {
	p := buildFilterAggPlan(b, 1_000_000)
	ctx := NewContext()
	ctx.Workers = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(p, ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRowAtATimeFilterAgg is the ablation: the same computation
// performed one row at a time through boxed Values — the execution style
// of the layer-2 UDF world. Comparing against BenchmarkVectorizedFilterAgg
// quantifies the vectorization design choice called out in DESIGN.md §6.
func BenchmarkRowAtATimeFilterAgg(b *testing.B) {
	const rows = 1_000_000
	s, tbl := bigTable(b, rows, 1000)
	snapshot := s.Snapshot()
	threshold := float64(rows) / 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sum float64
		err := tbl.Scan(snapshot, func(batch *types.Batch) error {
			n := batch.Len()
			for r := 0; r < n; r++ {
				row := batch.Row(r) // boxes every column into a Value
				if row[1].AsFloat() > threshold {
					sum += row[1].AsFloat()
				}
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelAggScaling sweeps the morsel-parallel aggregation
// worker count.
func BenchmarkParallelAggScaling(b *testing.B) {
	s, tbl := bigTable(b, 1_000_000, 16)
	agg := &plan.Aggregate{
		Child:    plan.NewScan(tbl, "", s.Snapshot()),
		Keys:     []expr.Expr{colRef("k", 0, types.Int64)},
		KeyNames: []string{"k"},
		Aggs: []plan.AggSpec{{Func: plan.AggSum,
			Arg: colRef("v", 1, types.Float64), Type: types.Float64, Name: "sum(v)"}},
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(benchName(workers), func(b *testing.B) {
			ctx := NewContext()
			ctx.Workers = workers
			for i := 0; i < b.N; i++ {
				if _, err := Run(agg, ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchName(workers int) string {
	return "workers=" + string(rune('0'+workers))
}

// BenchmarkParallelJoinScaling sweeps the morsel-parallel hash join worker
// count: partitioned parallel build on 100k rows, morsel-parallel probe
// with 1.6M rows, 1:1 key matches.
func BenchmarkParallelJoinScaling(b *testing.B) {
	s, left := bigTable(b, 100_000, 100_000)
	rs, right := bigTable(b, 1_600_000, 100_000)
	join := &plan.Join{
		Type:      plan.InnerJoin,
		L:         plan.NewScan(left, "l", s.Snapshot()),
		R:         plan.NewScan(right, "r", rs.Snapshot()),
		EquiLeft:  []int{0},
		EquiRight: []int{0},
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(benchName(workers), func(b *testing.B) {
			ctx := NewContext()
			ctx.Workers = workers
			for i := 0; i < b.N; i++ {
				if _, err := Run(join, ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelSortScaling sweeps the parallel sort worker count:
// per-worker run generation over a 1M-row scan, k-way loser-tree merge.
func BenchmarkParallelSortScaling(b *testing.B) {
	s, tbl := bigTable(b, 1_000_000, 1000) // v column is unique, k repeats
	srt := &plan.Sort{
		Child: plan.NewScan(tbl, "", s.Snapshot()),
		Keys:  []plan.SortKey{{Col: 1, Desc: true}},
		TopK:  -1,
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(benchName(workers), func(b *testing.B) {
			ctx := NewContext()
			ctx.Workers = workers
			for i := 0; i < b.N; i++ {
				if _, err := Run(srt, ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelTopKScaling isolates the fused ORDER BY ... LIMIT path:
// per-worker bounded heaps mean the 1M-row input is never materialized.
func BenchmarkParallelTopKScaling(b *testing.B) {
	s, tbl := bigTable(b, 1_000_000, 1000)
	srt := &plan.Sort{
		Child: plan.NewScan(tbl, "", s.Snapshot()),
		Keys:  []plan.SortKey{{Col: 1, Desc: true}},
		TopK:  100,
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(benchName(workers), func(b *testing.B) {
			ctx := NewContext()
			ctx.Workers = workers
			for i := 0; i < b.N; i++ {
				if _, err := Run(srt, ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHashJoin measures the equi-join path: build on 100k rows,
// probe with 400k.
func BenchmarkHashJoin(b *testing.B) {
	s, left := bigTable(b, 100_000, 10_000)
	rs, right := bigTable(b, 400_000, 10_000)
	join := &plan.Join{
		Type:      plan.InnerJoin,
		L:         plan.NewScan(left, "l", s.Snapshot()),
		R:         plan.NewScan(right, "r", rs.Snapshot()),
		EquiLeft:  []int{0},
		EquiRight: []int{0},
	}
	ctx := NewContext()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(join, ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHashAgg measures the GROUP BY path: 400k rows into 50k groups,
// with sum, min and count(*) per group.
func BenchmarkHashAgg(b *testing.B) {
	s, tbl := bigTable(b, 400_000, 50_000)
	v := colRef("v", 1, types.Float64)
	agg := &plan.Aggregate{
		Child:    plan.NewScan(tbl, "", s.Snapshot()),
		Keys:     []expr.Expr{colRef("k", 0, types.Int64)},
		KeyNames: []string{"k"},
		Aggs: []plan.AggSpec{
			{Func: plan.AggSum, Arg: v, Type: types.Float64, Name: "sum(v)"},
			{Func: plan.AggMin, Arg: v, Type: types.Float64, Name: "min(v)"},
			{Func: plan.AggCountStar, Type: types.Int64, Name: "count(*)"},
		},
	}
	ctx := NewContext()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(agg, ctx); err != nil {
			b.Fatal(err)
		}
	}
}
