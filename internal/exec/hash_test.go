package exec

import (
	"fmt"
	"math"
	"testing"

	"lambdadb/internal/expr"
	"lambdadb/internal/plan"
	"lambdadb/internal/storage"
	"lambdadb/internal/types"
)

// Differential tests of the hash join and the GROUP BY table against
// references built on Go maps and Value semantics, at one and at eight
// workers. Inputs of 20k+ rows make the eight-worker runs take the
// partitioned build, the morsel-parallel probe and the per-worker group
// tables.

// valuesTable creates a table holding rows.
func valuesTable(t testing.TB, s *storage.Store, name string, schema types.Schema, rows [][]types.Value) *storage.Table {
	t.Helper()
	tbl, err := s.CreateTable(name, schema)
	if err != nil {
		t.Fatal(err)
	}
	tx := s.Begin()
	b := types.NewBatch(schema)
	for _, r := range rows {
		b.AppendRow(r)
	}
	if err := tx.Insert(tbl, b); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return tbl
}

// canon maps a key value to a string equal for exactly the values SQL
// equality (Value.Equal) calls equal: numerics by float value, so 1 = 1.0
// and -0.0 = 0.0. ok is false for NULL.
func canon(v types.Value) (string, bool) {
	switch {
	case v.Null:
		return "", false
	case v.T.IsNumeric():
		f := v.AsFloat()
		if f == 0 {
			f = 0
		}
		return fmt.Sprintf("n%v", f), true
	}
	return fmt.Sprintf("%d:%s", v.T, v.String()), true
}

// keyGen yields the join key of row i on one side.
type keyGen struct {
	name   string
	lt, rt types.Type
	key    func(side, i int) types.Value
}

func joinKeyGens() []keyGen {
	nullEvery := func(side, i int) bool { return i%(53+side*8) == 0 }
	return []keyGen{
		{"int-double", types.Int64, types.Float64, func(side, i int) types.Value {
			if nullEvery(side, i) {
				return types.NewNull([]types.Type{types.Int64, types.Float64}[side])
			}
			if side == 0 {
				// Neighbouring rows share keys, so duplicates sit in one batch
				// as well as across batches.
				return types.NewInt(int64(i / 2 % 5000))
			}
			// Half the right keys are integral (they match), half are not.
			return types.NewFloat(float64(i%10000) / 2)
		}},
		{"signed-zero", types.Float64, types.Float64, func(side, i int) types.Value {
			if nullEvery(side, i) {
				return types.NewNull(types.Float64)
			}
			if i%997 == 0 {
				return types.NewFloat(math.Copysign(0, float64(side)-0.5)) // -0.0 left, 0.0 right
			}
			return types.NewFloat(float64(i%4000) + 0.25)
		}},
		{"string", types.String, types.String, func(side, i int) types.Value {
			if nullEvery(side, i) {
				return types.NewNull(types.String)
			}
			return types.NewString(fmt.Sprintf("key-%d", i/(2-side)%(3000+side*1000)))
		}},
	}
}

// joinTables builds l (k, id) and r (k, id) of nl and nr rows.
func joinTables(t *testing.T, g keyGen, nl, nr int) (*storage.Store, *storage.Table, *storage.Table) {
	s := storage.NewStore()
	mk := func(name string, side, n int, kt types.Type) *storage.Table {
		rows := make([][]types.Value, n)
		for i := range rows {
			rows[i] = []types.Value{g.key(side, i), types.NewInt(int64(i))}
		}
		return valuesTable(t, s, name, types.Schema{{Name: "k", Type: kt}, {Name: "id", Type: types.Int64}}, rows)
	}
	return s, mk("l", 0, nl, g.lt), mk("r", 1, nr, g.rt)
}

// refJoin is the reference equi-join on column 0: for every probe row in
// order, the build rows with an equal non-NULL key in build order, kept
// when residual accepts the pair. Output rows are left columns then right
// columns. With left set, probe rows without a kept pair are NULL-extended.
func refJoin(build, probe [][]types.Value, buildIsLeft, left bool, residual func(l, r []types.Value) bool) [][]types.Value {
	byKey := map[string][]int{}
	for i, row := range build {
		if k, ok := canon(row[0]); ok {
			byKey[k] = append(byKey[k], i)
		}
	}
	var out [][]types.Value
	for _, p := range probe {
		kept := false
		if k, ok := canon(p[0]); ok {
			for _, bi := range byKey[k] {
				l, r := build[bi], p
				if !buildIsLeft {
					l, r = p, build[bi]
				}
				if residual != nil && !residual(l, r) {
					continue
				}
				out = append(out, append(append([]types.Value{}, l...), r...))
				kept = true
			}
		}
		if left && !kept {
			row := append([]types.Value{}, p...)
			for range build[0] {
				row = append(row, types.NewNull(types.Unknown))
			}
			out = append(out, row)
		}
	}
	return out
}

func scanRows(t *testing.T, s *storage.Store, tbl *storage.Table) [][]types.Value {
	return runWithWorkers(t, plan.NewScan(tbl, "", s.Snapshot()), 1, nil).Rows()
}

// assertRows compares got with want, in order or as multisets.
func assertRows(t *testing.T, got, want [][]types.Value, ordered bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d rows, want %d", len(got), len(want))
	}
	if !ordered {
		sortRows(got)
		sortRows(want)
	}
	for i := range got {
		for j := range got[i] {
			a, b := got[i][j], want[i][j]
			if a.Null != b.Null || (!a.Null && !a.Equal(b)) {
				t.Fatalf("row %d col %d: got %v, want %v (row %v, want %v)", i, j, a, b, got[i], want[i])
			}
		}
	}
}

func TestHashJoinMatchesReference(t *testing.T) {
	for _, g := range joinKeyGens() {
		for _, size := range [][2]int{{0, 50}, {1, 50}, {7, 300}, {1000, 2000}, {20_000, 30_000}} {
			t.Run(fmt.Sprintf("%s/%dx%d", g.name, size[0], size[1]), func(t *testing.T) {
				s, l, r := joinTables(t, g, size[0], size[1])
				join := &plan.Join{
					Type: plan.InnerJoin,
					L:    plan.NewScan(l, "l", s.Snapshot()), R: plan.NewScan(r, "r", s.Snapshot()),
					EquiLeft: []int{0}, EquiRight: []int{0},
				}
				// Inner joins build on the left and probe with the right, so
				// the output runs over right rows, each with its matching left
				// rows in left order.
				want := refJoin(scanRows(t, s, l), scanRows(t, s, r), true, false, nil)
				if size[0] >= 1000 && len(want) == 0 {
					t.Fatal("no matches; test data broken")
				}
				for _, w := range []int{1, 8} {
					assertRows(t, runWithWorkers(t, join, w, nil).Rows(), want, true)
				}
			})
		}
	}
}

func TestLeftJoinResidualMatchesReference(t *testing.T) {
	g := joinKeyGens()[0]
	s, l, r := joinTables(t, g, 20_000, 30_000)
	// ON l.k = r.k AND r.id < l.id * 2: some left rows keep all their
	// matches, some only part, some none.
	residual := &expr.BinOp{Op: expr.OpLt, Typ: types.Bool,
		L: colRef("id", 3, types.Int64),
		R: &expr.BinOp{Op: expr.OpMul, Typ: types.Int64, L: colRef("id", 1, types.Int64),
			R: &expr.Const{Val: types.NewInt(2)}}}
	join := &plan.Join{
		Type: plan.LeftJoin,
		L:    plan.NewScan(l, "l", s.Snapshot()), R: plan.NewScan(r, "r", s.Snapshot()),
		EquiLeft: []int{0}, EquiRight: []int{0}, Residual: residual,
	}
	want := refJoin(scanRows(t, s, r), scanRows(t, s, l), false, true, func(lr, rr []types.Value) bool {
		return rr[1].I < lr[1].I*2
	})
	var partial, none int
	for _, row := range want {
		if row[2].Null {
			none++
		} else {
			partial++
		}
	}
	if partial == 0 || none <= 20_000/53 {
		t.Fatalf("want matched and residual-rejected rows, got %d matched, %d NULL-extended", partial, none)
	}
	// NULL-extended rows follow each probe batch's matches, and morsels cut
	// batches differently from a serial scan, so only the row set is fixed.
	for _, w := range []int{1, 8} {
		assertRows(t, runWithWorkers(t, join, w, nil).Rows(), want, false)
	}
}

// refGroups is the reference GROUP BY k: sum(v), count(*), min(v),
// max(v), in order of each group's first row, NULL keys forming one group.
func refGroups(rows [][]types.Value) [][]types.Value {
	index := map[string]int{}
	var out [][]types.Value
	for _, row := range rows {
		k, ok := canon(row[0])
		if !ok {
			k = "null"
		}
		gi, seen := index[k]
		if !seen {
			gi = len(out)
			index[k] = gi
			out = append(out, []types.Value{row[0], types.NewFloat(0), types.NewInt(0), row[1], row[1]})
		}
		g, v := out[gi], row[1]
		g[1].F += v.F
		g[2].I++
		if v.F < g[3].F {
			g[3] = v
		}
		if v.F > g[4].F {
			g[4] = v
		}
	}
	return out
}

func TestGroupByMatchesReference(t *testing.T) {
	gens := map[string]func(i int) types.Value{
		"int":    func(i int) types.Value { return types.NewInt(int64(i*7919) % 20_011) },
		"double": func(i int) types.Value { return types.NewFloat(math.Copysign(float64(i%9000), float64(i%2)-0.5)) },
		"string": func(i int) types.Value { return types.NewString(fmt.Sprintf("g%d", (i*31)%15_000)) },
	}
	for name, gen := range gens {
		for _, n := range []int{0, 5, 40, 5000, 60_000} {
			t.Run(fmt.Sprintf("%s/%d", name, n), func(t *testing.T) {
				kt := gen(0).T
				rows := make([][]types.Value, n)
				for i := range rows {
					k := gen(i)
					if i%101 == 3 {
						k = types.NewNull(kt)
					}
					// Integral values keep every sum exact in any order.
					rows[i] = []types.Value{k, types.NewFloat(float64(i % 1000))}
				}
				s := storage.NewStore()
				tbl := valuesTable(t, s, "t", types.Schema{{Name: "k", Type: kt}, {Name: "v", Type: types.Float64}}, rows)
				v := colRef("v", 1, types.Float64)
				agg := &plan.Aggregate{
					Child:    plan.NewScan(tbl, "", s.Snapshot()),
					Keys:     []expr.Expr{colRef("k", 0, kt)},
					KeyNames: []string{"k"},
					Aggs: []plan.AggSpec{
						{Func: plan.AggSum, Arg: v, Type: types.Float64, Name: "sum"},
						{Func: plan.AggCountStar, Type: types.Int64, Name: "n"},
						{Func: plan.AggMin, Arg: v, Type: types.Float64, Name: "min"},
						{Func: plan.AggMax, Arg: v, Type: types.Float64, Name: "max"},
					},
				}
				want := refGroups(rows)
				for _, w := range []int{1, 8} {
					assertRows(t, runWithWorkers(t, agg, w, nil).Rows(), want, true)
				}
			})
		}
	}
}

// TestDistinctMatchesReference checks DISTINCT over two key columns (INT,
// DOUBLE) with NULLs and signed zeros: first occurrences, in input order.
func TestDistinctMatchesReference(t *testing.T) {
	var rows, want [][]types.Value
	seen := map[string]bool{}
	for i := 0; i < 30_000; i++ {
		a := types.NewInt(int64(i % 300))
		if i%17 == 0 {
			a = types.NewNull(types.Int64)
		}
		b := types.NewFloat(math.Copysign(float64(i%7), float64(i%3)-1))
		row := []types.Value{a, b}
		rows = append(rows, row)
		ka, _ := canon(a)
		kb, _ := canon(b)
		if k := fmt.Sprintf("%v|%s|%s", a.Null, ka, kb); !seen[k] {
			seen[k] = true
			want = append(want, row)
		}
	}
	s := storage.NewStore()
	tbl := valuesTable(t, s, "t", types.Schema{{Name: "a", Type: types.Int64}, {Name: "b", Type: types.Float64}}, rows)
	d := &plan.Distinct{Child: plan.NewScan(tbl, "", s.Snapshot())}
	assertRows(t, runWithWorkers(t, d, 1, nil).Rows(), want, true)
}
