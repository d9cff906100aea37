package expr

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"lambdadb/internal/types"
)

// testBatch builds a batch with columns x BIGINT, y DOUBLE, s VARCHAR,
// b BOOLEAN.
func testBatch() *types.Batch {
	schema := types.Schema{
		{Name: "x", Type: types.Int64},
		{Name: "y", Type: types.Float64},
		{Name: "s", Type: types.String},
		{Name: "b", Type: types.Bool},
	}
	batch := types.NewBatch(schema)
	batch.AppendRow([]types.Value{types.NewInt(1), types.NewFloat(1.5), types.NewString("a"), types.NewBool(true)})
	batch.AppendRow([]types.Value{types.NewInt(2), types.NewFloat(2.5), types.NewString("b"), types.NewBool(false)})
	batch.AppendRow([]types.Value{types.NewInt(3), types.NewFloat(-1), types.NewString("C"), types.NewBool(true)})
	return batch
}

func testCtx() *ResolveCtx {
	return NewResolveCtx(testBatch().Schema, "t")
}

// evalOn resolves, compiles, and evaluates e against the test batch.
func evalOn(t *testing.T, e Expr) *types.Column {
	t.Helper()
	r, err := Resolve(e, testCtx())
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	ev, err := Compile(r)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	c, err := ev(testBatch())
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	return c
}

func col(name string) Expr      { return &ColRef{Name: name, Index: -1} }
func lit(v types.Value) Expr    { return &Const{Val: v} }
func bin(op Op, l, r Expr) Expr { return &BinOp{Op: op, L: l, R: r} }

func TestArithInt(t *testing.T) {
	c := evalOn(t, bin(OpAdd, col("x"), lit(types.NewInt(10))))
	if c.T != types.Int64 {
		t.Fatalf("type = %v", c.T)
	}
	want := []int64{11, 12, 13}
	for i, w := range want {
		if c.Ints[i] != w {
			t.Errorf("row %d = %d, want %d", i, c.Ints[i], w)
		}
	}
}

func TestArithMixedWidensToFloat(t *testing.T) {
	c := evalOn(t, bin(OpMul, col("x"), col("y")))
	if c.T != types.Float64 {
		t.Fatalf("type = %v", c.T)
	}
	want := []float64{1.5, 5.0, -3.0}
	for i, w := range want {
		if c.Floats[i] != w {
			t.Errorf("row %d = %v, want %v", i, c.Floats[i], w)
		}
	}
}

func TestIntDivisionYieldsFloat(t *testing.T) {
	c := evalOn(t, bin(OpDiv, col("x"), lit(types.NewInt(2))))
	if c.T != types.Float64 {
		t.Fatalf("x/2 type = %v, want DOUBLE", c.T)
	}
	if c.Floats[0] != 0.5 || c.Floats[1] != 1.0 {
		t.Errorf("division values = %v", c.Floats)
	}
}

func TestModByZeroErrors(t *testing.T) {
	r, err := Resolve(bin(OpMod, col("x"), lit(types.NewInt(0))), testCtx())
	if err != nil {
		t.Fatal(err)
	}
	ev, err := Compile(r)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev(testBatch()); err == nil {
		t.Error("x % 0 should error")
	}
}

func TestPowOperator(t *testing.T) {
	c := evalOn(t, bin(OpPow, col("y"), lit(types.NewInt(2))))
	want := []float64{2.25, 6.25, 1}
	for i, w := range want {
		if math.Abs(c.Floats[i]-w) > 1e-12 {
			t.Errorf("y^2 row %d = %v, want %v", i, c.Floats[i], w)
		}
	}
}

func TestComparisons(t *testing.T) {
	c := evalOn(t, bin(OpGt, col("x"), lit(types.NewInt(1))))
	want := []bool{false, true, true}
	for i, w := range want {
		if c.Bools[i] != w {
			t.Errorf("x>1 row %d = %v", i, c.Bools[i])
		}
	}
	c = evalOn(t, bin(OpEq, col("s"), lit(types.NewString("b"))))
	if c.Bools[0] || !c.Bools[1] || c.Bools[2] {
		t.Errorf("s='b' = %v", c.Bools)
	}
	// Cross-type numeric comparison.
	c = evalOn(t, bin(OpLe, col("x"), col("y")))
	if !c.Bools[0] || !c.Bools[1] || c.Bools[2] {
		t.Errorf("x<=y = %v", c.Bools)
	}
}

func TestLogicAndOrNot(t *testing.T) {
	e := bin(OpAnd, bin(OpGt, col("x"), lit(types.NewInt(1))), col("b"))
	c := evalOn(t, e)
	if c.Bools[0] || c.Bools[1] || !c.Bools[2] {
		t.Errorf("AND = %v", c.Bools)
	}
	e = bin(OpOr, col("b"), bin(OpGt, col("x"), lit(types.NewInt(2))))
	c = evalOn(t, e)
	if !c.Bools[0] || c.Bools[1] || !c.Bools[2] {
		t.Errorf("OR = %v", c.Bools)
	}
	c = evalOn(t, &UnOp{Op: OpNot, E: col("b")})
	if c.Bools[0] || !c.Bools[1] || c.Bools[2] {
		t.Errorf("NOT = %v", c.Bools)
	}
}

func TestThreeValuedLogic(t *testing.T) {
	// Build a batch with NULL booleans to verify Kleene logic.
	schema := types.Schema{{Name: "p", Type: types.Bool}, {Name: "q", Type: types.Bool}}
	b := types.NewBatch(schema)
	tv, fv, nv := types.NewBool(true), types.NewBool(false), types.NewNull(types.Bool)
	rows := [][2]types.Value{
		{nv, fv}, // NULL AND false = false ; NULL OR false = NULL
		{nv, tv}, // NULL AND true = NULL ; NULL OR true = true
		{nv, nv}, // NULL AND NULL = NULL
	}
	for _, r := range rows {
		b.AppendRow([]types.Value{r[0], r[1]})
	}
	rc := NewResolveCtx(schema, "")
	andE, err := Resolve(bin(OpAnd, col("p"), col("q")), rc)
	if err != nil {
		t.Fatal(err)
	}
	andEv, _ := Compile(andE)
	c, err := andEv(b)
	if err != nil {
		t.Fatal(err)
	}
	if c.IsNull(0) || c.Bools[0] {
		t.Error("NULL AND false should be false")
	}
	if !c.IsNull(1) {
		t.Error("NULL AND true should be NULL")
	}
	if !c.IsNull(2) {
		t.Error("NULL AND NULL should be NULL")
	}

	orE, err := Resolve(bin(OpOr, col("p"), col("q")), rc)
	if err != nil {
		t.Fatal(err)
	}
	orEv, _ := Compile(orE)
	c, err = orEv(b)
	if err != nil {
		t.Fatal(err)
	}
	if !c.IsNull(0) {
		t.Error("NULL OR false should be NULL")
	}
	if c.IsNull(1) || !c.Bools[1] {
		t.Error("NULL OR true should be true")
	}
}

func TestIsNull(t *testing.T) {
	schema := types.Schema{{Name: "v", Type: types.Int64}}
	b := types.NewBatch(schema)
	b.AppendRow([]types.Value{types.NewInt(1)})
	b.AppendRow([]types.Value{types.NewNull(types.Int64)})
	rc := NewResolveCtx(schema, "")
	e, err := Resolve(&IsNull{E: col("v")}, rc)
	if err != nil {
		t.Fatal(err)
	}
	ev, _ := Compile(e)
	c, _ := ev(b)
	if c.Bools[0] || !c.Bools[1] {
		t.Errorf("IS NULL = %v", c.Bools)
	}
	e2, _ := Resolve(&IsNull{E: col("v"), Negate: true}, rc)
	ev2, _ := Compile(e2)
	c2, _ := ev2(b)
	if !c2.Bools[0] || c2.Bools[1] {
		t.Errorf("IS NOT NULL = %v", c2.Bools)
	}
}

func TestCaseExpr(t *testing.T) {
	e := &Case{
		Whens: []When{
			{Cond: bin(OpEq, col("x"), lit(types.NewInt(1))), Then: lit(types.NewString("one"))},
			{Cond: bin(OpEq, col("x"), lit(types.NewInt(2))), Then: lit(types.NewString("two"))},
		},
		Else: lit(types.NewString("many")),
	}
	c := evalOn(t, e)
	want := []string{"one", "two", "many"}
	for i, w := range want {
		if c.Strs[i] != w {
			t.Errorf("CASE row %d = %q, want %q", i, c.Strs[i], w)
		}
	}
}

func TestCaseWithoutElseYieldsNull(t *testing.T) {
	e := &Case{Whens: []When{
		{Cond: bin(OpEq, col("x"), lit(types.NewInt(1))), Then: lit(types.NewInt(100))},
	}}
	c := evalOn(t, e)
	if c.IsNull(0) || !c.IsNull(1) || !c.IsNull(2) {
		t.Errorf("CASE nulls = %v %v", c.Ints, c.Nulls)
	}
}

func TestCaseUnifiesNumericArms(t *testing.T) {
	e := &Case{
		Whens: []When{{Cond: col("b"), Then: lit(types.NewInt(1))}},
		Else:  lit(types.NewFloat(0.5)),
	}
	c := evalOn(t, e)
	if c.T != types.Float64 {
		t.Fatalf("CASE type = %v, want DOUBLE", c.T)
	}
	if c.Floats[0] != 1 || c.Floats[1] != 0.5 {
		t.Errorf("CASE values = %v", c.Floats)
	}
}

func TestScalarFunctions(t *testing.T) {
	c := evalOn(t, &FuncCall{Name: "sqrt", Args: []Expr{lit(types.NewFloat(9))}})
	if c.Floats[0] != 3 {
		t.Errorf("sqrt(9) = %v", c.Floats[0])
	}
	c = evalOn(t, &FuncCall{Name: "abs", Args: []Expr{col("y")}})
	if c.Floats[2] != 1 {
		t.Errorf("abs(-1) = %v", c.Floats[2])
	}
	c = evalOn(t, &FuncCall{Name: "abs", Args: []Expr{bin(OpSub, col("x"), lit(types.NewInt(2)))}})
	if c.T != types.Int64 || c.Ints[0] != 1 || c.Ints[1] != 0 || c.Ints[2] != 1 {
		t.Errorf("integer abs = %v (%v)", c.Ints, c.T)
	}
	c = evalOn(t, &FuncCall{Name: "least", Args: []Expr{col("x"), lit(types.NewInt(2))}})
	if c.Ints[0] != 1 || c.Ints[1] != 2 || c.Ints[2] != 2 {
		t.Errorf("least = %v", c.Ints)
	}
	c = evalOn(t, &FuncCall{Name: "upper", Args: []Expr{col("s")}})
	if c.Strs[0] != "A" || c.Strs[2] != "C" {
		t.Errorf("upper = %v", c.Strs)
	}
	c = evalOn(t, &FuncCall{Name: "length", Args: []Expr{col("s")}})
	if c.Ints[0] != 1 {
		t.Errorf("length = %v", c.Ints)
	}
	c = evalOn(t, &FuncCall{Name: "pow", Args: []Expr{col("x"), lit(types.NewInt(3))}})
	if c.Floats[2] != 27 {
		t.Errorf("pow = %v", c.Floats)
	}
}

func TestCoalesce(t *testing.T) {
	schema := types.Schema{{Name: "v", Type: types.Int64}}
	b := types.NewBatch(schema)
	b.AppendRow([]types.Value{types.NewNull(types.Int64)})
	b.AppendRow([]types.Value{types.NewInt(7)})
	rc := NewResolveCtx(schema, "")
	e, err := Resolve(&FuncCall{Name: "coalesce", Args: []Expr{col("v"), lit(types.NewInt(-1))}}, rc)
	if err != nil {
		t.Fatal(err)
	}
	ev, _ := Compile(e)
	c, _ := ev(b)
	if c.Ints[0] != -1 || c.Ints[1] != 7 {
		t.Errorf("coalesce = %v", c.Ints)
	}
}

func TestResolveErrors(t *testing.T) {
	cases := []Expr{
		col("nope"), // unknown column
		bin(OpAdd, col("s"), lit(types.NewInt(1))),      // string + int
		bin(OpAnd, col("x"), col("b")),                  // int AND bool
		bin(OpEq, col("s"), lit(types.NewInt(1))),       // string = int
		&FuncCall{Name: "nosuchfn", Args: []Expr{}},     // unknown function
		&UnOp{Op: OpNeg, E: col("s")},                   // -string
		&UnOp{Op: OpNot, E: col("x")},                   // NOT int
		&FuncCall{Name: "sqrt", Args: []Expr{col("s")}}, // sqrt(string)
	}
	for i, e := range cases {
		if _, err := Resolve(e, testCtx()); err == nil {
			t.Errorf("case %d (%v): expected resolve error", i, e)
		}
	}
}

func TestAmbiguousColumn(t *testing.T) {
	rc := &ResolveCtx{
		Schema: types.Schema{{Name: "x", Type: types.Int64}, {Name: "x", Type: types.Int64}},
		Quals:  []string{"a", "b"},
	}
	if _, err := Resolve(col("x"), rc); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("expected ambiguity error, got %v", err)
	}
	// Qualification disambiguates.
	e, err := Resolve(&ColRef{Table: "b", Name: "x", Index: -1}, rc)
	if err != nil {
		t.Fatal(err)
	}
	if e.(*ColRef).Index != 1 {
		t.Errorf("qualified ref bound to %d", e.(*ColRef).Index)
	}
}

func TestQualifierCaseInsensitive(t *testing.T) {
	rc := NewResolveCtx(types.Schema{{Name: "x", Type: types.Int64}}, "T")
	if _, err := Resolve(&ColRef{Table: "t", Name: "x", Index: -1}, rc); err != nil {
		t.Errorf("case-insensitive qualifier failed: %v", err)
	}
}

func TestCastEval(t *testing.T) {
	c := evalOn(t, &Cast{E: col("x"), To: types.Float64})
	if c.T != types.Float64 || c.Floats[2] != 3.0 {
		t.Errorf("cast = %v (%v)", c.Floats, c.T)
	}
	c = evalOn(t, &Cast{E: col("y"), To: types.String})
	if c.Strs[0] != "1.5" {
		t.Errorf("cast to string = %v", c.Strs)
	}
	c = evalOn(t, &Cast{E: col("y"), To: types.Int64})
	if c.Ints[0] != 1 || c.Ints[1] != 2 {
		t.Errorf("float->int cast = %v", c.Ints)
	}
}

func TestEvalConst(t *testing.T) {
	e, err := Resolve(bin(OpMul, lit(types.NewInt(6)), lit(types.NewInt(7))), testCtx())
	if err != nil {
		t.Fatal(err)
	}
	v, err := EvalConst(e)
	if err != nil {
		t.Fatal(err)
	}
	if v.I != 42 {
		t.Errorf("EvalConst = %v", v)
	}
	if !IsConst(e) {
		t.Error("IsConst should hold for literal expression")
	}
	if IsConst(col("x")) {
		t.Error("IsConst should not hold for a column ref")
	}
}

func TestReferencedColumns(t *testing.T) {
	e, err := Resolve(bin(OpAdd, col("x"), bin(OpMul, col("x"), col("y"))), testCtx())
	if err != nil {
		t.Fatal(err)
	}
	refs := map[int]bool{}
	ReferencedColumns(e, refs)
	if len(refs) != 2 || !refs[0] || !refs[1] {
		t.Errorf("refs = %v", refs)
	}
}

func TestRewriteIdentityPreservesShape(t *testing.T) {
	e := bin(OpAdd, col("x"), bin(OpMul, col("y"), lit(types.NewInt(2))))
	got := Rewrite(e, func(n Expr) Expr { return n })
	if got.String() != e.String() {
		t.Errorf("rewrite changed %q to %q", e, got)
	}
}

func TestArithCommutativityProperty(t *testing.T) {
	// a+b == b+a through the whole resolve/compile pipeline.
	f := func(a, b int32) bool {
		e1 := bin(OpAdd, lit(types.NewInt(int64(a))), lit(types.NewInt(int64(b))))
		e2 := bin(OpAdd, lit(types.NewInt(int64(b))), lit(types.NewInt(int64(a))))
		r1, err1 := Resolve(e1, testCtx())
		r2, err2 := Resolve(e2, testCtx())
		if err1 != nil || err2 != nil {
			return false
		}
		v1, err1 := EvalConst(r1)
		v2, err2 := EvalConst(r2)
		return err1 == nil && err2 == nil && v1.I == v2.I
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// floatBatch is a one-column batch (v DOUBLE) of vals, NULL where nulls
// says so.
func floatBatch(vals []float64, nulls []bool) *types.Batch {
	c := &types.Column{T: types.Float64, Floats: vals, Nulls: nulls}
	return &types.Batch{Schema: types.Schema{{Name: "v", Type: types.Float64}}, Cols: []*types.Column{c}}
}

func compileOn(t *testing.T, e Expr, schema types.Schema) Evaluator {
	t.Helper()
	r, err := Resolve(e, NewResolveCtx(schema, ""))
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	ev, err := Compile(r)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return ev
}

// TestIntPowMatchesMathPow checks the integer-power kernel bit for bit
// against math.Pow over normal-range values, signed zeros, infinities and
// NaN, and that NULL rows stay NULL.
func TestIntPowMatchesMathPow(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, -2.5, 3, 1e-100, -7.25e10, 1.7e150,
		math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(), 12345.678}
	for i := 0; i < 200; i++ {
		vals = append(vals, (float64(i)-100)*1.37+0.001*float64(i*i))
	}
	nulls := make([]bool, len(vals)+1)
	nulls[len(vals)] = true
	vals = append(vals, 0)
	schema := types.Schema{{Name: "v", Type: types.Float64}}
	for _, k := range []types.Value{types.NewInt(2), types.NewFloat(2), types.NewInt(3), types.NewInt(7), types.NewInt(64)} {
		ev := compileOn(t, bin(OpPow, col("v"), lit(k)), schema)
		c, err := ev(floatBatch(vals, nulls))
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range vals[:len(vals)-1] {
			want := math.Pow(v, k.AsFloat())
			if math.Float64bits(c.Floats[i]) != math.Float64bits(want) && !(math.IsNaN(want) && math.IsNaN(c.Floats[i])) {
				t.Errorf("%v ^ %v = %v, math.Pow = %v", v, k, c.Floats[i], want)
			}
		}
		if !c.IsNull(len(vals)-1) || c.IsNull(0) {
			t.Errorf("^%v: NULL did not propagate: %v", k, c.Nulls)
		}
	}
}

func TestIntExponentRule(t *testing.T) {
	for _, tc := range []struct {
		e    Expr
		k    int
		want bool
	}{
		{lit(types.NewInt(2)), 2, true},
		{&Cast{E: lit(types.NewInt(3)), To: types.Float64}, 3, true},
		{&Cast{E: lit(types.NewFloat(2.5)), To: types.Int64}, 0, false},
		{lit(types.NewFloat(64)), 64, true},
		{lit(types.NewFloat(2.5)), 0, false},
		{lit(types.NewInt(0)), 0, false},
		{lit(types.NewInt(-2)), 0, false},
		{lit(types.NewInt(65)), 0, false},
		{lit(types.NewNull(types.Int64)), 0, false},
		{lit(types.NewString("2")), 0, false},
		{col("v"), 0, false},
	} {
		if k, ok := intExponent(tc.e); ok != tc.want || k != tc.k {
			t.Errorf("intExponent(%v) = %d, %v; want %d, %v", tc.e, k, ok, tc.k, tc.want)
		}
	}
}

// TestCastIntToDoubleKernel checks the typed INT -> DOUBLE cast: values,
// NULLs, and that appending to the result leaves the input's bitmap alone.
func TestCastIntToDoubleKernel(t *testing.T) {
	in := types.NewColumn(types.Int64, 8)
	in.AppendInt(-3)
	in.AppendNull()
	in.AppendInt(1 << 40)
	in.AppendNull()
	view := in.Slice(0, 3)
	out, err := castColumn(view, types.Float64)
	if err != nil {
		t.Fatal(err)
	}
	if out.T != types.Float64 || out.Len() != 3 || out.Floats[0] != -3 || out.Floats[2] != 1<<40 {
		t.Fatalf("cast = %+v", out)
	}
	if out.IsNull(0) || !out.IsNull(1) || out.IsNull(2) {
		t.Fatalf("cast nulls = %v", out.Nulls)
	}
	out.AppendFloat(9)
	if !in.IsNull(3) {
		t.Fatal("appending to the cast result overwrote the input's null bitmap")
	}
}
