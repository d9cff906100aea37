package plan

import (
	"fmt"

	"lambdadb/internal/expr"
	"lambdadb/internal/types"
)

// Rebind deep-clones a plan so a cached template can be executed again:
// every node is copied (optimizer passes and the executor may annotate nodes
// in place, so cached templates are never run directly), scans are stamped
// with a fresh snapshot, and $N parameter placeholders are substituted with
// the bound argument values. args[i] binds $i+1; values are coerced to the
// type inference stamped on each placeholder occurrence.
//
// Expression trees, and the slices holding them, are shared with the
// template when there are no arguments to substitute — the executor
// compiles them read-only — and rewritten into fresh trees otherwise.
func Rebind(n Node, snapshot uint64, args []types.Value) (Node, error) {
	r := &rebinder{snapshot: snapshot, args: args}
	out := r.node(n)
	if r.err != nil {
		return nil, r.err
	}
	return out, nil
}

type rebinder struct {
	snapshot uint64
	args     []types.Value
	err      error
	// shared memoizes Shared-node clones: a CTE referenced twice must stay
	// one node after cloning, or its materialization would run twice.
	shared map[*Shared]Node
}

func (r *rebinder) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// bindParamValue coerces an argument to the placeholder's inferred type.
func bindParamValue(v types.Value, to types.Type, idx int) (types.Value, error) {
	if v.Null {
		return types.NewNull(to), nil
	}
	if v.T == to || to == types.Unknown {
		return v, nil
	}
	if v.T.IsNumeric() && to.IsNumeric() {
		if to == types.Float64 {
			return types.NewFloat(v.AsFloat()), nil
		}
		return types.NewInt(v.AsInt()), nil
	}
	return types.Value{}, fmt.Errorf("parameter $%d: cannot bind %s value where %s is expected", idx, v.T, to)
}

func (r *rebinder) expr(e expr.Expr) expr.Expr {
	if e == nil || len(r.args) == 0 {
		return e
	}
	return expr.Rewrite(e, func(x expr.Expr) expr.Expr {
		p, ok := x.(*expr.Param)
		if !ok {
			return x
		}
		if p.Idx < 1 || p.Idx > len(r.args) {
			r.fail(fmt.Errorf("no argument bound for parameter $%d", p.Idx))
			return x
		}
		v, err := bindParamValue(r.args[p.Idx-1], p.Typ, p.Idx)
		if err != nil {
			r.fail(err)
			return x
		}
		return &expr.Const{Val: v}
	})
}

func (r *rebinder) exprs(es []expr.Expr) []expr.Expr {
	if es == nil || len(r.args) == 0 {
		return es
	}
	out := make([]expr.Expr, len(es))
	for i, e := range es {
		out[i] = r.expr(e)
	}
	return out
}

// node copies n and its subtree through WithChildren; only scans and the
// nodes holding expressions need more than the copy.
func (r *rebinder) node(n Node) Node {
	if n == nil || r.err != nil {
		return n
	}
	if s, ok := n.(*Shared); ok {
		if c, ok := r.shared[s]; ok {
			return c
		}
		c := s.WithChildren([]Node{r.node(s.Child)})
		if r.shared == nil {
			r.shared = map[*Shared]Node{}
		}
		r.shared[s] = c
		return c
	}
	kids := n.Children()
	for i, k := range kids {
		kids[i] = r.node(k)
	}
	c := n.WithChildren(kids)
	switch t := c.(type) {
	case *Scan:
		t.Snapshot = r.snapshot
	case *IndexScan:
		t.Snapshot = r.snapshot
		if t.EqParam > 0 {
			r.bindEqParam(t)
		}
	case *Filter:
		t.Pred = r.expr(t.Pred)
	case *Project:
		t.Exprs = r.exprs(t.Exprs)
	case *Join:
		t.On = r.expr(t.On)
		t.Residual = r.expr(t.Residual)
	case *Aggregate:
		t.Keys = r.exprs(t.Keys)
		if len(r.args) > 0 && t.Aggs != nil {
			aggs := make([]AggSpec, len(t.Aggs))
			copy(aggs, t.Aggs)
			for i := range aggs {
				aggs[i].Arg = r.expr(aggs[i].Arg)
			}
			t.Aggs = aggs
		}
	}
	return c
}

// bindEqParam fills an index probe's key from its parameter, coerced to
// the indexed column's declared type so it compares like a stored value.
func (r *rebinder) bindEqParam(s *IndexScan) {
	if s.EqParam > len(r.args) {
		r.fail(fmt.Errorf("no argument bound for parameter $%d", s.EqParam))
		return
	}
	key := r.args[s.EqParam-1]
	for _, ci := range s.Rel.Schema() {
		if ci.Name == s.Column {
			v, err := bindParamValue(key, ci.Type, s.EqParam)
			if err != nil {
				r.fail(err)
				return
			}
			key = v
			break
		}
	}
	s.Eq = &key
	s.EqParam = 0
}
