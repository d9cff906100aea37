package exec

import (
	"math"

	"lambdadb/internal/expr"
	"lambdadb/internal/plan"
	"lambdadb/internal/types"
)

// aggState accumulates one aggregate for one group. Numeric sums are kept
// in both integer and float domains depending on the argument type.
type aggState struct {
	count int64
	sumI  int64
	sumF  float64
	sumSq float64     // for stddev/variance
	best  types.Value // min or max so far, once seen
	seen  bool
}

// groupTable is an open-addressed hash table over distinct key rows,
// shared by GROUP BY, DISTINCT and UNION. Group g's key is row g of the
// typed key columns, so groups keep insertion order and a probe compares
// columns in place, without boxing a row. slots holds group+1 (0 = empty)
// under linear probing and is kept at most half full.
type groupTable struct {
	keys   []*types.Column
	hashes []uint64
	slots  []int32
}

func newGroupTable(schema types.Schema) *groupTable {
	t := &groupTable{keys: make([]*types.Column, len(schema)), slots: make([]int32, 16)}
	for k, c := range schema {
		t.keys[k] = types.NewColumn(c.Type, 0)
	}
	return t
}

// find returns the group of row r of cols, whose hash (see hashRows) is h,
// and whether this call added it. NULL keys equal each other here, unlike
// in a join.
func (t *groupTable) find(cols []*types.Column, r int, h uint64) (int, bool) {
	mask := uint64(len(t.slots) - 1)
	for s := h & mask; ; s = (s + 1) & mask {
		g := int(t.slots[s]) - 1
		if g < 0 {
			g = len(t.hashes)
			t.slots[s] = int32(g + 1)
			t.hashes = append(t.hashes, h)
			for k, c := range t.keys {
				c.AppendAt(cols[k], r)
			}
			if 2*len(t.hashes) > len(t.slots) {
				t.grow()
			}
			return g, true
		}
		if t.hashes[g] == h && t.keyEqual(g, cols, r) {
			return g, false
		}
	}
}

func (t *groupTable) keyEqual(g int, cols []*types.Column, r int) bool {
	for k, c := range t.keys {
		o := cols[k]
		if gn, rn := c.IsNull(g), o.IsNull(r); gn || rn {
			if gn != rn {
				return false
			}
		} else if !c.EqualAt(g, o, r) {
			return false
		}
	}
	return true
}

func (t *groupTable) grow() {
	t.slots = make([]int32, 2*len(t.slots))
	mask := uint64(len(t.slots) - 1)
	for g, h := range t.hashes {
		s := h & mask
		for t.slots[s] != 0 {
			s = (s + 1) & mask
		}
		t.slots[s] = int32(g + 1)
	}
}

// aggHash is a group table plus every group's aggregate states.
type aggHash struct {
	*groupTable
	// states holds nAggs states per group, in group order, in blocks of
	// stateBlock: growing never copies, and every block is a small
	// allocation that reuses warm heap.
	states [][]aggState
	nAggs  int
}

const stateBlock = 256

func newAggHash(keys types.Schema, nAggs int) *aggHash {
	return &aggHash{groupTable: newGroupTable(keys), nAggs: nAggs}
}

// group returns the group of row r of cols, whose hash is h, creating it
// on demand.
func (h *aggHash) group(cols []*types.Column, r int, hv uint64) int {
	g, added := h.find(cols, r, hv)
	for added && len(h.states)*stateBlock < (g+1)*h.nAggs {
		h.states = append(h.states, make([]aggState, stateBlock))
	}
	return g
}

// state returns aggregate ai of group g.
func (h *aggHash) state(g, ai int) *aggState {
	i := g*h.nAggs + ai
	return &h.states[i/stateBlock][i%stateBlock]
}

// update folds one batch's argument column (nil for count(*)) into
// aggregate ai of each row's group, gids[r] being row r's. The common
// float kernels read the column directly; the rest go through Value.
func (h *aggHash) update(ai int, f plan.AggFunc, col *types.Column, gids []int) {
	switch {
	case f == plan.AggCountStar:
		for _, g := range gids {
			h.state(g, ai).count++
		}
	case col.T == types.Float64 && (f == plan.AggSum || f == plan.AggAvg):
		for r, g := range gids {
			if !col.IsNull(r) {
				s := h.state(g, ai)
				s.count++
				s.sumF += col.Floats[r]
			}
		}
	case col.T == types.Float64 && (f == plan.AggMin || f == plan.AggMax):
		for r, g := range gids {
			if col.IsNull(r) {
				continue
			}
			v, s := col.Floats[r], h.state(g, ai)
			if !s.seen || (f == plan.AggMin && v < s.best.F) || (f == plan.AggMax && v > s.best.F) {
				s.best, s.seen = types.NewFloat(v), true
			}
		}
	default:
		for r, g := range gids {
			h.state(g, ai).update(f, col.Value(r))
		}
	}
}

// update folds one input value into an aggregate state.
func (s *aggState) update(f plan.AggFunc, v types.Value) {
	if f == plan.AggCountStar {
		s.count++
		return
	}
	if v.Null {
		return
	}
	switch f {
	case plan.AggCount:
		s.count++
	case plan.AggSum, plan.AggAvg:
		s.count++
		if v.T == types.Int64 {
			s.sumI += v.I
		} else {
			s.sumF += v.F
		}
	case plan.AggStddev, plan.AggVariance:
		s.count++
		f := v.AsFloat()
		s.sumF += f
		s.sumSq += f * f
	case plan.AggMin:
		if !s.seen || v.Compare(s.best) < 0 {
			s.best = v
		}
		s.seen = true
	case plan.AggMax:
		if !s.seen || v.Compare(s.best) > 0 {
			s.best = v
		}
		s.seen = true
	}
}

// merge folds another partial state into s (parallel aggregation).
func (s *aggState) merge(f plan.AggFunc, o aggState) {
	switch f {
	case plan.AggCountStar, plan.AggCount:
		s.count += o.count
	case plan.AggSum, plan.AggAvg, plan.AggStddev, plan.AggVariance:
		s.count += o.count
		s.sumI += o.sumI
		s.sumF += o.sumF
		s.sumSq += o.sumSq
	case plan.AggMin:
		if o.seen && (!s.seen || o.best.Compare(s.best) < 0) {
			s.best = o.best
		}
		s.seen = s.seen || o.seen
	case plan.AggMax:
		if o.seen && (!s.seen || o.best.Compare(s.best) > 0) {
			s.best = o.best
		}
		s.seen = s.seen || o.seen
	}
}

// result produces the final value of an aggregate state.
func (s *aggState) result(spec plan.AggSpec) types.Value {
	switch spec.Func {
	case plan.AggCountStar, plan.AggCount:
		return types.NewInt(s.count)
	case plan.AggSum:
		if s.count == 0 {
			return types.NewNull(spec.Type)
		}
		if spec.Type == types.Int64 {
			return types.NewInt(s.sumI)
		}
		return types.NewFloat(s.sumF + float64(s.sumI))
	case plan.AggAvg:
		if s.count == 0 {
			return types.NewNull(types.Float64)
		}
		return types.NewFloat((s.sumF + float64(s.sumI)) / float64(s.count))
	case plan.AggStddev, plan.AggVariance:
		// Population variance: E[x²] − E[x]², floored at zero against
		// floating-point cancellation.
		if s.count == 0 {
			return types.NewNull(types.Float64)
		}
		n := float64(s.count)
		mean := s.sumF / n
		variance := s.sumSq/n - mean*mean
		if variance < 0 {
			variance = 0
		}
		if spec.Func == plan.AggVariance {
			return types.NewFloat(variance)
		}
		return types.NewFloat(math.Sqrt(variance))
	case plan.AggMin:
		if !s.seen {
			return types.NewNull(spec.Type)
		}
		return s.best
	case plan.AggMax:
		if !s.seen {
			return types.NewNull(spec.Type)
		}
		return s.best
	}
	return types.NewNull(spec.Type)
}

// aggOp is the hash-aggregation operator. When its input pipeline is rooted
// at a base-table scan it runs morsel-parallel: each worker aggregates a
// row range into a private hash table, and the tables are merged at the
// end — the thread-local pattern the paper describes for its analytical
// operators (Section 6.1).
type aggOp struct {
	node   *plan.Aggregate
	schema types.Schema
	result *Materialized
	it     matIterator
}

func newAggOp(n *plan.Aggregate) (Operator, error) {
	return &aggOp{node: n, schema: n.Schema()}, nil
}

func (a *aggOp) Schema() types.Schema { return a.schema }

func (a *aggOp) Open(ctx *Context) error {
	parts := splitParallel(a.node.Child, ctx.workers(), ctx)
	var total *aggHash
	var err error
	if len(parts) > 1 {
		total, err = a.aggregateParallel(ctx, parts)
	} else {
		total, err = a.aggregateSerial(ctx, a.node.Child)
	}
	if err != nil {
		return err
	}
	a.result = a.finalize(total)
	a.it = matIterator{mat: a.result}
	return nil
}

func (a *aggOp) aggregateSerial(ctx *Context, child plan.Node) (*aggHash, error) {
	op, err := buildFor(child, ctx)
	if err != nil {
		return nil, err
	}
	return a.consume(ctx, op)
}

func (a *aggOp) aggregateParallel(ctx *Context, parts []plan.Node) (*aggHash, error) {
	results := make([]*aggHash, len(parts))
	err := runParts(ctx, len(parts), func(i int) error {
		op, err := buildFor(parts[i], ctx)
		if err != nil {
			return err
		}
		results[i], err = a.consume(ctx, op)
		return err
	})
	if err != nil {
		return nil, err
	}
	// Merge worker tables into the first, in worker order, so groups keep
	// the serial insertion order.
	total := results[0]
	for _, part := range results[1:] {
		for g, hv := range part.hashes {
			dst := total.group(part.keys, g, hv)
			for ai, spec := range a.node.Aggs {
				total.state(dst, ai).merge(spec.Func, *part.state(g, ai))
			}
		}
	}
	return total, nil
}

// consume drains op, updating a fresh hash table one batch at a time:
// first every row's group, then each aggregate over its argument column.
func (a *aggOp) consume(ctx *Context, op Operator) (*aggHash, error) {
	keyEvals := make([]expr.Evaluator, len(a.node.Keys))
	for i, k := range a.node.Keys {
		ev, err := expr.Compile(k)
		if err != nil {
			return nil, err
		}
		keyEvals[i] = ev
	}
	argEvals := make([]expr.Evaluator, len(a.node.Aggs))
	for i, g := range a.node.Aggs {
		if g.Arg == nil {
			continue
		}
		ev, err := expr.Compile(g.Arg)
		if err != nil {
			return nil, err
		}
		argEvals[i] = ev
	}

	table := newAggHash(a.schema[:len(keyEvals)], len(a.node.Aggs))
	if err := op.Open(ctx); err != nil {
		op.Close()
		return nil, err
	}
	defer op.Close()

	if len(keyEvals) == 0 {
		// Global aggregation: one group, present even for empty input.
		table.group(nil, 0, 0)
	}
	keyCols := make([]*types.Column, len(keyEvals))
	argCols := make([]*types.Column, len(argEvals))
	var gids []int
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		b, err := op.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		for i, ev := range keyEvals {
			if keyCols[i], err = ev(b); err != nil {
				return nil, err
			}
		}
		for i, ev := range argEvals {
			if ev == nil {
				continue
			}
			if argCols[i], err = ev(b); err != nil {
				return nil, err
			}
		}
		n := b.Len()
		gids = append(gids[:0], make([]int, n)...)
		if len(keyCols) > 0 {
			hs, _ := hashRows(keyCols, n)
			for r, hv := range hs {
				gids[r] = table.group(keyCols, r, hv)
			}
		}
		for ai, spec := range a.node.Aggs {
			table.update(ai, spec.Func, argCols[ai], gids)
		}
	}
	return table, nil
}

// finalize converts the hash table into output batches, in group
// insertion order: the key columns are sliced from the table, the
// aggregate columns computed from the states.
func (a *aggOp) finalize(table *aggHash) *Materialized {
	out := &Materialized{Schema: a.schema}
	nk := len(table.keys)
	groups := len(table.hashes)
	for lo := 0; lo < groups; lo += types.BatchSize {
		hi := min(lo+types.BatchSize, groups)
		b := &types.Batch{Schema: a.schema, Cols: make([]*types.Column, len(a.schema))}
		for k, c := range table.keys {
			b.Cols[k] = c.Slice(lo, hi)
		}
		for ai, spec := range a.node.Aggs {
			col := types.NewColumn(a.schema[nk+ai].Type, hi-lo)
			for g := lo; g < hi; g++ {
				col.Append(table.state(g, ai).result(spec))
			}
			b.Cols[nk+ai] = col
		}
		out.Append(b)
	}
	return out
}

func (a *aggOp) Next() (*types.Batch, error) { return a.it.next(), nil }
func (a *aggOp) Close() error                { return nil }
