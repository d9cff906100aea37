package exec

import (
	"sort"

	"lambdadb/internal/faultinject"
	"lambdadb/internal/plan"
	"lambdadb/internal/types"
)

// sortOp materializes its input and emits it in key order. When the input
// pipeline is splittable it runs morsel-parallel: each worker produces a
// sorted run (or a bounded top-k heap when the optimizer fused a LIMIT),
// and the runs meet in a k-way loser-tree merge. Inputs that cannot be
// split (join results, aggregates) are drained serially but still sorted
// with parallel chunk runs plus the same merge.
type sortOp struct {
	node   *plan.Sort
	schema types.Schema
	it     matIterator
}

func newSortOp(n *plan.Sort) (Operator, error) {
	return &sortOp{node: n, schema: n.Schema()}, nil
}

func (s *sortOp) Schema() types.Schema { return s.schema }

func (s *sortOp) Open(ctx *Context) error {
	keys := s.node.Keys
	less := func(a, b []types.Value) bool {
		for _, k := range keys {
			c := a[k.Col].Compare(b[k.Col])
			if c == 0 {
				continue
			}
			if k.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	}
	workers := ctx.workers()
	topK := s.node.TopK

	var runs [][][]types.Value
	if parts := splitParallel(s.node.Child, workers, ctx); len(parts) > 1 {
		// Parallel run generation: one sorted run per morsel. With a fused
		// top-k each worker streams its morsel through a private bounded
		// heap, so ORDER BY ... LIMIT never materializes the full input.
		runs = make([][][]types.Value, len(parts))
		err := runParts(ctx, len(parts), func(i int) error {
			if err := faultinject.Fire("exec.sort.run"); err != nil {
				return err
			}
			op, err := buildFor(parts[i], ctx)
			if err != nil {
				return err
			}
			rows, err := drainSorted(op, ctx, topK, less)
			if err != nil {
				return err
			}
			runs[i] = rows
			return nil
		})
		if err != nil {
			return err
		}
	} else if topK >= 0 {
		// Serial streamed top-k (unsplittable input): bounded heap, then
		// sort the survivors.
		op, err := buildFor(s.node.Child, ctx)
		if err != nil {
			return err
		}
		rows, err := drainSorted(op, ctx, topK, less)
		if err != nil {
			return err
		}
		runs = [][][]types.Value{rows}
	} else {
		// Full sort of an unsplittable input: drain serially, then sort
		// contiguous chunks on the worker pool and merge.
		mat, err := Run(s.node.Child, ctx)
		if err != nil {
			return err
		}
		rows := mat.Rows()
		runs = chunkRuns(rows, workers)
		err = runParts(ctx, len(runs), func(i int) error {
			if err := faultinject.Fire("exec.sort.run"); err != nil {
				return err
			}
			r := runs[i]
			sort.SliceStable(r, func(a, b int) bool { return less(r[a], r[b]) })
			return nil
		})
		if err != nil {
			return err
		}
	}

	rows := mergeRuns(runs, less)
	if topK >= 0 && int64(len(rows)) > topK {
		rows = rows[:topK]
	}

	out := &Materialized{Schema: s.schema}
	batch := types.NewBatch(s.schema)
	for _, r := range rows {
		batch.AppendRow(r)
		if batch.Len() >= types.BatchSize {
			out.Append(batch)
			batch = types.NewBatch(s.schema)
		}
	}
	out.Append(batch)
	s.it = matIterator{mat: out}
	return nil
}

// drainSorted opens and drains op into a sorted row run. With k >= 0 the
// rows stream through a bounded max-heap whose root is the worst kept row,
// so only k rows are ever held. Fully-retained runs (k < 0) are charged
// against the query memory budget per input batch.
func drainSorted(op Operator, ctx *Context, k int64, less func(a, b []types.Value) bool) ([][]types.Value, error) {
	if err := op.Open(ctx); err != nil {
		op.Close()
		return nil, err
	}
	var rows [][]types.Value
	h := &rowHeap{less: less}
	for {
		if err := ctx.Err(); err != nil {
			op.Close()
			return nil, err
		}
		b, err := op.Next()
		if err != nil {
			op.Close()
			return nil, err
		}
		if b == nil {
			break
		}
		if k < 0 {
			if err := ctx.charge("sort", batchBytes(b)); err != nil {
				op.Close()
				return nil, err
			}
		}
		n := b.Len()
		for i := 0; i < n; i++ {
			row := b.Row(i)
			if k < 0 {
				rows = append(rows, row)
				continue
			}
			switch {
			case int64(len(h.rows)) < k:
				h.push(row)
			case k > 0 && less(row, h.rows[0]):
				h.replaceTop(row)
			}
		}
	}
	if err := op.Close(); err != nil {
		return nil, err
	}
	if k >= 0 {
		rows = h.rows
	}
	sort.SliceStable(rows, func(i, j int) bool { return less(rows[i], rows[j]) })
	return rows, nil
}

// chunkRuns splits rows into at most `workers` contiguous chunks of at
// least minRowsPerWorker rows each (a single chunk below that), preserving
// input order across chunk boundaries for merge stability.
func chunkRuns(rows [][]types.Value, workers int) [][][]types.Value {
	n := len(rows)
	parts := workers
	if parts > 1 && n < 2*minRowsPerWorker {
		parts = 1
	}
	if parts > n/minRowsPerWorker && parts > 1 {
		parts = n / minRowsPerWorker
	}
	if parts <= 1 {
		return [][][]types.Value{rows}
	}
	chunk := (n + parts - 1) / parts
	out := make([][][]types.Value, 0, parts)
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		out = append(out, rows[lo:hi:hi])
	}
	return out
}

func (s *sortOp) Next() (*types.Batch, error) { return s.it.next(), nil }
func (s *sortOp) Close() error                { return nil }

// limitOp skips Offset rows and passes through at most N.
type limitOp struct {
	node      *plan.Limit
	child     Operator
	toSkip    int64
	remaining int64
}

func newLimitOp(n *plan.Limit, sc *StatsCollector) (Operator, error) {
	child, err := buildWith(n.Child, sc)
	if err != nil {
		return nil, err
	}
	return &limitOp{node: n, child: child}, nil
}

func (l *limitOp) Schema() types.Schema { return l.child.Schema() }

func (l *limitOp) Open(ctx *Context) error {
	l.toSkip = l.node.Offset
	l.remaining = l.node.N
	if l.remaining < 0 {
		l.remaining = int64(^uint64(0) >> 1) // effectively unlimited
	}
	return l.child.Open(ctx)
}

func (l *limitOp) Next() (*types.Batch, error) {
	for l.remaining > 0 {
		b, err := l.child.Next()
		if err != nil || b == nil {
			return nil, err
		}
		n := int64(b.Len())
		if l.toSkip >= n {
			l.toSkip -= n
			continue
		}
		if l.toSkip > 0 {
			b = b.Slice(int(l.toSkip), int(n))
			n -= l.toSkip
			l.toSkip = 0
		}
		if n > l.remaining {
			b = b.Slice(0, int(l.remaining))
			n = l.remaining
		}
		l.remaining -= n
		return b, nil
	}
	return nil, nil
}

func (l *limitOp) Close() error { return l.child.Close() }

// rowSet deduplicates full rows (Distinct, UNION): a group table keyed by
// every column.
type rowSet struct{ t *groupTable }

func newRowSet(schema types.Schema) *rowSet { return &rowSet{newGroupTable(schema)} }

// filter returns the rows of b not seen before, b itself when all are new
// and nil when none is, and remembers them.
func (s *rowSet) filter(b *types.Batch) *types.Batch {
	hs, _ := hashRows(b.Cols, b.Len())
	var idx []int
	for r, h := range hs {
		if _, added := s.t.find(b.Cols, r, h); added {
			idx = append(idx, r)
		}
	}
	switch len(idx) {
	case 0:
		return nil
	case len(hs):
		return b
	}
	return b.Gather(idx)
}

// distinctOp drops duplicate rows.
type distinctOp struct {
	child Operator
	seen  *rowSet
}

func newDistinctOp(n *plan.Distinct, sc *StatsCollector) (Operator, error) {
	child, err := buildWith(n.Child, sc)
	if err != nil {
		return nil, err
	}
	return &distinctOp{child: child}, nil
}

func (d *distinctOp) Schema() types.Schema { return d.child.Schema() }

func (d *distinctOp) Open(ctx *Context) error {
	d.seen = newRowSet(d.Schema())
	return d.child.Open(ctx)
}

func (d *distinctOp) Next() (*types.Batch, error) {
	for {
		b, err := d.child.Next()
		if err != nil || b == nil {
			return nil, err
		}
		if out := d.seen.filter(b); out != nil {
			return out, nil
		}
	}
}

func (d *distinctOp) Close() error { return d.child.Close() }

// unionOp concatenates two inputs; without ALL it deduplicates.
type unionOp struct {
	node    *plan.Union
	l, r    Operator
	onRight bool
	seen    *rowSet
}

func newUnionOp(n *plan.Union, sc *StatsCollector) (Operator, error) {
	l, err := buildWith(n.L, sc)
	if err != nil {
		return nil, err
	}
	r, err := buildWith(n.R, sc)
	if err != nil {
		return nil, err
	}
	return &unionOp{node: n, l: l, r: r}, nil
}

func (u *unionOp) Schema() types.Schema { return u.l.Schema() }

func (u *unionOp) Open(ctx *Context) error {
	u.onRight = false
	if !u.node.All {
		u.seen = newRowSet(u.Schema())
	}
	if err := u.l.Open(ctx); err != nil {
		return err
	}
	return u.r.Open(ctx)
}

func (u *unionOp) Next() (*types.Batch, error) {
	for {
		src := u.l
		if u.onRight {
			src = u.r
		}
		b, err := src.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			if u.onRight {
				return nil, nil
			}
			u.onRight = true
			continue
		}
		if u.seen == nil {
			// UNION ALL: left batches pass through unchanged, right batches
			// are re-labeled with the unified schema.
			if b.Schema.Equal(u.Schema()) {
				return b, nil
			}
			return &types.Batch{Schema: u.Schema(), Cols: b.Cols}, nil
		}
		if out := u.seen.filter(b); out != nil {
			return &types.Batch{Schema: u.Schema(), Cols: out.Cols}, nil
		}
	}
}

func (u *unionOp) Close() error {
	err1 := u.l.Close()
	err2 := u.r.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

// rowHeap is a max-heap of rows under the sort order: the root is the
// worst kept row, so a better candidate replaces it in O(log k).
type rowHeap struct {
	rows [][]types.Value
	less func(a, b []types.Value) bool
}

func (h *rowHeap) push(row []types.Value) {
	h.rows = append(h.rows, row)
	i := len(h.rows) - 1
	for i > 0 {
		parent := (i - 1) / 2
		// Sift up while the child is worse (greater) than its parent.
		if !h.less(h.rows[parent], h.rows[i]) {
			break
		}
		h.rows[parent], h.rows[i] = h.rows[i], h.rows[parent]
		i = parent
	}
}

func (h *rowHeap) replaceTop(row []types.Value) {
	h.rows[0] = row
	i := 0
	n := len(h.rows)
	for {
		worst := i
		if l := 2*i + 1; l < n && h.less(h.rows[worst], h.rows[l]) {
			worst = l
		}
		if r := 2*i + 2; r < n && h.less(h.rows[worst], h.rows[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		h.rows[i], h.rows[worst] = h.rows[worst], h.rows[i]
		i = worst
	}
}
