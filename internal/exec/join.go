package exec

import (
	"lambdadb/internal/expr"
	"lambdadb/internal/faultinject"
	"lambdadb/internal/plan"
	"lambdadb/internal/types"
)

// rowRef addresses a row inside a Materialized relation.
type rowRef struct {
	batch, row int32
}

// hashTable is a partitioned chained hash table over materialized rows
// keyed by a set of columns. Partition p owns the keys with hash&mask == p,
// so the parallel build needs no locks: each partition is written by
// exactly one worker, and probing is read-only. NULL keys never enter the
// table (SQL equi-join semantics).
type hashTable struct {
	mat   *Materialized
	parts []joinPart
	mask  uint64
}

// joinPart is one partition, stored flat: no per-key allocation. Entry e is
// build row refs[e] with key hash hashes[e]; slots[h>>shift] is the first
// entry of hash h's chain and next[e] the one after e (-1 ends a chain).
// Entries are inserted in reverse row order, so every chain lists its rows
// in row order and the probe emits matches in build-row order whatever the
// number of partitions.
type joinPart struct {
	slots  []int32
	shift  uint
	next   []int32
	hashes []uint64
	refs   []rowRef
}

// hashTableBytesPerRow is the accounting estimate for one build-side row's
// hash-table footprint: its hash, ref and chain link, plus at most two
// slots.
const hashTableBytesPerRow = 32

// buildHashTable constructs the table; when the build side is large enough
// and the context allows parallelism it builds in parallel. One pass hashes
// every row's keys (parallel over batches), then each partition worker
// inserts its own slice of the hash space; a serial build is the same with
// one partition. The table's footprint is charged against the query memory
// budget.
func buildHashTable(mat *Materialized, keyCols []int, ctx *Context) (*hashTable, error) {
	if err := ctx.charge("join", int64(mat.NumRows)*hashTableBytesPerRow); err != nil {
		return nil, err
	}
	p := 1
	if ctx.workers() > 1 && mat.NumRows >= 2*minRowsPerWorker {
		for p < ctx.workers() {
			p <<= 1
		}
	}
	ht := &hashTable{mat: mat, parts: make([]joinPart, p), mask: uint64(p - 1)}
	hashes := make([][]uint64, len(mat.Batches))
	valid := make([][]bool, len(mat.Batches))
	if err := runParts(ctx, len(mat.Batches), func(bi int) error {
		hashes[bi], valid[bi] = hashRows(keyColumns(mat.Batches[bi], keyCols), mat.Batches[bi].Len())
		return nil
	}); err != nil {
		return nil, err
	}
	if err := runParts(ctx, p, func(pi int) error {
		ht.parts[pi].build(hashes, valid, ht.mask, uint64(pi))
		return nil
	}); err != nil {
		return nil, err
	}
	return ht, nil
}

// build inserts the rows with a non-NULL key whose hash falls in partition
// target.
func (jp *joinPart) build(hashes [][]uint64, valid [][]bool, mask, target uint64) {
	mine := func(bi, i int) bool {
		return (valid[bi] == nil || valid[bi][i]) && hashes[bi][i]&mask == target
	}
	n := 0
	for bi, hs := range hashes {
		for i := range hs {
			if mine(bi, i) {
				n++
			}
		}
	}
	bits := uint(0)
	for 1<<bits < n {
		bits++
	}
	jp.shift = 64 - bits
	jp.slots = make([]int32, 1<<bits)
	for s := range jp.slots {
		jp.slots[s] = -1
	}
	jp.next = make([]int32, n)
	jp.hashes = make([]uint64, n)
	jp.refs = make([]rowRef, n)
	e := n
	for bi := len(hashes) - 1; bi >= 0; bi-- {
		for i := len(hashes[bi]) - 1; i >= 0; i-- {
			if !mine(bi, i) {
				continue
			}
			e--
			h := hashes[bi][i]
			s := h >> jp.shift
			jp.hashes[e], jp.refs[e], jp.next[e] = h, rowRef{int32(bi), int32(i)}, jp.slots[s]
			jp.slots[s] = int32(e)
		}
	}
}

// keyColumns picks the key columns out of a batch.
func keyColumns(b *types.Batch, cols []int) []*types.Column {
	out := make([]*types.Column, len(cols))
	for k, c := range cols {
		out[k] = b.Cols[c]
	}
	return out
}

// hashRows returns the combined hash of cols for each of n rows, and which
// rows have no NULL in cols (nil when no row has one). A NULL hashes like
// every other NULL, which is what GROUP BY and DISTINCT need; joins skip
// the rows that are not valid.
func hashRows(cols []*types.Column, n int) ([]uint64, []bool) {
	hs := make([]uint64, n)
	var valid []bool
	for _, c := range cols {
		if c.Nulls != nil && valid == nil {
			valid = make([]bool, n)
			for i := range valid {
				valid[i] = true
			}
		}
		for i := range hs {
			hs[i] = types.HashCombine(hs[i], c.HashAt(i))
			if c.IsNull(i) {
				valid[i] = false
			}
		}
	}
	return hs, valid
}

// keysEqual compares key columns between two rows.
func keysEqual(a []*types.Column, ai int, b *types.Batch, bCols []int, bi int) bool {
	for k, c := range a {
		if !c.EqualAt(ai, b.Cols[bCols[k]], bi) {
			return false
		}
	}
	return true
}

// nullExtend returns the rows of b that matched does not mark, followed
// by NULLs for the remaining columns of schema — a left join's unmatched
// rows — or nil when every row matched.
func nullExtend(schema types.Schema, b *types.Batch, matched []bool) *types.Batch {
	var idx []int
	for i, m := range matched {
		if !m {
			idx = append(idx, i)
		}
	}
	if len(idx) == 0 {
		return nil
	}
	out := &types.Batch{Schema: schema, Cols: make([]*types.Column, len(schema))}
	for ci, c := range b.Cols {
		out.Cols[ci] = c.Gather(idx)
	}
	for ci := len(b.Cols); ci < len(schema); ci++ {
		out.Cols[ci] = types.ConstColumn(types.NewNull(schema[ci].Type), len(idx))
	}
	return out
}

// joinOp executes inner, left-outer, and cross joins. With equi keys it is
// a hash join — partition-parallel build and, when the probe side is a
// splittable scan pipeline, morsel-parallel probe; otherwise a block
// nested-loop join.
type joinOp struct {
	node   *plan.Join
	schema types.Schema

	ctx *Context

	// Hash-join state.
	ht          *hashTable
	buildIsLeft bool
	probe       Operator // serial streaming probe
	pr          *prober  // serial streaming probe state
	parallel    bool     // probe ran morsel-parallel in Open
	it          matIterator

	pendingOut []*types.Batch

	// Nested-loop state.
	left      Operator
	right     Operator
	onEval    expr.Evaluator
	rightMat  *Materialized
	nlLeft    *types.Batch
	nlMatched []bool
	nlRight   int
	done      bool
}

func newJoinOp(n *plan.Join) (Operator, error) {
	// Compile condition expressions eagerly so malformed plans fail at
	// build time; per-worker probers recompile their own copies.
	if n.Residual != nil {
		if _, err := expr.Compile(n.Residual); err != nil {
			return nil, err
		}
	}
	if n.On != nil && len(n.EquiLeft) == 0 {
		if _, err := expr.Compile(n.On); err != nil {
			return nil, err
		}
	}
	return &joinOp{node: n, schema: n.Schema()}, nil
}

func (j *joinOp) Schema() types.Schema { return j.schema }

func (j *joinOp) Open(ctx *Context) error {
	j.ctx = ctx
	j.done = false
	j.parallel = false
	j.pendingOut = nil
	useHash := len(j.node.EquiLeft) > 0 &&
		(j.node.Type == plan.InnerJoin || j.node.Type == plan.LeftJoin)
	if useHash {
		return j.openHash(ctx)
	}
	return j.openLoop(ctx)
}

// openHash runs the two hash-join phases. Build: drain the build side
// (morsel-parallel when its pipeline splits) and build the partitioned
// table. Probe: when the probe side splits, each worker streams its morsels
// against the shared read-only table with private output buffers —
// concatenating per-part outputs in part order reproduces the serial output
// order exactly; otherwise probe batches stream through Next as before.
func (j *joinOp) openHash(ctx *Context) error {
	// Inner joins build on the left (the optimizer put the smaller side
	// there); left-outer joins must probe with the left side, so they build
	// on the right.
	j.buildIsLeft = j.node.Type == plan.InnerJoin
	buildPlan, buildKeys := j.node.L, j.node.EquiLeft
	probePlan := j.node.R
	if !j.buildIsLeft {
		buildPlan, buildKeys = j.node.R, j.node.EquiRight
		probePlan = j.node.L
	}
	if err := faultinject.Fire("exec.join.build"); err != nil {
		return err
	}
	mat, err := drainPipeline(buildPlan, ctx)
	if err != nil {
		return err
	}
	j.ht, err = buildHashTable(mat, buildKeys, ctx)
	if err != nil {
		return err
	}

	if parts := splitParallel(probePlan, ctx.workers(), ctx); len(parts) > 1 {
		outs := make([][]*types.Batch, len(parts))
		err := runParts(ctx, len(parts), func(i int) error {
			pr, err := j.newProber()
			if err != nil {
				return err
			}
			op, err := buildFor(parts[i], ctx)
			if err != nil {
				return err
			}
			if err := op.Open(ctx); err != nil {
				op.Close()
				return err
			}
			defer op.Close()
			for {
				if err := faultinject.Fire("exec.join.probe"); err != nil {
					return err
				}
				if err := ctx.Err(); err != nil {
					return err
				}
				pb, err := op.Next()
				if err != nil {
					return err
				}
				if pb == nil {
					return nil
				}
				bs, err := pr.probeBatch(pb)
				if err != nil {
					return err
				}
				for _, b := range bs {
					if err := ctx.charge("join", batchBytes(b)); err != nil {
						return err
					}
				}
				outs[i] = append(outs[i], bs...)
			}
		})
		if err != nil {
			return err
		}
		res := &Materialized{Schema: j.schema}
		for _, bs := range outs {
			for _, b := range bs {
				res.Append(b)
			}
		}
		j.parallel = true
		j.it = matIterator{mat: res}
		return nil
	}

	pr, err := j.newProber()
	if err != nil {
		return err
	}
	j.pr = pr
	op, err := buildFor(probePlan, ctx)
	if err != nil {
		return err
	}
	j.probe = op
	return op.Open(ctx)
}

// openLoop prepares the block nested-loop join: materialize the right side,
// stream the left.
func (j *joinOp) openLoop(ctx *Context) error {
	l, err := buildFor(j.node.L, ctx)
	if err != nil {
		return err
	}
	j.left = l
	if j.node.On != nil && len(j.node.EquiLeft) == 0 {
		ev, err := expr.Compile(j.node.On)
		if err != nil {
			return err
		}
		j.onEval = ev
	}
	mat, err := drainPipeline(j.node.R, ctx)
	if err != nil {
		return err
	}
	j.rightMat = mat
	return j.left.Open(ctx)
}

func (j *joinOp) Close() error {
	if j.ht != nil {
		if j.probe != nil {
			return j.probe.Close()
		}
		return nil
	}
	if j.left != nil {
		return j.left.Close()
	}
	return nil
}

func (j *joinOp) Next() (*types.Batch, error) {
	if j.parallel {
		return j.it.next(), nil
	}
	if j.ht != nil {
		return j.hashNext()
	}
	return j.loopNext()
}

// hashNext probes the hash table with the next probe-side batch.
func (j *joinOp) hashNext() (*types.Batch, error) {
	for {
		if len(j.pendingOut) > 0 {
			b := j.pendingOut[0]
			j.pendingOut = j.pendingOut[1:]
			return b, nil
		}
		if err := faultinject.Fire("exec.join.probe"); err != nil {
			return nil, err
		}
		pb, err := j.probe.Next()
		if err != nil || pb == nil {
			return nil, err
		}
		bs, err := j.pr.probeBatch(pb)
		if err != nil {
			return nil, err
		}
		j.pendingOut = append(j.pendingOut, bs...)
	}
}

// prober holds the per-worker probe state of a hash join: its own compiled
// residual evaluator (compiled closures are not shared across goroutines)
// over the operator-wide read-only hash table.
type prober struct {
	j        *joinOp
	residual expr.Evaluator
	// Match buffers, reused from batch to batch: build row and probe row
	// of each matching pair.
	buildRefs []rowRef
	probeIdx  []int
}

func (j *joinOp) newProber() (*prober, error) {
	pr := &prober{j: j}
	if j.node.Residual != nil {
		ev, err := expr.Compile(j.node.Residual)
		if err != nil {
			return nil, err
		}
		pr.residual = ev
	}
	return pr, nil
}

// probeBatch joins one probe-side batch against the hash table, returning
// the matched rows followed by any left-join NULL-extended rows.
func (p *prober) probeBatch(pb *types.Batch) ([]*types.Batch, error) {
	j := p.j
	probeKeys := j.node.EquiRight
	buildKeys := j.node.EquiLeft
	if !j.buildIsLeft {
		probeKeys, buildKeys = j.node.EquiLeft, j.node.EquiRight
	}
	n := pb.Len()
	keys := keyColumns(pb, probeKeys)
	hs, valid := hashRows(keys, n)
	ht := j.ht
	buildRefs, probeIdx := p.buildRefs[:0], p.probeIdx[:0]
	for i, h := range hs {
		if valid != nil && !valid[i] {
			continue
		}
		jp := &ht.parts[h&ht.mask]
		for e := jp.slots[h>>jp.shift]; e >= 0; e = jp.next[e] {
			if jp.hashes[e] != h {
				continue
			}
			ref := jp.refs[e]
			if keysEqual(keys, i, ht.mat.Batches[ref.batch], buildKeys, int(ref.row)) {
				buildRefs = append(buildRefs, ref)
				probeIdx = append(probeIdx, i)
			}
		}
	}
	p.buildRefs, p.probeIdx = buildRefs, probeIdx
	out, keep, err := p.assemble(pb, probeIdx, buildRefs)
	if err != nil {
		return nil, err
	}
	var res []*types.Batch
	if out != nil && out.Len() > 0 {
		res = append(res, out)
	}
	if j.node.Type == plan.LeftJoin {
		// A probe row is unmatched when no build row has its key or the
		// residual rejected every pair it was in.
		matched := make([]bool, n)
		for oi, pi := range probeIdx {
			if keep == nil || keep[oi] {
				matched[pi] = true
			}
		}
		if nb := nullExtend(j.schema, pb, matched); nb != nil {
			res = append(res, nb)
		}
	}
	return res, nil
}

// assemble materializes matched pairs in output column order (left then
// right), applying the residual predicate. keep reports which output rows
// survived the residual (nil = all).
func (p *prober) assemble(pb *types.Batch, probeIdx []int, buildRefs []rowRef) (*types.Batch, []bool, error) {
	j := p.j
	if len(probeIdx) == 0 {
		return nil, nil, nil
	}
	nl := len(j.node.L.Schema())
	out := &types.Batch{Schema: j.schema, Cols: make([]*types.Column, len(j.schema))}
	for ci := range j.schema {
		fromLeft := ci < nl
		srcCol := ci
		if !fromLeft {
			srcCol = ci - nl
		}
		if fromLeft != j.buildIsLeft {
			// Probe-side column: a single gather.
			out.Cols[ci] = pb.Cols[srcCol].Gather(probeIdx)
			continue
		}
		// Build-side column: rows scatter across the materialized batches.
		col := types.NewColumn(j.schema[ci].Type, len(probeIdx))
		for _, ref := range buildRefs {
			col.AppendAt(j.ht.mat.Batches[ref.batch].Cols[srcCol], int(ref.row))
		}
		out.Cols[ci] = col
	}
	if p.residual == nil {
		return out, nil, nil
	}
	c, err := p.residual(out)
	if err != nil {
		return nil, nil, err
	}
	keep := make([]bool, out.Len())
	idx := make([]int, 0, out.Len())
	for i := range keep {
		keep[i] = !c.IsNull(i) && c.Bools[i]
		if keep[i] {
			idx = append(idx, i)
		}
	}
	if len(idx) == out.Len() {
		return out, keep, nil
	}
	return out.Gather(idx), keep, nil
}

// loopNext implements block nested-loop join (cross joins and non-equi
// conditions).
func (j *joinOp) loopNext() (*types.Batch, error) {
	for {
		if len(j.pendingOut) > 0 {
			b := j.pendingOut[0]
			j.pendingOut = j.pendingOut[1:]
			return b, nil
		}
		if j.done {
			return nil, nil
		}
		if j.nlLeft == nil {
			lb, err := j.left.Next()
			if err != nil {
				return nil, err
			}
			if lb == nil {
				j.done = true
				continue
			}
			j.nlLeft = lb
			j.nlMatched = make([]bool, lb.Len())
			j.nlRight = 0
		}
		if j.nlRight >= len(j.rightMat.Batches) {
			// Finished all right batches for this left batch.
			if j.node.Type == plan.LeftJoin {
				if nb := nullExtend(j.schema, j.nlLeft, j.nlMatched); nb != nil {
					j.pendingOut = append(j.pendingOut, nb)
				}
			}
			j.nlLeft = nil
			continue
		}
		rb := j.rightMat.Batches[j.nlRight]
		j.nlRight++
		if err := j.crossBlock(j.nlLeft, rb); err != nil {
			return nil, err
		}
	}
}

// crossBlock queues the filtered cross product of two batches and records
// which left rows matched. It takes the left rows in chunks whose product
// with the right block fits one batch, so the vectors downstream stay
// batch-sized. Output columns are built column-wise: each left row repeats
// once per right row (a gather), and the right block is tiled once per
// left row.
func (j *joinOp) crossBlock(lb, rb *types.Batch) error {
	ln, rn := lb.Len(), rb.Len()
	nl := len(lb.Cols)
	step := max(1, types.BatchSize/max(rn, 1))
	for lo := 0; lo < ln; lo += step {
		hi := min(lo+step, ln)
		leftIdx := make([]int, 0, (hi-lo)*rn)
		for li := lo; li < hi; li++ {
			for ri := 0; ri < rn; ri++ {
				leftIdx = append(leftIdx, li)
			}
		}
		out := &types.Batch{Schema: j.schema, Cols: make([]*types.Column, len(j.schema))}
		for ci, c := range lb.Cols {
			out.Cols[ci] = c.Gather(leftIdx)
		}
		for ci, c := range rb.Cols {
			col := types.NewColumn(j.schema[nl+ci].Type, len(leftIdx))
			for li := lo; li < hi; li++ {
				col.AppendColumn(c)
			}
			out.Cols[nl+ci] = col
		}
		if j.onEval == nil {
			for li := lo; li < hi; li++ {
				j.nlMatched[li] = true
			}
			j.pendingOut = append(j.pendingOut, out)
			continue
		}
		c, err := j.onEval(out)
		if err != nil {
			return err
		}
		idx := make([]int, 0, out.Len())
		for i := range leftIdx {
			if !c.IsNull(i) && c.Bools[i] {
				idx = append(idx, i)
				j.nlMatched[leftIdx[i]] = true
			}
		}
		switch len(idx) {
		case 0:
		case out.Len():
			j.pendingOut = append(j.pendingOut, out)
		default:
			j.pendingOut = append(j.pendingOut, out.Gather(idx))
		}
	}
	return nil
}
