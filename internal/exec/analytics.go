package exec

import (
	"fmt"
	"slices"
	"time"

	"lambdadb/internal/analytics"
	"lambdadb/internal/expr"
	"lambdadb/internal/graph"
	"lambdadb/internal/plan"
	"lambdadb/internal/types"
)

// floatMatrix is a materialized numeric input: n rows of d float64 columns,
// row-major.
type floatMatrix struct {
	data []float64
	n, d int
}

// drainFloatMatrix materializes a plan into a row-major float matrix,
// scanning morsel-parallel when the input pipeline allows it. NULLs in
// analytical inputs are rejected.
func drainFloatMatrix(p plan.Node, ctx *Context) (*floatMatrix, error) {
	d := len(p.Schema())
	for _, c := range p.Schema() {
		if !c.Type.IsNumeric() {
			return nil, fmt.Errorf("analytical input column %q is %s, need a numeric type", c.Name, c.Type)
		}
	}
	parts := splitParallel(p, ctx.workers(), ctx)
	if len(parts) <= 1 {
		data, n, err := drainFloatsSerial(p, ctx, d)
		if err != nil {
			return nil, err
		}
		return &floatMatrix{data: data, n: n, d: d}, nil
	}
	datas := make([][]float64, len(parts))
	ns := make([]int, len(parts))
	err := runParts(ctx, len(parts), func(i int) error {
		var err error
		datas[i], ns[i], err = drainFloatsSerial(parts[i], ctx, d)
		return err
	})
	if err != nil {
		return nil, err
	}
	total := 0
	for i := range parts {
		total += ns[i]
	}
	data := make([]float64, 0, total*d)
	for _, part := range datas {
		data = append(data, part...)
	}
	return &floatMatrix{data: data, n: total, d: d}, nil
}

func drainFloatsSerial(p plan.Node, ctx *Context, d int) ([]float64, int, error) {
	op, err := buildFor(p, ctx)
	if err != nil {
		return nil, 0, err
	}
	if err := op.Open(ctx); err != nil {
		op.Close()
		return nil, 0, err
	}
	defer op.Close()
	var data []float64
	n := 0
	for {
		b, err := op.Next()
		if err != nil {
			return nil, 0, err
		}
		if b == nil {
			break
		}
		rows := b.Len()
		data = slices.Grow(data, rows*d)
		for i := 0; i < rows; i++ {
			data = data[:len(data)+d]
			if err := rowFloats(data[len(data)-d:], b, i); err != nil {
				return nil, 0, err
			}
		}
		n += rows
	}
	return data, n, nil
}

// rowFloats copies row i of b's first len(dst) columns into dst. NULLs in
// analytical inputs are rejected with an error naming the column.
func rowFloats(dst []float64, b *types.Batch, i int) error {
	for j := range dst {
		col := b.Cols[j]
		if col.IsNull(i) {
			return fmt.Errorf("NULL in analytical input column %q", b.Schema[j].Name)
		}
		if col.T == types.Int64 {
			dst[j] = float64(col.Ints[i])
		} else {
			dst[j] = col.Floats[i]
		}
	}
	return nil
}

// kmeansOp is the physical k-Means operator (paper Section 6.1).
type kmeansOp struct {
	node *plan.KMeans
	dist analytics.DistanceFn
	it   matIterator
}

func newKMeansOp(n *plan.KMeans) (Operator, error) {
	op := &kmeansOp{node: n}
	if n.Lambda != nil {
		fn, err := expr.CompileFloatLambda(n.Lambda)
		if err != nil {
			return nil, fmt.Errorf("kmeans lambda: %w", err)
		}
		op.dist = analytics.DistanceFn(fn)
	}
	return op, nil
}

func (k *kmeansOp) Schema() types.Schema { return k.node.Schema() }

func (k *kmeansOp) Open(ctx *Context) error {
	data, err := drainFloatMatrix(k.node.Data, ctx)
	if err != nil {
		return fmt.Errorf("kmeans data: %w", err)
	}
	centers, err := drainFloatMatrix(k.node.Centers, ctx)
	if err != nil {
		return fmt.Errorf("kmeans centers: %w", err)
	}
	if centers.n == 0 {
		return fmt.Errorf("kmeans: no initial centers")
	}
	if data.n == 0 {
		return fmt.Errorf("kmeans: empty data input")
	}
	opts := analytics.KMeansOptions{MaxIter: k.node.MaxIter, Workers: ctx.Workers, Distance: k.dist}
	if sc := ctx.statsCollector(); sc != nil {
		last := time.Now()
		opts.OnIteration = func(round, changed int) {
			now := time.Now()
			sc.AddIteration(k.node, IterationStat{
				Round: round,
				Rows:  int64(changed),
				Delta: float64(changed),
				Nanos: now.Sub(last).Nanoseconds(),
			})
			last = now
		}
	}
	res, err := analytics.KMeans(data.data, data.n, data.d, centers.data, centers.n, opts)
	if err != nil {
		return err
	}
	schema := k.Schema()
	out := &Materialized{Schema: schema}
	b := types.NewBatch(schema)
	for c := 0; c < centers.n; c++ {
		row := make([]types.Value, 0, data.d+1)
		row = append(row, types.NewInt(int64(c)))
		for j := 0; j < data.d; j++ {
			row = append(row, types.NewFloat(res.Centers[c*data.d+j]))
		}
		b.AppendRow(row)
	}
	out.Append(b)
	k.it = matIterator{mat: out}
	return nil
}

func (k *kmeansOp) Next() (*types.Batch, error) { return k.it.next(), nil }
func (k *kmeansOp) Close() error                { return nil }

// kmeansAssignOp applies centers to data rows, appending the nearest
// cluster id to every tuple (model application).
type kmeansAssignOp struct {
	node   *plan.KMeansAssign
	dist   analytics.DistanceFn
	schema types.Schema
	it     matIterator
}

func newKMeansAssignOp(n *plan.KMeansAssign) (*kmeansAssignOp, error) {
	op := &kmeansAssignOp{node: n, schema: n.Schema()}
	if n.Lambda != nil {
		fn, err := expr.CompileFloatLambda(n.Lambda)
		if err != nil {
			return nil, fmt.Errorf("kmeans_assign lambda: %w", err)
		}
		op.dist = analytics.DistanceFn(fn)
	}
	return op, nil
}

func (k *kmeansAssignOp) Schema() types.Schema { return k.schema }

func (k *kmeansAssignOp) Open(ctx *Context) error {
	centers, err := drainFloatMatrix(k.node.Centers, ctx)
	if err != nil {
		return fmt.Errorf("kmeans_assign centers: %w", err)
	}
	if centers.n == 0 {
		return fmt.Errorf("kmeans_assign: no centers")
	}
	dataMat, err := Run(k.node.Data, ctx)
	if err != nil {
		return fmt.Errorf("kmeans_assign data: %w", err)
	}
	d := centers.d
	out := &Materialized{Schema: k.schema}
	row := make([]float64, d)
	for _, b := range dataMat.Batches {
		n := b.Len()
		clusterCol := types.NewColumn(types.Int64, n)
		for i := 0; i < n; i++ {
			if err := rowFloats(row, b, i); err != nil {
				return err
			}
			best := analytics.Assign(row, 1, d, centers.data, centers.n, k.dist, 1)
			clusterCol.AppendInt(int64(best[0]))
		}
		nb := &types.Batch{Schema: k.schema,
			Cols: append(append([]*types.Column{}, b.Cols...), clusterCol)}
		out.Append(nb)
	}
	k.it = matIterator{mat: out}
	return nil
}

func (k *kmeansAssignOp) Next() (*types.Batch, error) { return k.it.next(), nil }
func (k *kmeansAssignOp) Close() error                { return nil }

// pageRankOp is the physical PageRank operator (paper Section 6.3): it
// builds a temporary CSR index with dense re-labeled vertex ids, runs the
// ranking iterations, and maps ids back on output. An edge-weight lambda
// (Section 7) makes the CSR weighted.
type pageRankOp struct {
	node   *plan.PageRank
	weight expr.FloatFn
	it     matIterator
}

func newPageRankOp(n *plan.PageRank) (*pageRankOp, error) {
	op := &pageRankOp{node: n}
	if n.Lambda != nil {
		fn, err := expr.CompileFloatLambda(n.Lambda)
		if err != nil {
			return nil, fmt.Errorf("pagerank lambda: %w", err)
		}
		op.weight = fn
	}
	return op, nil
}

func (p *pageRankOp) Schema() types.Schema { return p.node.Schema() }

func (p *pageRankOp) Open(ctx *Context) error {
	src, dst, weights, err := drainEdges(p.node.Edges, ctx, p.weight)
	if err != nil {
		return fmt.Errorf("pagerank edges: %w", err)
	}
	g, err := graph.BuildWeighted(src, dst, weights)
	if err != nil {
		return err
	}
	opts := analytics.PageRankOptions{
		Damping: p.node.Damping,
		Epsilon: p.node.Epsilon,
		MaxIter: p.node.MaxIter,
		Workers: ctx.Workers,
	}
	if sc := ctx.statsCollector(); sc != nil {
		nRanks := int64(g.N)
		last := time.Now()
		opts.OnIteration = func(round int, delta float64) {
			now := time.Now()
			sc.AddIteration(p.node, IterationStat{
				Round: round,
				Rows:  nRanks,
				Delta: delta,
				Nanos: now.Sub(last).Nanoseconds(),
			})
			last = now
		}
	}
	res, err := analytics.PageRank(g, opts)
	if err != nil {
		return err
	}
	schema := p.Schema()
	out := &Materialized{Schema: schema}
	b := types.NewBatch(schema)
	for v := 0; v < g.N; v++ {
		// Reverse mapping: dense internal id back to the original id.
		b.AppendRow([]types.Value{types.NewInt(g.OrigIDs[v]), types.NewFloat(res.Ranks[v])})
		if b.Len() >= types.BatchSize {
			out.Append(b)
			b = types.NewBatch(schema)
		}
	}
	out.Append(b)
	p.it = matIterator{mat: out}
	return nil
}

func (p *pageRankOp) Next() (*types.Batch, error) { return p.it.next(), nil }
func (p *pageRankOp) Close() error                { return nil }

// drainEdges materializes an edge plan into src/dst slices; with a weight
// function, each edge tuple (as floats) is passed through it to produce
// per-edge weights.
func drainEdges(p plan.Node, ctx *Context, weight expr.FloatFn) (src, dst []int64, weights []float64, err error) {
	op, err := buildFor(p, ctx)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := op.Open(ctx); err != nil {
		op.Close()
		return nil, nil, nil, err
	}
	defer op.Close()
	ncols := len(p.Schema())
	tuple := make([]float64, ncols)
	for {
		b, err := op.Next()
		if err != nil {
			return nil, nil, nil, err
		}
		if b == nil {
			return src, dst, weights, nil
		}
		sc, dc := b.Cols[0], b.Cols[1]
		n := b.Len()
		for i := 0; i < n; i++ {
			if sc.IsNull(i) || dc.IsNull(i) {
				return nil, nil, nil, fmt.Errorf("NULL vertex id in edge input")
			}
		}
		src = append(src, sc.Ints...)
		dst = append(dst, dc.Ints...)
		if weight == nil {
			continue
		}
		for i := 0; i < n; i++ {
			if err := rowFloats(tuple, b, i); err != nil {
				return nil, nil, nil, err
			}
			w := weight(tuple, nil)
			if w < 0 {
				return nil, nil, nil, fmt.Errorf("edge-weight lambda produced negative weight %g", w)
			}
			weights = append(weights, w)
		}
	}
}

// nbTrainOp is the Naive Bayes training operator (paper Section 6.2). The
// last input column is the class label.
type nbTrainOp struct {
	node *plan.NaiveBayesTrain
	it   matIterator
}

func newNBTrainOp(n *plan.NaiveBayesTrain) *nbTrainOp { return &nbTrainOp{node: n} }

func (t *nbTrainOp) Schema() types.Schema { return plan.NBModelSchema }

func (t *nbTrainOp) Open(ctx *Context) error {
	m, err := drainFloatMatrix(t.node.Data, ctx)
	if err != nil {
		return fmt.Errorf("naive_bayes_train: %w", err)
	}
	if m.n == 0 {
		return fmt.Errorf("naive_bayes_train: empty training set")
	}
	// Split off the label column.
	d := m.d - 1
	feats := make([]float64, m.n*d)
	labels := make([]int64, m.n)
	for i := 0; i < m.n; i++ {
		copy(feats[i*d:], m.data[i*m.d:i*m.d+d])
		labels[i] = int64(m.data[i*m.d+d])
	}
	model, err := analytics.TrainNB(feats, m.n, d, labels, ctx.Workers)
	if err != nil {
		return err
	}
	t.it = matIterator{mat: modelToRelation(model)}
	return nil
}

func (t *nbTrainOp) Next() (*types.Batch, error) { return t.it.next(), nil }
func (t *nbTrainOp) Close() error                { return nil }

// modelToRelation encodes an NBModel in the relational model schema: one
// row per (class, feature).
func modelToRelation(m *analytics.NBModel) *Materialized {
	out := &Materialized{Schema: plan.NBModelSchema}
	b := types.NewBatch(plan.NBModelSchema)
	for c, label := range m.Labels {
		for f := range m.Means[c] {
			b.AppendRow([]types.Value{
				types.NewInt(label),
				types.NewInt(int64(f)),
				types.NewFloat(m.Priors[c]),
				types.NewFloat(m.Means[c][f]),
				types.NewFloat(m.Stds[c][f]),
			})
			if b.Len() >= types.BatchSize {
				out.Append(b)
				b = types.NewBatch(plan.NBModelSchema)
			}
		}
	}
	out.Append(b)
	return out
}

// relationToModel decodes the model relation back into an NBModel.
func relationToModel(mat *Materialized) (*analytics.NBModel, error) {
	type key struct {
		label   int64
		feature int64
	}
	priors := map[int64]float64{}
	means := map[key]float64{}
	stds := map[key]float64{}
	maxFeature := int64(-1)
	for _, b := range mat.Batches {
		n := b.Len()
		for i := 0; i < n; i++ {
			label := b.Cols[0].Ints[i]
			feature := b.Cols[1].Ints[i]
			priors[label] = b.Cols[2].Floats[i]
			means[key{label, feature}] = b.Cols[3].Floats[i]
			stds[key{label, feature}] = b.Cols[4].Floats[i]
			if feature > maxFeature {
				maxFeature = feature
			}
		}
	}
	if len(priors) == 0 {
		return nil, fmt.Errorf("naive_bayes_predict: empty model")
	}
	labels := make([]int64, 0, len(priors))
	for l := range priors {
		labels = append(labels, l)
	}
	slices.Sort(labels)
	d := int(maxFeature + 1)
	m := &analytics.NBModel{Labels: labels}
	for _, l := range labels {
		m.Priors = append(m.Priors, priors[l])
		mm := make([]float64, d)
		ss := make([]float64, d)
		for f := 0; f < d; f++ {
			mean, ok := means[key{l, int64(f)}]
			if !ok {
				return nil, fmt.Errorf("naive_bayes_predict: model missing feature %d for label %d", f, l)
			}
			mm[f] = mean
			ss[f] = stds[key{l, int64(f)}]
		}
		m.Means = append(m.Means, mm)
		m.Stds = append(m.Stds, ss)
	}
	return m, nil
}

// nbPredictOp applies a trained model to feature rows, appending the
// predicted label.
type nbPredictOp struct {
	node   *plan.NaiveBayesPredict
	schema types.Schema
	it     matIterator
}

func newNBPredictOp(n *plan.NaiveBayesPredict) *nbPredictOp {
	return &nbPredictOp{node: n, schema: n.Schema()}
}

func (p *nbPredictOp) Schema() types.Schema { return p.schema }

func (p *nbPredictOp) Open(ctx *Context) error {
	modelMat, err := Run(p.node.Model, ctx)
	if err != nil {
		return fmt.Errorf("naive_bayes_predict model: %w", err)
	}
	model, err := relationToModel(modelMat)
	if err != nil {
		return err
	}
	dataMat, err := Run(p.node.Data, ctx)
	if err != nil {
		return fmt.Errorf("naive_bayes_predict data: %w", err)
	}
	d := len(p.node.Data.Schema())
	if len(model.Means) > 0 && len(model.Means[0]) != d {
		return fmt.Errorf("naive_bayes_predict: model has %d features, data has %d",
			len(model.Means[0]), d)
	}
	out := &Materialized{Schema: p.schema}
	row := make([]float64, d)
	for _, b := range dataMat.Batches {
		n := b.Len()
		labelCol := types.NewColumn(types.Int64, n)
		for i := 0; i < n; i++ {
			if err := rowFloats(row, b, i); err != nil {
				return err
			}
			labelCol.AppendInt(model.Predict(row))
		}
		nb := &types.Batch{Schema: p.schema, Cols: append(append([]*types.Column{}, b.Cols...), labelCol)}
		out.Append(nb)
	}
	p.it = matIterator{mat: out}
	return nil
}

func (p *nbPredictOp) Next() (*types.Batch, error) { return p.it.next(), nil }
func (p *nbPredictOp) Close() error                { return nil }
