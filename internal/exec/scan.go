package exec

import (
	"errors"
	"fmt"

	"lambdadb/internal/faultinject"
	"lambdadb/internal/plan"
	"lambdadb/internal/types"
)

// scanProducer runs a storage scan in its own goroutine and hands its
// batches to the consuming operator through a small channel. The producer
// runs outside the Drain/runParts containment boundaries, so it carries its
// own: a panic becomes an *InternalError on errCh instead of killing the
// process. Cancellation (Close or the query context) is observed per batch.
type scanProducer struct {
	ctx     *Context
	batches chan *types.Batch
	errCh   chan error
	done    chan struct{}
	opened  bool
}

// start launches scan with a yield that forwards each batch to next; op
// names the operator in a contained panic.
func (p *scanProducer) start(ctx *Context, op string, scan func(yield func(*types.Batch) error) error) {
	p.ctx = ctx
	p.batches = make(chan *types.Batch, 4)
	p.errCh = make(chan error, 1)
	p.done = make(chan struct{})
	p.opened = true
	cancelled := ctx.doneCh()
	go func() {
		defer close(p.batches)
		err := func() (err error) {
			defer containPanic(op, &err)
			return scan(func(b *types.Batch) error {
				if err := faultinject.Fire("exec.scan.batch"); err != nil {
					return err
				}
				select {
				case p.batches <- b:
					return nil
				case <-p.done:
					return errScanCancelled
				case <-cancelled:
					return errScanCancelled
				}
			})
		}()
		if err != nil && !errors.Is(err, errScanCancelled) {
			p.errCh <- err
		}
	}()
}

// next returns the producer's next batch, nil at the end of the scan.
func (p *scanProducer) next() (*types.Batch, error) {
	if err := p.ctx.Err(); err != nil {
		return nil, err
	}
	select {
	case err := <-p.errCh:
		return nil, err
	case b, ok := <-p.batches:
		if !ok {
			select {
			case err := <-p.errCh:
				return nil, err
			default:
			}
			// The producer also shuts down on cancellation; report that as
			// the context error, never as a clean end of stream.
			if err := p.ctx.Err(); err != nil {
				return nil, err
			}
			return nil, nil
		}
		return b, nil
	}
}

// stop tells a running producer to quit; it reports whether one was
// running.
func (p *scanProducer) stop() bool {
	if !p.opened {
		return false
	}
	close(p.done)
	p.opened = false
	return true
}

// tableScan reads a stored table (optionally a physical row range).
type tableScan struct {
	node *plan.Scan
	scanProducer
}

func newTableScan(n *plan.Scan) *tableScan { return &tableScan{node: n} }

func (s *tableScan) Schema() types.Schema { return s.node.Schema() }

func (s *tableScan) Open(ctx *Context) error {
	lo, hi := s.node.Lo, s.node.Hi
	if hi < 0 {
		hi = s.node.Rel.PhysicalRows()
	}
	s.start(ctx, "scan", func(yield func(*types.Batch) error) error {
		return s.node.Rel.ScanRange(s.node.Snapshot, lo, hi, yield)
	})
	return nil
}

func (s *tableScan) Next() (*types.Batch, error) { return s.next() }

func (s *tableScan) Close() error {
	s.stop()
	return nil
}

// workingScan reads the current contents of a named working table from the
// execution context (ITERATE / recursive CTE bodies).
type workingScan struct {
	node *plan.WorkingScan
	ctx  *Context
	it   matIterator
}

func newWorkingScan(n *plan.WorkingScan) *workingScan { return &workingScan{node: n} }

func (s *workingScan) Schema() types.Schema { return s.node.Sch }

func (s *workingScan) Open(ctx *Context) error {
	s.ctx = ctx
	mat, ok := ctx.Bindings[s.node.Name]
	if !ok {
		return fmt.Errorf("working table %q is not bound", s.node.Name)
	}
	if s.node.Lo > 0 || s.node.Hi > 0 {
		// Morsel-restricted scan over the bound working table.
		mat = &Materialized{Schema: mat.Schema, Batches: mat.SliceRows(s.node.Lo, s.node.Hi)}
	}
	s.it = matIterator{mat: mat}
	return nil
}

func (s *workingScan) Next() (*types.Batch, error) {
	if err := s.ctx.Err(); err != nil {
		return nil, err
	}
	return s.it.next(), nil
}
func (s *workingScan) Close() error { return nil }

// valuesOp emits literal rows.
type valuesOp struct {
	node *plan.Values
	done bool
}

func newValuesOp(n *plan.Values) *valuesOp { return &valuesOp{node: n} }

func (v *valuesOp) Schema() types.Schema    { return v.node.Sch }
func (v *valuesOp) Open(ctx *Context) error { v.done = false; return nil }

func (v *valuesOp) Next() (*types.Batch, error) {
	if v.done || len(v.node.Rows) == 0 {
		return nil, nil
	}
	v.done = true
	b := types.NewBatch(v.node.Sch)
	for _, row := range v.node.Rows {
		b.AppendRow(row)
	}
	return b, nil
}

func (v *valuesOp) Close() error { return nil }
