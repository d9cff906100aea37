package exec

import (
	"lambdadb/internal/plan"
	"lambdadb/internal/types"
)

// indexScan probes a secondary index (point or range) and emits the
// visible matching rows through the same producer as tableScan.
type indexScan struct {
	node *plan.IndexScan
	scanProducer
	rows int64
}

func newIndexScan(n *plan.IndexScan) *indexScan { return &indexScan{node: n} }

func (s *indexScan) Schema() types.Schema { return s.node.Schema() }

func (s *indexScan) Open(ctx *Context) error {
	s.rows = 0
	n := s.node
	s.start(ctx, "index-scan", func(yield func(*types.Batch) error) error {
		if n.Eq != nil {
			return n.Rel.IndexLookupEq(n.Index, *n.Eq, n.Snapshot, yield)
		}
		return n.Rel.IndexLookupRange(n.Index, n.Lo, n.Hi, n.LoInc, n.HiInc, n.Snapshot, yield)
	})
	return nil
}

func (s *indexScan) Next() (*types.Batch, error) {
	b, err := s.next()
	if b != nil {
		s.rows += int64(b.Len())
	}
	return b, err
}

func (s *indexScan) Close() error {
	if s.stop() && s.ctx != nil && s.ctx.OnIndexProbe != nil {
		s.ctx.OnIndexProbe(s.rows)
	}
	return nil
}
