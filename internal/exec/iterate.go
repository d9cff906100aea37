package exec

import (
	"fmt"
	"time"

	"lambdadb/internal/faultinject"
	"lambdadb/internal/plan"
	"lambdadb/internal/types"
)

// iterateOp implements the paper's non-appending iteration (Section 5.1):
//
//	working := Init
//	while Stop(working) yields no rows:
//	    working := Step(working)
//	return working
//
// Only the current (and the just-computed next) working table are ever
// materialized — the memory advantage over recursive CTEs that Section 5.1
// argues for. Step and Stop are logical subplans re-instantiated each
// iteration so the optimizer's plan is reused while operator state is not.
//
// The iteration context (including ctx.Workers) is passed through to every
// Init/Step/Stop execution, and working tables bound here are splittable
// into row-range morsels (WorkingScan Lo/Hi), so joins, sorts, and
// aggregates inside the loop body run morsel-parallel each round.
type iterateOp struct {
	node *plan.Iterate
	it   matIterator
}

func newIterateOp(n *plan.Iterate) *iterateOp { return &iterateOp{node: n} }

func (i *iterateOp) Schema() types.Schema { return i.node.Schema() }

func (i *iterateOp) Open(ctx *Context) error {
	working, err := Run(i.node.Init, ctx)
	if err != nil {
		return fmt.Errorf("iterate init: %w", err)
	}
	saved, had := ctx.Bindings["iterate"]
	defer func() {
		if had {
			ctx.Bindings["iterate"] = saved
		} else {
			delete(ctx.Bindings, "iterate")
		}
	}()

	sc := ctx.statsCollector()
	for depth := 0; ; depth++ {
		// One cancellation check per round: a cancelled ITERATE aborts
		// before starting the next iteration, and the deferred restore above
		// unbinds the working table so the context stays reusable.
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := faultinject.Fire("exec.iterate.round"); err != nil {
			return err
		}
		if depth >= i.node.MaxDepth {
			return fmt.Errorf("iterate: exceeded %d iterations (possible infinite loop)", i.node.MaxDepth)
		}
		roundStart := time.Now()
		ctx.BumpEpoch()
		ctx.Bindings["iterate"] = working
		stop, err := Run(i.node.Stop, ctx)
		if err != nil {
			return fmt.Errorf("iterate stop: %w", err)
		}
		if stop.NumRows > 0 {
			break
		}
		next, err := Run(i.node.Step, ctx)
		if err != nil {
			return fmt.Errorf("iterate step: %w", err)
		}
		if sc != nil {
			sc.AddIteration(i.node, IterationStat{
				Round: depth + 1,
				Rows:  int64(next.NumRows),
				Delta: float64(next.NumRows - working.NumRows),
				Nanos: time.Since(roundStart).Nanoseconds(),
			})
		}
		// Non-appending: the previous working table is dropped here; at
		// most two iterations' worth of tuples are alive at once. Return its
		// bytes to the memory budget so long loops with bounded working sets
		// never trip the limit.
		ctx.release(matBytes(working))
		working = next
	}
	i.it = matIterator{mat: working}
	return nil
}

func (i *iterateOp) Next() (*types.Batch, error) { return i.it.next(), nil }
func (i *iterateOp) Close() error                { return nil }

// recursiveOp implements SQL:1999 recursive CTEs with appending semantics:
// the result accumulates every iteration's tuples. UNION (without ALL)
// deduplicates globally and reaches a fixpoint; UNION ALL stops when the
// recursive term produces no rows.
type recursiveOp struct {
	node *plan.RecursiveCTE
	it   matIterator
}

func newRecursiveOp(n *plan.RecursiveCTE) *recursiveOp { return &recursiveOp{node: n} }

func (r *recursiveOp) Schema() types.Schema { return r.node.Schema() }

func (r *recursiveOp) Open(ctx *Context) error {
	init, err := Run(r.node.Init, ctx)
	if err != nil {
		return fmt.Errorf("recursive CTE %s init: %w", r.node.Name, err)
	}

	acc := &Materialized{Schema: init.Schema}
	var seen *rowSet
	if !r.node.All {
		seen = newRowSet(init.Schema)
	}

	working := &Materialized{Schema: init.Schema}
	appendDeduped := func(src *Materialized, dst ...*Materialized) {
		for _, b := range src.Batches {
			if seen == nil {
				for _, d := range dst {
					d.Append(b)
				}
				continue
			}
			if filtered := seen.filter(b); filtered != nil {
				for _, d := range dst {
					d.Append(filtered)
				}
			}
		}
	}
	appendDeduped(init, acc, working)

	saved, had := ctx.Bindings[r.node.Name]
	defer func() {
		if had {
			ctx.Bindings[r.node.Name] = saved
		} else {
			delete(ctx.Bindings, r.node.Name)
		}
	}()

	sc := ctx.statsCollector()
	for depth := 0; working.NumRows > 0; depth++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := faultinject.Fire("exec.iterate.round"); err != nil {
			return err
		}
		if depth >= r.node.MaxDepth {
			return fmt.Errorf("recursive CTE %s: exceeded %d iterations (possible infinite loop)",
				r.node.Name, r.node.MaxDepth)
		}
		roundStart := time.Now()
		ctx.BumpEpoch()
		ctx.Bindings[r.node.Name] = working
		delta, err := Run(r.node.Rec, ctx)
		if err != nil {
			return fmt.Errorf("recursive CTE %s: %w", r.node.Name, err)
		}
		next := &Materialized{Schema: acc.Schema}
		appendDeduped(delta, acc, next)
		working = next
		if sc != nil {
			sc.AddIteration(r.node, IterationStat{
				Round: depth + 1,
				Rows:  int64(next.NumRows),
				Delta: float64(next.NumRows),
				Nanos: time.Since(roundStart).Nanoseconds(),
			})
		}
	}
	r.it = matIterator{mat: acc}
	return nil
}

func (r *recursiveOp) Next() (*types.Batch, error) { return r.it.next(), nil }
func (r *recursiveOp) Close() error                { return nil }
