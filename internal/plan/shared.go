package plan

import "lambdadb/internal/types"

// Shared marks a subplan referenced from several places (a non-recursive
// CTE). The executor materializes it once per execution epoch and serves
// every reference from the cache, instead of re-evaluating the subtree at
// each reference site.
//
// Invariant marks subplans that read no working table: those are constant
// for the whole query — including across ITERATE / recursive-CTE
// iterations — and are cached once (loop-invariant hoisting). Subplans that
// do read a working table are cached only within one iteration epoch.
type Shared struct {
	Child Node
	// Invariant reports that the subtree reads no working table.
	Invariant bool
}

func (s *Shared) Schema() types.Schema       { return s.Child.Schema() }
func (s *Shared) Quals() []string            { return s.Child.Quals() }
func (s *Shared) Card() float64              { return s.Child.Card() }
func (s *Shared) Children() []Node           { return []Node{s.Child} }
func (s *Shared) WithChildren(k []Node) Node { c := *s; c.Child = k[0]; return &c }
func (s *Shared) Explain() string {
	if s.Invariant {
		return "Shared (invariant)"
	}
	return "Shared"
}

// ContainsWorkingScan reports whether the subtree reads any working table.
func ContainsWorkingScan(n Node) bool {
	if _, ok := n.(*WorkingScan); ok {
		return true
	}
	for _, c := range n.Children() {
		if ContainsWorkingScan(c) {
			return true
		}
	}
	return false
}
