package plan

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"lambdadb/internal/catalog"
	"lambdadb/internal/expr"
	"lambdadb/internal/storage"
	"lambdadb/internal/types"
)

// allNodeTypes returns one instance of every plan node type. Inputs are
// distinct WorkingScans, so a swapped or dropped child shows in the
// comparison.
func allNodeTypes(t *testing.T) []Node {
	t.Helper()
	s := testStore(t)
	rel, err := s.Resolve("t")
	if err != nil {
		t.Fatal(err)
	}
	sch := types.Schema{{Name: "x", Type: types.Float64}}
	leaf := func(name string) Node { return &WorkingScan{Name: name, Sch: sch} }
	col := &expr.ColRef{Name: "x", Index: 0, Typ: types.Float64}
	truth := &expr.Const{Val: types.NewBool(true)}
	return []Node{
		NewScan(rel, "t", 1),
		&IndexScan{Rel: rel.(catalog.IndexedRelation), Alias: "t", Index: "t_a", Column: "a", EqParam: 1},
		leaf("w"),
		&Values{Sch: sch, Rows: [][]types.Value{{types.NewFloat(1)}}},
		&Filter{Child: leaf("c"), Pred: truth},
		&Project{Child: leaf("c"), Exprs: []expr.Expr{col}, Names: []string{"x"}},
		&Join{Type: InnerJoin, L: leaf("l"), R: leaf("r"), On: truth},
		&Aggregate{Child: leaf("c"), Keys: []expr.Expr{col}, KeyNames: []string{"x"}},
		&Sort{Child: leaf("c"), Keys: []SortKey{{Col: 0}}, TopK: -1},
		&Limit{Child: leaf("c"), N: 3},
		&Distinct{Child: leaf("c")},
		&Union{L: leaf("l"), R: leaf("r"), All: true},
		&RecursiveCTE{Name: "r", Init: leaf("init"), Rec: leaf("rec")},
		&Iterate{Init: leaf("init"), Step: leaf("step"), Stop: leaf("stop")},
		&KMeans{Data: leaf("data"), Centers: leaf("centers"), MaxIter: 5, OutNames: []string{"x"}},
		&KMeansAssign{Data: leaf("data"), Centers: leaf("centers")},
		&PageRank{Edges: leaf("edges"), Damping: 0.85},
		&NaiveBayesTrain{Data: leaf("data")},
		&NaiveBayesPredict{Model: leaf("model"), Data: leaf("data")},
		&Shared{Child: leaf("c"), Invariant: true},
		&Alias{Child: leaf("c"), Name: "a"},
	}
}

func TestWithChildrenCopiesEveryNodeType(t *testing.T) {
	for _, n := range allNodeTypes(t) {
		t.Run(fmt.Sprintf("%T", n), func(t *testing.T) {
			kids := n.Children()
			c := n.WithChildren(n.Children())
			if c == n {
				t.Fatal("WithChildren returned the receiver, want a copy")
			}
			if reflect.TypeOf(c) != reflect.TypeOf(n) {
				t.Fatalf("WithChildren returned %T", c)
			}
			if c.Explain() != n.Explain() {
				t.Errorf("Explain = %q, want %q", c.Explain(), n.Explain())
			}
			got := c.Children()
			if len(got) != len(kids) {
				t.Fatalf("copy has %d children, want %d", len(got), len(kids))
			}
			for i := range kids {
				if got[i] != kids[i] {
					t.Errorf("child %d = %s, want %s", i, got[i].Explain(), kids[i].Explain())
				}
			}

			// Replacement children land in Children order; the original
			// keeps its own.
			repl := make([]Node, len(kids))
			for i := range repl {
				repl[i] = &WorkingScan{Name: fmt.Sprintf("new%d", i)}
			}
			got = n.WithChildren(append([]Node(nil), repl...)).Children()
			for i := range repl {
				if got[i] != repl[i] {
					t.Errorf("replaced child %d = %s, want %s", i, got[i].Explain(), repl[i].Explain())
				}
				if n.Children()[i] != kids[i] {
					t.Errorf("WithChildren modified the original's child %d", i)
				}
			}
		})
	}
}

func TestRewriteTreeCopiesNothingWhenNothingChanges(t *testing.T) {
	s := testStore(t)
	n := buildPlan(t, s, "SELECT a, count(*) FROM t WHERE b > 1 GROUP BY a ORDER BY a LIMIT 3")
	before := ExplainTree(n)
	if got := rewriteTree(n, func(m Node) Node { return m }); got != n {
		t.Fatal("an identity rewrite copied the root")
	}
	if ExplainTree(n) != before {
		t.Fatal("an identity rewrite changed the plan")
	}
}

// sharedRefs counts the references to each *Shared in a plan.
func sharedRefs(n Node, refs map[*Shared]int) map[*Shared]int {
	if s, ok := n.(*Shared); ok {
		refs[s]++
	}
	for _, c := range n.Children() {
		sharedRefs(c, refs)
	}
	return refs
}

// oneShared asserts that the plan references exactly one *Shared, twice,
// and returns it.
func oneShared(t *testing.T, stage string, n Node) *Shared {
	t.Helper()
	refs := sharedRefs(n, map[*Shared]int{})
	if len(refs) != 1 {
		t.Fatalf("after %s: %d distinct Shared nodes, want 1:\n%s", stage, len(refs), ExplainTree(n))
	}
	for s, k := range refs {
		if k != 2 {
			t.Fatalf("after %s: Shared referenced %d times, want 2", stage, k)
		}
		return s
	}
	return nil
}

// TestSharedCTEStaysOneNode checks that a CTE referenced twice is still one
// *Shared after each walk, even when the walk rewrites inside it.
func TestSharedCTEStaysOneNode(t *testing.T) {
	s := testStore(t)
	if err := s.CreateIndex(storage.IndexDef{Name: "t_a", Table: "t", Column: "a", Kind: storage.HashIndex}); err != nil {
		t.Fatal(err)
	}
	sel, err := parseSelect(`WITH c AS (SELECT t.a, u.v FROM t JOIN u ON t.a = u.a WHERE t.a = 5 AND u.v > 1)
		SELECT * FROM c x JOIN c y ON x.a = y.a JOIN u ON u.a = x.a`)
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewBuilder(s, s.Snapshot()).buildSelect(sel)
	if err != nil {
		t.Fatal(err)
	}
	built := oneShared(t, "build", n)

	n = Optimize(n)
	opt := oneShared(t, "Optimize", n)
	if opt == built {
		t.Fatal("Optimize pushed a filter inside the CTE without copying its Shared node")
	}
	if strings.Contains(ExplainTree(opt), "Filter ((t.a = 5) AND") {
		t.Fatalf("Optimize left the CTE's filter above its join:\n%s", ExplainTree(opt))
	}

	n = OptimizeAccess(n, nil)
	acc := oneShared(t, "OptimizeAccess", n)
	if !strings.Contains(ExplainTree(acc), "IndexScan t using t_a (a = 5)") {
		t.Fatalf("OptimizeAccess did not reach the CTE:\n%s", ExplainTree(n))
	}

	bound, err := Rebind(n, s.Snapshot(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if oneShared(t, "Rebind", bound) == acc {
		t.Fatal("Rebind reused the template's Shared node")
	}
	if ExplainTree(bound) != ExplainTree(n) {
		t.Fatalf("Rebind changed the plan:\n%s\nwant:\n%s", ExplainTree(bound), ExplainTree(n))
	}
}

func TestRebindBindsParamsAndCopiesEveryNode(t *testing.T) {
	s := testStore(t)
	if err := s.CreateIndex(storage.IndexDef{Name: "t_a", Table: "t", Column: "a", Kind: storage.HashIndex}); err != nil {
		t.Fatal(err)
	}
	sel, err := parseSelect(`SELECT a, b + $2 FROM t WHERE a = $1`)
	if err != nil {
		t.Fatal(err)
	}
	tmpl, err := NewBuilder(s, s.Snapshot()).BuildSelect(sel)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ExplainTree(tmpl), "(a = $1)") {
		t.Fatalf("expected a parameterized index probe:\n%s", ExplainTree(tmpl))
	}
	bound, err := Rebind(tmpl, 42, []types.Value{types.NewInt(5), types.NewFloat(0.5)})
	if err != nil {
		t.Fatal(err)
	}
	tree := ExplainTree(bound)
	if !strings.Contains(tree, "IndexScan t using t_a (a = 5)") || !strings.Contains(tree, "0.5") {
		t.Fatalf("parameters not bound:\n%s", tree)
	}
	orig := map[Node]bool{}
	var mark func(Node)
	mark = func(n Node) {
		orig[n] = true
		for _, c := range n.Children() {
			mark(c)
		}
	}
	mark(tmpl)
	var check func(Node)
	check = func(n Node) {
		if orig[n] {
			t.Errorf("Rebind reused template node %s", n.Explain())
		}
		if is, ok := n.(*IndexScan); ok && is.Snapshot != 42 {
			t.Errorf("IndexScan snapshot = %d, want 42", is.Snapshot)
		}
		for _, c := range n.Children() {
			check(c)
		}
	}
	check(bound)
	if !strings.Contains(ExplainTree(tmpl), "(a = $1)") {
		t.Fatal("Rebind modified the template")
	}
}
