package plan

import (
	"strings"
	"testing"

	"lambdadb/internal/sql"
)

// TestNoPushdownThroughAnalyticalOperators verifies the paper's Section 5.2
// observation: selections cannot be pushed through analytical operators
// because their result depends on the whole input. A filter above KMEANS
// must stay above it, and so must one above KMEANS_ASSIGN, whose inputs the
// optimizer does visit.
func TestNoPushdownThroughAnalyticalOperators(t *testing.T) {
	s := testStore(t)
	for _, q := range []string{
		`SELECT * FROM KMEANS ((SELECT a, b FROM t), (SELECT a, v FROM u), 3) WHERE cluster = 0`,
		`SELECT * FROM KMEANS_ASSIGN ((SELECT a, b FROM t), (SELECT a, v FROM u)) WHERE cluster = 0 AND a > 5`,
	} {
		st, err := sql.ParseOne(q)
		if err != nil {
			t.Fatal(err)
		}
		b := NewBuilder(s, s.Snapshot())
		n, err := b.BuildSelect(st.(*sql.Select))
		if err != nil {
			t.Fatal(err)
		}
		tree := ExplainTree(n)
		filterAt := strings.Index(tree, "Filter")
		kmeansAt := strings.Index(tree, "KMeans")
		if filterAt < 0 || kmeansAt < 0 {
			t.Fatalf("plan missing nodes:\n%s", tree)
		}
		if filterAt > kmeansAt || strings.Count(tree, "Filter") != 1 {
			t.Errorf("filter pushed through the analytical operator:\n%s", tree)
		}
	}
}

// TestNoPushdownThroughIterate: same boundary for the iterate operator.
func TestNoPushdownThroughIterate(t *testing.T) {
	s := testStore(t)
	st, err := sql.ParseOne(`SELECT * FROM ITERATE (
		(SELECT 1 "x"), (SELECT x + 1 FROM iterate), (SELECT x FROM iterate WHERE x > 3)
	) WHERE x > 1`)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(s, s.Snapshot())
	n, err := b.BuildSelect(st.(*sql.Select))
	if err != nil {
		t.Fatal(err)
	}
	tree := ExplainTree(n)
	filterAt := strings.Index(tree, "Filter (x > 1)")
	iterateAt := strings.Index(tree, "Iterate")
	if filterAt < 0 || iterateAt < 0 {
		t.Fatalf("plan missing nodes:\n%s", tree)
	}
	if filterAt > iterateAt {
		t.Errorf("filter pushed into the iterate operator:\n%s", tree)
	}
}

// TestPushdownBelowAnalyticalInputStillWorks: a filter written inside the
// data subquery is optimized normally within that subquery (the paper:
// relational optimization proceeds independently below and above the
// analytical operator).
func TestPushdownBelowAnalyticalInputStillWorks(t *testing.T) {
	s := testStore(t)
	st, err := sql.ParseOne(`SELECT * FROM KMEANS (
		(SELECT q.a, q.b FROM (SELECT a, b FROM t) q WHERE q.a > 1),
		(SELECT a, v FROM u), 3)`)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(s, s.Snapshot())
	n, err := b.BuildSelect(st.(*sql.Select))
	if err != nil {
		t.Fatal(err)
	}
	tree := ExplainTree(n)
	// The filter must have been pushed below the inner projection, next to
	// the scan.
	scanAt := strings.Index(tree, "Scan t")
	filterAt := strings.Index(tree, "Filter")
	if filterAt < 0 || scanAt < 0 {
		t.Fatalf("plan missing nodes:\n%s", tree)
	}
	if filterAt > scanAt {
		t.Errorf("filter not pushed toward the scan inside the subquery:\n%s", tree)
	}
}
