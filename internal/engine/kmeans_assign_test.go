package engine

import (
	"strings"
	"testing"
)

func TestKMeansAssignBasic(t *testing.T) {
	db := clusterTestDB(t)
	r, err := db.Query(`SELECT x, y, cluster FROM KMEANS_ASSIGN (
		(SELECT x, y FROM data),
		(SELECT x, y FROM center)) ORDER BY x`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 8 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Initial centers are (1,1) and (9,9): the four near-origin points go
	// to cluster 0, the four near (10,10) to cluster 1.
	for _, row := range r.Rows {
		want := int64(0)
		if row[0].F > 5 {
			want = 1
		}
		if row[2].I != want {
			t.Errorf("point (%v,%v) assigned to %d, want %d", row[0].F, row[1].F, row[2].I, want)
		}
	}
}

func TestKMeansAssignModelApplication(t *testing.T) {
	// The full model-application pattern: KMEANS learns centers, the
	// centers relation feeds KMEANS_ASSIGN — one query, no copies.
	db := clusterTestDB(t)
	r, err := db.Query(`SELECT cluster, count(*) AS members FROM KMEANS_ASSIGN (
		(SELECT x, y FROM data),
		(SELECT x, y FROM KMEANS ((SELECT x, y FROM data), (SELECT x, y FROM center), 10)))
		GROUP BY cluster ORDER BY cluster`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("clusters = %v", r.Rows)
	}
	if r.Rows[0][1].I != 4 || r.Rows[1][1].I != 4 {
		t.Errorf("cluster sizes = %v", r.Rows)
	}
}

func TestKMeansAssignWithLambda(t *testing.T) {
	db := clusterTestDB(t)
	r, err := db.Query(`SELECT count(*) FROM KMEANS_ASSIGN (
		(SELECT x, y FROM data),
		(SELECT x, y FROM center),
		λ(a, b) abs(a.x - b.x) + abs(a.y - b.y))`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0][0].I != 8 {
		t.Errorf("count = %v", r.Rows[0][0])
	}
}

func TestKMeansAssignErrors(t *testing.T) {
	db := clusterTestDB(t)
	for _, q := range []string{
		`SELECT * FROM KMEANS_ASSIGN ((SELECT x, y FROM data))`,
		`SELECT * FROM KMEANS_ASSIGN ((SELECT x FROM data), (SELECT x, y FROM center))`,
		`SELECT * FROM KMEANS_ASSIGN ((SELECT x, y FROM data), (SELECT x, y FROM center), 5)`,
	} {
		if _, err := db.Query(q); err == nil {
			t.Errorf("Query(%q) should fail", q)
		}
	}
}

// TestKMeansAssignInputsAreOptimized checks that the optimizer reaches
// kmeans_assign's input subqueries as it does kmeans's: a selective
// predicate on an indexed, analyzed table becomes an index probe.
func TestKMeansAssignInputsAreOptimized(t *testing.T) {
	db := Open()
	db.MustExec(`CREATE TABLE p (id BIGINT, x DOUBLE, y DOUBLE)`)
	db.MustExec(`INSERT INTO p VALUES (1, 1, 1), (2, 2, 2), (3, 3, 3), (4, 4, 4), (5, 5, 5),
		(6, 6, 6), (7, 7, 7), (8, 8, 8), (9, 9, 9), (10, 10, 10)`)
	db.MustExec(`CREATE TABLE c (x DOUBLE, y DOUBLE)`)
	db.MustExec(`INSERT INTO c VALUES (0, 0), (9, 9)`)
	db.MustExec(`CREATE INDEX p_id ON p (id)`)
	db.MustExec(`ANALYZE`)
	for _, q := range []string{
		`EXPLAIN SELECT * FROM kmeans((SELECT x, y FROM p WHERE id = 5), (SELECT x, y FROM c), 3)`,
		`EXPLAIN SELECT * FROM kmeans_assign((SELECT x, y FROM p WHERE id = 5), (SELECT x, y FROM c))`,
	} {
		if out := explainText(t, db, q); !strings.Contains(out, "IndexScan p using p_id (id = 5)") {
			t.Errorf("%s: input not optimized:\n%s", q, out)
		}
	}
	r, err := db.Query(`SELECT id, cluster FROM kmeans_assign((SELECT id, x, y FROM p WHERE id = 5),
		(SELECT 0.0 AS id, x, y FROM c))`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 1 || r.Rows[0][0].I != 5 || r.Rows[0][1].I != 1 {
		t.Errorf("rows = %v, want [[5 1]]", r.Rows)
	}
}
