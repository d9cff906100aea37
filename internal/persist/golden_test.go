package persist

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"lambdadb/internal/storage"
	"lambdadb/internal/types"
)

// testdata/physical_v3.img is a checkpoint image written by an earlier
// release of the engine, from this SQL on a fresh data directory:
//
//	CREATE TABLE gone (x BIGINT); DROP TABLE gone;
//	CREATE TABLE mixed (i BIGINT, f DOUBLE, s VARCHAR, b BOOLEAN);
//	INSERT INTO mixed VALUES (-7, 2.5, 'hello', true), (NULL, -0.125, '', false), (42, NULL, NULL, NULL);
//	INSERT INTO mixed VALUES (9, 1e300, 'dead', true);
//	DELETE FROM mixed WHERE i = 9;
//	UPDATE mixed SET s = 'world' WHERE i = -7;
//	CREATE INDEX mixed_i ON mixed(i);
//	CREATE INDEX mixed_s ON mixed(s) USING HASH;
//	CREATE TABLE empty (x DOUBLE);
//	CREATE TABLE seq (k BIGINT);
//	INSERT INTO seq VALUES (1), (2), (3);
//	CHECKPOINT;
//
// testdata/logical_v3.img is the same data saved by that release as a
// logical (kind 1) image, which no longer loads.

func goldenImage(t *testing.T) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "physical_v3.img"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// physicalRow is one physical row with its version stamps, rendered for
// comparison.
type physicalRow struct {
	vals                 string
	createdAt, deletedAt uint64
}

func physicalRows(t *testing.T, tbl *storage.Table, clock uint64) []physicalRow {
	t.Helper()
	var rows []physicalRow
	err := tbl.ScanPhysical(clock, func(b *types.Batch, createdAt, deletedAt []uint64) error {
		for i := 0; i < b.Len(); i++ {
			rows = append(rows, physicalRow{fmt.Sprint(b.Row(i)), createdAt[i], deletedAt[i]})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestLoadGoldenPhysicalImage: a checkpoint image written by an earlier
// release loads to the same rows, version stamps, clock, incarnation IDs
// and index definitions, and saving it again at its clock reproduces the
// image byte for byte.
func TestLoadGoldenPhysicalImage(t *testing.T) {
	data := goldenImage(t)
	s, err := Load(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Snapshot(); got != 5 {
		t.Errorf("clock = %d, want 5", got)
	}
	names := s.TableNames()
	sort.Strings(names)
	if want := []string{"empty", "mixed", "seq"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("tables = %v, want %v", names, want)
	}

	want := map[string]struct {
		id     uint64
		schema string
		defs   []storage.IndexDef
		rows   []physicalRow
	}{
		"empty": {id: 3, schema: "(x DOUBLE)"},
		"mixed": {
			id:     2,
			schema: "(i BIGINT, f DOUBLE, s VARCHAR, b BOOLEAN)",
			defs: []storage.IndexDef{
				{Name: "mixed_i", Table: "mixed", Column: "i", Kind: storage.OrderedIndex},
				{Name: "mixed_s", Table: "mixed", Column: "s", Kind: storage.HashIndex},
			},
			rows: []physicalRow{
				{"[-7 2.5 hello true]", 1, 4},
				{"[NULL -0.125  false]", 1, 0},
				{"[42 NULL NULL NULL]", 1, 0},
				{"[9 1e+300 dead true]", 2, 3},
				{"[-7 2.5 world true]", 4, 0},
			},
		},
		"seq": {
			id:     4,
			schema: "(k BIGINT)",
			rows:   []physicalRow{{"[1]", 5, 0}, {"[2]", 5, 0}, {"[3]", 5, 0}},
		},
	}
	for name, w := range want {
		tbl, err := s.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		if tbl.ID() != w.id {
			t.Errorf("%s: incarnation ID %d, want %d", name, tbl.ID(), w.id)
		}
		if got := fmt.Sprint(tbl.Schema()); got != w.schema {
			t.Errorf("%s: schema %s, want %s", name, got, w.schema)
		}
		if got := tbl.IndexDefs(); fmt.Sprint(got) != fmt.Sprint(w.defs) {
			t.Errorf("%s: index defs %v, want %v", name, got, w.defs)
		}
		if got := physicalRows(t, tbl, s.Snapshot()); !reflect.DeepEqual(got, w.rows) {
			t.Errorf("%s: physical rows\n got %v\nwant %v", name, got, w.rows)
		}
	}

	// The rebuilt indexes answer probes over the visible rows only.
	mixed, _ := s.Table("mixed")
	var hits int
	err = mixed.IndexLookupEq("mixed_s", types.NewString("world"), s.Snapshot(), func(b *types.Batch) error {
		hits += b.Len()
		return nil
	})
	if err != nil || hits != 1 {
		t.Errorf("mixed_s = 'world': %d hits, err %v; want 1", hits, err)
	}

	var buf bytes.Buffer
	if err := SavePhysical(s, &buf, s.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), data) {
		t.Errorf("re-saved image differs from the golden image (%d vs %d bytes)", buf.Len(), len(data))
	}
}
