package persist

import (
	"bytes"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lambdadb/internal/storage"
	"lambdadb/internal/types"
)

// buildStore creates a store with two tables including NULLs and all types.
func buildStore(t *testing.T) *storage.Store {
	t.Helper()
	s := storage.NewStore()
	tbl, err := s.CreateTable("mixed", types.Schema{
		{Name: "i", Type: types.Int64},
		{Name: "f", Type: types.Float64},
		{Name: "s", Type: types.String},
		{Name: "b", Type: types.Bool},
	})
	if err != nil {
		t.Fatal(err)
	}
	tx := s.Begin()
	b := types.NewBatch(tbl.Schema())
	b.AppendRow([]types.Value{types.NewInt(-7), types.NewFloat(2.5), types.NewString("hello"), types.NewBool(true)})
	b.AppendRow([]types.Value{types.NewNull(types.Int64), types.NewFloat(-0.125), types.NewString(""), types.NewBool(false)})
	b.AppendRow([]types.Value{types.NewInt(42), types.NewNull(types.Float64), types.NewNull(types.String), types.NewNull(types.Bool)})
	if err := tx.Insert(tbl, b); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	big, err := s.CreateTable("big", types.Schema{{Name: "x", Type: types.Int64}})
	if err != nil {
		t.Fatal(err)
	}
	tx = s.Begin()
	bb := types.NewBatch(big.Schema())
	for i := int64(0); i < 5000; i++ {
		bb.AppendRow([]types.Value{types.NewInt(i)})
	}
	if err := tx.Insert(big, bb); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return s
}

func allRows(t *testing.T, s *storage.Store, table string) [][]types.Value {
	t.Helper()
	tbl, err := s.Table(table)
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]types.Value
	err = tbl.Scan(s.Snapshot(), func(b *types.Batch) error {
		for i := 0; i < b.Len(); i++ {
			rows = append(rows, b.Row(i))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestSaveLoadRoundTrip(t *testing.T) {
	src := buildStore(t)
	var buf bytes.Buffer
	if err := SavePhysical(src, &buf, src.Snapshot()); err != nil {
		t.Fatal(err)
	}
	dst, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, table := range []string{"mixed", "big"} {
		want := allRows(t, src, table)
		got := allRows(t, dst, table)
		if len(want) != len(got) {
			t.Fatalf("%s: %d rows, want %d", table, len(got), len(want))
		}
		for i := range want {
			for j := range want[i] {
				a, b := want[i][j], got[i][j]
				if a.Null != b.Null || (!a.Null && !a.Equal(b)) {
					t.Fatalf("%s row %d col %d: %v vs %v", table, i, j, a, b)
				}
			}
		}
	}
	// Schemas survive too.
	srcTbl, _ := src.Table("mixed")
	dstTbl, _ := dst.Table("mixed")
	if !srcTbl.Schema().Equal(dstTbl.Schema()) {
		t.Errorf("schema mismatch: %v vs %v", srcTbl.Schema(), dstTbl.Schema())
	}
}

func TestSaveLoadFile(t *testing.T) {
	s := buildStore(t)
	path := filepath.Join(t.TempDir(), "db.img")
	if err := SavePhysicalFile(s, path, s.Snapshot()); err != nil {
		t.Fatal(err)
	}
	dst, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(allRows(t, dst, "mixed")) != 3 {
		t.Error("file round trip lost rows")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not a database image at all")); err == nil {
		t.Error("garbage input should fail")
	}
	if _, err := Load(strings.NewReader("LMDB3\n")); err == nil {
		t.Error("truncated input should fail")
	}
}

// TestLoadRefusesRetiredFormats: the v1 and v2 containers and the logical
// (kind 1) image are no longer read. Each is refused as a
// *CorruptImageError — never misread as a physical image.
func TestLoadRefusesRetiredFormats(t *testing.T) {
	logical, err := os.ReadFile(filepath.Join("testdata", "logical_v3.img"))
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"v1":             retiredImage(t, "LMDB1\n", false),
		"v2":             retiredImage(t, "LMDB2\n", true),
		"v3 kind 1":      logical,
		"v3 kind 1 (re)": withKind(t, goldenImage(t), 1),
	} {
		_, err := Load(bytes.NewReader(data))
		var ce *CorruptImageError
		if !errors.As(err, &ce) {
			t.Errorf("%s: error %v, want *CorruptImageError", name, err)
			continue
		}
		if !strings.Contains(ce.Reason, "unsupported") {
			t.Errorf("%s: reason %q does not name the unsupported format", name, ce.Reason)
		}
	}
}

// retiredImage builds a well-formed one-table image in a retired container:
// v1 ("LMDB1\n": no kind, clock, incarnation ID or CRC) or v2 ("LMDB2\n":
// a physical image without the index-definition block).
func retiredImage(t *testing.T, magic string, v2 bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString(magic)
	if v2 {
		buf.WriteByte(kindPhysical)
		must(t, WriteU64(&buf, 1))
	}
	must(t, WriteU32(&buf, 1))
	must(t, WriteString(&buf, "t"))
	if v2 {
		must(t, WriteU64(&buf, 1))
	}
	schema := types.Schema{{Name: "x", Type: types.Int64}}
	must(t, WriteSchema(&buf, schema))
	b := types.NewBatch(schema)
	b.AppendRow([]types.Value{types.NewInt(7)})
	must(t, WriteBatch(&buf, b))
	if v2 {
		must(t, WriteU64(&buf, 1)) // createdAt
		must(t, WriteU64(&buf, 0)) // deletedAt
	}
	must(t, WriteU32(&buf, 0))
	if v2 {
		must(t, WriteU32(&buf, crc32.ChecksumIEEE(buf.Bytes())))
	}
	return buf.Bytes()
}

// withKind rewrites an image's kind byte and recomputes its CRC, so the
// kind is the only thing wrong with it.
func withKind(t *testing.T, data []byte, kind byte) []byte {
	t.Helper()
	out := append([]byte(nil), data[:len(data)-4]...)
	out[len(magic)] = kind
	var buf bytes.Buffer
	buf.Write(out)
	must(t, WriteU32(&buf, crc32.ChecksumIEEE(out)))
	return buf.Bytes()
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func TestEmptyStoreRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := SavePhysical(storage.NewStore(), &buf, 0); err != nil {
		t.Fatal(err)
	}
	dst, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(dst.TableNames()) != 0 {
		t.Errorf("tables = %v", dst.TableNames())
	}
}

func TestEmptyTableRoundTrip(t *testing.T) {
	s := storage.NewStore()
	if _, err := s.CreateTable("empty", types.Schema{{Name: "x", Type: types.Float64}}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SavePhysical(s, &buf, s.Snapshot()); err != nil {
		t.Fatal(err)
	}
	dst, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := dst.Table("empty")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows(dst.Snapshot()) != 0 {
		t.Error("empty table gained rows")
	}
}
