package persist

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"lambdadb/internal/faultinject"
	"lambdadb/internal/storage"
	"lambdadb/internal/types"
)

// saveSnapshot writes the store to path and fails the test on error.
func saveSnapshot(t *testing.T, s *storage.Store, path string) {
	t.Helper()
	if err := SavePhysicalFile(s, path, s.Snapshot()); err != nil {
		t.Fatalf("SavePhysicalFile: %v", err)
	}
}

// countRows loads the image at path and returns the row count of table.
func countRows(t *testing.T, path, table string) int {
	t.Helper()
	s, err := LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile(%q): %v", path, err)
	}
	tbl, err := s.Table(table)
	if err != nil {
		t.Fatal(err)
	}
	return tbl.NumRows(s.Snapshot())
}

// singleTableStore builds a store with one table of n rows.
func singleTableStore(t *testing.T, n int64) *storage.Store {
	t.Helper()
	s := storage.NewStore()
	tbl, err := s.CreateTable("t", types.Schema{{Name: "x", Type: types.Int64}})
	if err != nil {
		t.Fatal(err)
	}
	tx := s.Begin()
	b := types.NewBatch(tbl.Schema())
	for i := int64(0); i < n; i++ {
		b.AppendRow([]types.Value{types.NewInt(i)})
	}
	if err := tx.Insert(tbl, b); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestFailedSavePreservesPreviousSnapshot injects failures at both
// crash-relevant points of SavePhysicalFile — after the image bytes are written
// (before fsync) and after the temp file is durable (before the rename) —
// and verifies the previous snapshot at the destination stays intact and
// loadable, with no temp file left behind.
func TestFailedSavePreservesPreviousSnapshot(t *testing.T) {
	for _, point := range []string{"persist.save.write", "persist.save.rename"} {
		t.Run(point, func(t *testing.T) {
			defer faultinject.Reset()
			dir := t.TempDir()
			path := filepath.Join(dir, "db.img")

			saveSnapshot(t, singleTableStore(t, 100), path)

			boom := errors.New("injected I/O failure")
			faultinject.FailOnce(point, boom)
			s := singleTableStore(t, 999)
			err := SavePhysicalFile(s, path, s.Snapshot())
			if !errors.Is(err, boom) {
				t.Fatalf("SavePhysicalFile = %v, want injected failure", err)
			}
			if _, serr := os.Stat(path + ".tmp"); !os.IsNotExist(serr) {
				t.Fatalf("temp file left behind after failed save: %v", serr)
			}
			if got := countRows(t, path, "t"); got != 100 {
				t.Fatalf("previous snapshot corrupted: %d rows, want 100", got)
			}

			// The hook fired once; the retry goes through and replaces the
			// image atomically.
			saveSnapshot(t, singleTableStore(t, 999), path)
			if got := countRows(t, path, "t"); got != 999 {
				t.Fatalf("retried save: %d rows, want 999", got)
			}
		})
	}
}

// TestFailedFirstSaveLeavesNothing: when there is no previous snapshot, a
// failed save must not leave a partial image at the destination.
func TestFailedFirstSaveLeavesNothing(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	path := filepath.Join(dir, "db.img")
	faultinject.FailOnce("persist.save.write", errors.New("disk full"))
	s := singleTableStore(t, 10)
	if err := SavePhysicalFile(s, path, s.Snapshot()); err == nil {
		t.Fatal("SavePhysicalFile succeeded despite injected failure")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("failed first save left files: %v", entries)
	}
}
