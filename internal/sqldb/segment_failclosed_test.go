package sqldb

// segment_failclosed_test.go checks the engine-level fault policy: a segment
// is its table's only copy, so a corrupt or truncated .seg fails Open with an
// error naming the table and wrapping storage.ErrCorruptSegment, and a missing
// one fails it with an error naming the table and the remedy (rebuild).
// Nothing stays open behind the error, nothing is created by it, and a
// healthy sibling directory is unaffected. Close releases every file even
// when its flush fails.

import (
	"encoding/binary"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"ptldb/internal/sqldb/exec"
	"ptldb/internal/sqldb/sqltypes"
	"ptldb/internal/sqldb/storage"
)

// buildFaultDB bulk-loads two integer tables and one with a text column into
// dir and closes the database, leaving good.seg, bad.seg and names.seg on
// disk.
func buildFaultDB(t *testing.T, dir string) {
	t.Helper()
	db, err := Open(dir, Options{Device: storage.RAM, PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"good", "bad"} {
		tbl := mkTable(t, db, name, []string{"k"}, "k", "v", "xs:arr")
		rows := make([]sqltypes.Row, 0, 3000)
		for i := int64(0); i < 3000; i++ {
			rows = append(rows, sqltypes.Row{
				sqltypes.NewInt(i), sqltypes.NewInt(i * 3),
				sqltypes.NewIntArray([]int64{i, i + 1, i + 2}),
			})
		}
		if err := tbl.BulkLoad(rows); err != nil {
			t.Fatal(err)
		}
	}
	load(t, mkTable(t, db, "names", []string{"k"}, "k", "s:text"),
		sqltypes.Row{sqltypes.NewInt(1), sqltypes.NewText("one")})
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// checkReads verifies the segment tables answer correctly through the
// scratch read paths.
func checkReads(t *testing.T, db *DB) {
	t.Helper()
	var s exec.RowScratch
	for _, name := range []string{"good", "bad"} {
		tbl, ok := db.Table(name)
		if !ok {
			t.Fatalf("table %q missing", name)
		}
		if got := tbl.RowCount(); got != 3000 {
			t.Fatalf("%s: RowCount = %d, want 3000", name, got)
		}
		row, ok, err := tbl.LookupPKScratch([]int64{123}, &s)
		if err != nil || !ok {
			t.Fatalf("%s: LookupPKScratch(123) = %v, %v", name, ok, err)
		}
		if row[1].I != 369 || len(row[2].A) != 3 || row[2].A[2] != 125 {
			t.Fatalf("%s: LookupPKScratch(123) returned %v", name, row)
		}
	}
}

// openFDs counts this process's open file descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	entries, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd to count descriptors: %v", err)
	}
	return len(entries)
}

// TestOpenFailsClosedOnBadSegment damages each region of one table's segment
// in turn. Open must return the sentinel with the table and region named,
// leak no file handle, and keep failing on retry; the pristine copy of the
// same database in a sibling directory opens and reads fine throughout.
func TestOpenFailsClosedOnBadSegment(t *testing.T) {
	healthy := t.TempDir()
	buildFaultDB(t, healthy)
	pristine, err := os.ReadFile(filepath.Join(healthy, "bad.seg"))
	if err != nil {
		t.Fatal(err)
	}
	pages := len(pristine) / storage.PageSize
	if pages < 4 {
		t.Fatalf("segment has %d pages; the fault offsets need header + 2 data + directory", pages)
	}
	flip := func(off int) func([]byte) []byte {
		return func(b []byte) []byte { b[off] ^= 0x20; return b }
	}
	cases := []struct {
		name, region string
		damage       func([]byte) []byte
	}{
		{"header-flip", "header", flip(9)},
		{"data-flip", "data", flip(storage.PageSize + 17)},
		{"directory-flip", "directory", flip((pages-1)*storage.PageSize + 5)},
		{"truncated-to-header", "layout", func(b []byte) []byte { return b[:storage.PageSize] }},
		{"truncated-mid-data", "layout", func(b []byte) []byte { return b[:2*storage.PageSize] }},
		{"truncated-empty", "header", func(b []byte) []byte { return nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			buildFaultDB(t, dir)
			image := tc.damage(append([]byte(nil), pristine...))
			if err := os.WriteFile(filepath.Join(dir, "bad.seg"), image, 0o644); err != nil {
				t.Fatal(err)
			}
			before := openFDs(t)
			for attempt := 0; attempt < 2; attempt++ {
				db, err := Open(dir, Options{Device: storage.RAM, PoolPages: 256, VectorCacheBytes: 1 << 20})
				if err == nil {
					db.Close()
					t.Fatal("Open accepted a damaged segment")
				}
				if !errors.Is(err, storage.ErrCorruptSegment) {
					t.Errorf("error does not wrap ErrCorruptSegment: %v", err)
				}
				for _, frag := range []string{`table "bad"`, tc.region} {
					if !strings.Contains(err.Error(), frag) {
						t.Errorf("error lacks %q: %v", frag, err)
					}
				}
			}
			if after := openFDs(t); after != before {
				t.Errorf("failed opens leaked file descriptors: %d before, %d after", before, after)
			}

			db, err := Open(healthy, Options{Device: storage.RAM, PoolPages: 256})
			if err != nil {
				t.Fatalf("healthy sibling: %v", err)
			}
			checkReads(t, db)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// dirListing renders a directory as "name:size" lines, to show an operation
// created, removed and resized nothing.
func dirListing(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(e.Name() + ":" + strconv.FormatInt(info.Size(), 10) + "\n")
	}
	return b.String()
}

// TestCloseReleasesFilesWhenFlushFails removes the directory under an open
// database: the flush cannot sync it and Close must say so — after closing
// every table's file, not instead.
func TestCloseReleasesFilesWhenFlushFails(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	buildFaultDB(t, dir)
	before := openFDs(t)
	db, err := Open(dir, Options{Device: storage.RAM, PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	if held := openFDs(t) - before; held < 3 {
		t.Fatalf("the open database holds %d descriptors, want one per table", held)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("Close with the directory gone = %v, want the flush's not-exist error", err)
	}
	if after := openFDs(t); after != before {
		t.Errorf("Close leaked file descriptors: %d before, %d after", before, after)
	}
}

// TestOpenFailsClosedOnMissingSegment removes one table's segment from a
// built directory. The form of a table is not guessed from the files that
// happen to exist: Open must fail with an error naming the table and telling
// the operator to rebuild, create nothing in the directory, leak no file
// handle, and keep failing on retry. The second case is a directory as a
// build from before every table was a segment left it — a catalogued table
// with only a heap and an index file — and the third a build that declared a
// table and never loaded it; both get the same answer.
func TestOpenFailsClosedOnMissingSegment(t *testing.T) {
	healthy := t.TempDir()
	buildFaultDB(t, healthy)
	remove := func(t *testing.T, dir, name string) {
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name, table string
		damage      func(t *testing.T, dir string)
	}{
		{"deleted", "bad", func(t *testing.T, dir string) { remove(t, dir, "bad.seg") }},
		{"image-from-before-segments", "names", func(t *testing.T, dir string) {
			remove(t, dir, "names.seg")
			for _, name := range []string{"names.heap", "names.idx"} {
				if err := os.WriteFile(filepath.Join(dir, name), make([]byte, 2*storage.PageSize), 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"declared-never-loaded", "pending", func(t *testing.T, dir string) {
			db, err := Open(dir, Options{Device: storage.RAM, PoolPages: 256})
			if err != nil {
				t.Fatal(err)
			}
			// Until it is loaded the table reads as empty and has no file.
			tbl := mkTable(t, db, "pending", []string{"k"}, "k", "v")
			rows := 0
			if err := tbl.Scan(func(sqltypes.Row) error { rows++; return nil }); err != nil || rows != 0 || tbl.RowCount() != 0 {
				t.Fatalf("scan of a never-loaded table: %d rows (RowCount %d), %v", rows, tbl.RowCount(), err)
			}
			if _, ok, err := tbl.LookupPK([]int64{1}); err != nil || ok {
				t.Fatalf("LookupPK on a never-loaded table = %v, %v", ok, err)
			}
			if err := db.DropCaches(); err != nil {
				t.Fatal(err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			buildFaultDB(t, dir)
			tc.damage(t, dir)
			listing := dirListing(t, dir)
			before := openFDs(t)
			for attempt := 0; attempt < 2; attempt++ {
				db, err := Open(dir, Options{Device: storage.RAM, PoolPages: 256, VectorCacheBytes: 1 << 20})
				if err == nil {
					db.Close()
					t.Fatal("Open accepted a directory with a table's segment missing")
				}
				if !errors.Is(err, fs.ErrNotExist) {
					t.Errorf("error does not wrap fs.ErrNotExist: %v", err)
				}
				for _, frag := range []string{`table "` + tc.table + `"`, tc.table + ".seg", "rebuild"} {
					if !strings.Contains(err.Error(), frag) {
						t.Errorf("error lacks %q: %v", frag, err)
					}
				}
				if got := dirListing(t, dir); got != listing {
					t.Fatalf("the failed open changed the directory:\n%s\nwas:\n%s", got, listing)
				}
			}
			if after := openFDs(t); after != before {
				t.Errorf("failed opens leaked file descriptors: %d before, %d after", before, after)
			}

			db, err := Open(healthy, Options{Device: storage.RAM, PoolPages: 256})
			if err != nil {
				t.Fatalf("healthy sibling: %v", err)
			}
			checkReads(t, db)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDamageAfterOpenNeverReachesVectors: damage that lands after Open (the
// file is rewritten under a live handle) never reaches an admitted table's
// answers. Open decoded the table from the bytes it verified, and no second
// read of the file exists: the lookups keep answering the rows that were
// loaded and read nothing from the device. The next open of the directory
// sees the damage and fails closed.
func TestDamageAfterOpenNeverReachesVectors(t *testing.T) {
	dir := t.TempDir()
	buildFaultDB(t, dir)
	db, err := Open(dir, Options{Device: storage.RAM, PoolPages: 256, VectorCacheBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	f, err := os.OpenFile(filepath.Join(dir, "bad.seg"), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xff, 0xff, 0xff, 0xff}, storage.PageSize+64); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	bad, _ := db.Table("bad")
	reads := bad.file.Reads()
	var s exec.RowScratch
	for k := int64(0); k < 3000; k += 7 {
		row, ok, err := bad.LookupPKScratch([]int64{k}, &s)
		if err != nil || !ok || row[1].I != 3*k || len(row[2].A) != 3 || row[2].A[2] != k+2 {
			t.Fatalf("lookup(%d) over a segment damaged after open = %v, %v, %v; want the row loaded", k, row, ok, err)
		}
	}
	if got := bad.file.Reads() - reads; got != 0 {
		t.Errorf("lookups of an admitted table made %d device reads; want none", got)
	}
	if db2, err := Open(dir, Options{Device: storage.RAM, PoolPages: 256}); err == nil {
		db2.Close()
		t.Error("the next Open accepted the damaged segment")
	} else if !errors.Is(err, storage.ErrCorruptSegment) || !strings.Contains(err.Error(), `table "bad"`) {
		t.Errorf("the next Open = %v, want ErrCorruptSegment naming the table", err)
	}
}

// TestMalformedRowFailsMaterialize: a segment whose checksums hold but one of
// whose rows is malformed fails the open of a handle whose vector cache
// admits the table — open checks the regions, then decodes the rows, and the
// one-pass decode keeps every check on a row — with an error naming the
// table, every file closed and the directory as it was, on every retry. The
// checks are the decode's: a handle without a cache opens the same directory
// and its well-formed sibling serves.
func TestMalformedRowFailsMaterialize(t *testing.T) {
	const rows = 3000
	// bad.seg's rows are (k, 3k, [k, k+1, k+2]), as buildFaultDB writes them.
	encode := func(k int64) []byte {
		b, err := sqltypes.EncodeSegRow(nil, sqltypes.Row{sqltypes.NewInt(k), sqltypes.NewInt(3 * k),
			sqltypes.NewIntArray([]int64{k, k + 1, k + 2})})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	head := func(k int64) []byte { return binary.AppendVarint(binary.AppendVarint(nil, k), 3*k) }
	// The last delta, 1, is 0x02; with the continuation bit set the varint
	// runs on into the next row.
	midVarint := func(b []byte) []byte { b[len(b)-1] |= 0x80; return b }
	for _, c := range []struct {
		name string
		row  int64
		enc  []byte
	}{
		{"array length past the row's end", 1500, append(head(1500), 0x7f, 0x02)},
		{"trailing byte", 1500, append(encode(1500), 0x00)},
		{"row ends mid-varint", 1500, midVarint(encode(1500))},
		// Four elements claimed, three present: open counts three for the
		// row, and it is the last, so the vector has no room for a fourth.
		{"one element more than counted", rows - 1, binary.AppendVarint(binary.AppendVarint(binary.AppendVarint(
			binary.AppendUvarint(head(rows-1), 4), rows-1), 1), 1)},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			writeMalformedBad(t, dir, rows, func(k int64) []byte {
				if k == c.row {
					return c.enc
				}
				return encode(k)
			})
			listing, before := dirListing(t, dir), openFDs(t)
			for range 2 {
				db, err := Open(dir, Options{Device: storage.RAM, PoolPages: 256, VectorCacheBytes: 64 << 20})
				if err == nil {
					db.Close()
					t.Fatal("Open admitted a table with a malformed row")
				}
				if !strings.Contains(err.Error(), `sqldb: table "bad": `) {
					t.Errorf("open of a table with a malformed row = %v, want an error naming the table", err)
				}
			}
			if after := openFDs(t); after != before {
				t.Errorf("failed opens leaked file descriptors: %d before, %d after", before, after)
			}
			if got := dirListing(t, dir); got != listing {
				t.Errorf("the failed opens changed the directory:\n%s\nwas:\n%s", got, listing)
			}
			db, err := Open(dir, Options{Device: storage.RAM, PoolPages: 256})
			if err != nil {
				t.Fatalf("open without a cache of a checksum-valid segment: %v", err)
			}
			defer db.Close()
			good, _ := db.Table("good")
			var s exec.RowScratch
			if row, ok, err := good.LookupPKScratch([]int64{123}, &s); err != nil || !ok || row[1].I != 369 {
				t.Errorf("well-formed sibling: LookupPKScratch(123) = %v, %v, %v", row, ok, err)
			}
		})
	}
}

// writeMalformedBad builds the fault database in dir and writes bad.seg anew
// with rows rows, row k encoded as enc(k); the checksums hold whatever the
// bytes.
func writeMalformedBad(t *testing.T, dir string, rows int64, enc func(k int64) []byte) {
	t.Helper()
	buildFaultDB(t, dir)
	sd := storage.SegmentData{
		Cols:  []byte{byte(sqltypes.Int64), byte(sqltypes.Int64), byte(sqltypes.IntArray)},
		PKLen: 1,
	}
	for k := int64(0); k < rows; k++ {
		b := enc(k)
		sd.Keys = append(sd.Keys, storage.Key{k})
		sd.Lens = append(sd.Lens, uint32(len(b)))
		sd.Data = append(sd.Data, b...)
	}
	if err := storage.WriteSegmentFile(filepath.Join(dir, "bad.seg"), storage.RAM, new(storage.Clock), sd); err != nil {
		t.Fatal(err)
	}
}
