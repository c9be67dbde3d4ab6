package sqldb

// segment_failclosed_test.go checks the engine-level fault policy: a segment
// is its table's only copy, so a corrupt or truncated segment in the image
// fails Open with an error naming the table — or, when its header does not
// verify, the image and the page — and wrapping storage.ErrCorruptSegment,
// and a directory of an older layout fails it with an error naming a file of
// it and the remedy (rebuild).
// Nothing stays open behind the error, nothing is created by it, and a
// healthy sibling directory is unaffected.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io/fs"
	"math"
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
// dir and closes the database, leaving the segments of bad, good and names,
// in that order, in the image.
func buildFaultDB(t *testing.T, dir string) {
	t.Helper()
	db, err := Open(dir, Options{Device: storage.RAM, PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"good", "bad"} {
		rows := make([]sqltypes.Row, 0, 3000)
		for i := int64(0); i < 3000; i++ {
			rows = append(rows, sqltypes.Row{
				sqltypes.NewInt(i), sqltypes.NewInt(i * 3),
				sqltypes.NewIntArray([]int32{int32(i), int32(i) + 1, int32(i) + 2}),
			})
		}
		load(t, db, mkTable(name, []string{"k"}, "k", "v", "xs:arr"), rows...)
	}
	load(t, db, mkTable("names", []string{"k"}, "k", "s:text"),
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
// in turn — the image's first, so a cut inside it ends the image there. Open
// must return the sentinel with the region and the table named, or the image
// and page 0 when the header that names the table is what is damaged, leak no
// file handle, and keep failing on retry; the pristine copy of the same
// database in a sibling directory opens and reads fine throughout.
func TestOpenFailsClosedOnBadSegment(t *testing.T) {
	healthy := t.TempDir()
	buildFaultDB(t, healthy)
	bad := segmentOf(t, healthy, "bad")
	if bad.off != 0 {
		t.Fatalf("bad's segment starts at byte %d; want the image's first", bad.off)
	}
	pages := (bad.end - bad.off) / storage.PageSize
	if pages < 4 {
		t.Fatalf("segment has %d pages; the fault offsets need header + 2 data + directory", pages)
	}
	flip := func(off int) func([]byte) []byte {
		return func(b []byte) []byte { b[off] ^= 0x20; return b }
	}
	const table, header = `table "bad"`, ImageName + ": the segment at page 0"
	cases := []struct {
		name, region, names string
		damage              func([]byte) []byte
	}{
		{"header-flip", "header", header, flip(9)},
		{"data-flip", "data", table, flip(storage.PageSize + 17)},
		{"directory-flip", "directory", table, flip((pages-1)*storage.PageSize + 5)},
		{"truncated-to-header", "layout", table, func(b []byte) []byte { return b[:storage.PageSize] }},
		{"truncated-mid-data", "layout", table, func(b []byte) []byte { return b[:2*storage.PageSize] }},
		{"truncated-empty", "header", header, func(b []byte) []byte { return nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			buildFaultDB(t, dir)
			editImage(t, dir, tc.damage)
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
				for _, frag := range []string{tc.names, tc.region} {
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
// database that has loaded a table and puts a plain file in its place.
// Neither Flush nor Close writes, so neither fails: the tables still answer
// from the images the handle holds open, the next Load cannot make the
// directory, fails naming it and keeps no descriptor, and Close closes both
// images — the one Open opened and the one the first Load wrote.
func TestCloseReleasesFilesWhenFlushFails(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	buildFaultDB(t, dir)
	before := openFDs(t)
	db, err := Open(dir, Options{Device: storage.RAM, PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	load(t, db, mkTable("more", []string{"k"}, "k"), ints(1))
	if held := openFDs(t) - before; held != 2 {
		t.Fatalf("the open database holds %d descriptors, want the opened image and the written one", held)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	checkReads(t, db)
	if err := db.Flush(); err != nil {
		t.Errorf("Flush with the directory gone = %v, want nil", err)
	}
	fds := openFDs(t)
	if _, err := tryLoad(db, mkTable("late", []string{"k"}, "k"), ints(1)); err == nil || !strings.Contains(err.Error(), dir) {
		t.Errorf("Load with a file in place of the directory = %v, want an error naming it", err)
	}
	if now := openFDs(t); now != fds {
		t.Errorf("the Load that could not write its image left %d descriptors open", now-fds)
	}
	if _, ok := db.Table("late"); ok {
		t.Error("the failed Load entered its table")
	}
	if err := db.Close(); err != nil {
		t.Errorf("Close with the directory gone = %v, want nil", err)
	}
	if after := openFDs(t); after != before {
		t.Errorf("Close leaked file descriptors: %d before, %d after", before, after)
	}
}

// TestOpenFailsClosedOnMissingSegment takes the image away from a built
// directory. The form of a table is not guessed from the files that happen
// to exist: a directory without the image is an empty database only when it
// holds nothing else, so Open must fail with an error naming a file it holds
// and telling the operator to rebuild, create nothing in the directory, leak
// no file handle, and keep failing on retry. The case leaves the directory
// as a build from before every table was a segment left it — heap and index
// files, no image.
func TestOpenFailsClosedOnMissingSegment(t *testing.T) {
	healthy := t.TempDir()
	buildFaultDB(t, healthy)
	remove := func(t *testing.T, dir, name string) {
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name, file string
		damage     func(t *testing.T, dir string)
		is         error
	}{
		{"image-from-before-segments", "names.heap", func(t *testing.T, dir string) {
			remove(t, dir, ImageName)
			for _, name := range []string{"names.heap", "names.idx"} {
				if err := os.WriteFile(filepath.Join(dir, name), make([]byte, 2*storage.PageSize), 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}, fs.ErrNotExist},
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
				if !errors.Is(err, tc.is) {
					t.Errorf("error does not wrap %v: %v", tc.is, err)
				}
				for _, frag := range []string{tc.file, ImageName, "rebuild"} {
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
	f, err := os.OpenFile(filepath.Join(dir, ImageName), os.O_RDWR, 0) // bad is the image's first segment
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
		if err != nil || !ok || row[1].I != 3*k || len(row[2].A) != 3 || int64(row[2].A[2]) != k+2 {
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
// whose rows is malformed — an array element outside int32 among them, and
// in a table whose hubs are stored as runs, a run that is empty, overshoots
// its array, repeats the hub before it or leaves int32, and tds packed with a
// zero gap or past 32 bits wide — fails the open of a
// handle whose vector cache admits the table — open checks the regions, then
// decodes the rows with the row decoder the segment tier reads them with —
// with an error naming the table and wrapping storage.ErrCorruptSegment,
// every file closed and the directory as it was, on every retry. The checks
// are the decode's: a handle without a cache opens the same directory, its
// well-formed sibling serves, and a segment-tier lookup of the malformed row
// is the same refusal, never a value.
func TestMalformedRowFailsMaterialize(t *testing.T) {
	const rows = 3000
	encode := func(k int64) []byte { return badRow(t, k) }
	head := func(k int64) []byte { return binary.AppendVarint(binary.AppendVarint(nil, k), 3*k) }
	// The last delta, 1, is 0x02; with the continuation bit set the varint
	// runs on into the next row.
	midVarint := func(b []byte) []byte { b[len(b)-1] |= 0x80; return b }
	// In the runs form bad's rows are (k, 3k, hubs [k, k, k+1] as the runs
	// (k, 2) (1, 1), tds [1, 2, 1], tas [5, 6, 7], both packed per run);
	// runs(k, pairs) is row k with the hubs' runs given as (delta, count)
	// pairs.
	runsTypes := []sqltypes.Type{sqltypes.Int64, sqltypes.Int64, sqltypes.IntRuns, sqltypes.IntRunGaps, sqltypes.IntRunOffsets}
	hubs := func(k int64, pairs ...int64) []byte {
		b := binary.AppendUvarint(head(k), 3)
		for i, x := range pairs {
			if i%2 == 0 {
				b = binary.AppendVarint(b, x)
			} else {
				b = binary.AppendUvarint(b, uint64(x))
			}
		}
		return b
	}
	runs := func(k int64, pairs ...int64) []byte {
		full, err := sqltypes.EncodeSegRow(nil, runsTypes, sqltypes.Row{sqltypes.NewInt(k), sqltypes.NewInt(3 * k),
			sqltypes.NewIntArray([]int32{int32(k), int32(k), int32(k) + 1}),
			sqltypes.NewIntArray([]int32{1, 2, 1}), sqltypes.NewIntArray([]int32{5, 6, 7})})
		if err != nil {
			t.Fatal(err)
		}
		good := hubs(k, k, 2, 1, 1)
		if !bytes.HasPrefix(full, good) {
			t.Fatalf("row %d encodes to %x, whose hubs are not %x", k, full, good)
		}
		return append(hubs(k, pairs...), full[len(good):]...)
	}
	for _, c := range []struct {
		name string
		row  int64
		enc  []byte
		runs bool
	}{
		{"array length past the row's end", 1500, append(head(1500), 0x7f, 0x02), false},
		{"trailing byte", 1500, append(encode(1500), 0x00), false},
		{"row ends mid-varint", 1500, midVarint(encode(1500)), false},
		// Four elements claimed, three present: the header counts three for
		// the row, and it is the last, so the vector has no room for a fourth.
		{"one element more than counted", rows - 1, binary.AppendVarint(binary.AppendVarint(binary.AppendVarint(
			binary.AppendUvarint(head(rows-1), 4), rows-1), 1), 1), false},
		// Three elements whose running sum leaves int32 at the last: the
		// bytes are well-formed varints, so only the width check refuses them.
		{"an element outside int32", 1500, binary.AppendVarint(binary.AppendVarint(binary.AppendVarint(
			binary.AppendUvarint(head(1500), 3), 1500), 1), math.MaxInt32), false},
		{"runs: a zero count", 1500, runs(1500, 1500, 0, 1500, 2, 1, 1), true},
		{"runs: a count past the array", 1500, runs(1500, 1500, 4), true},
		{"runs: a repeated hub", 1500, runs(1500, 1500, 2, 0, 1), true},
		{"runs: a hub past MaxInt32", 1500, runs(1500, 1500, 2, math.MaxInt32, 1), true},
		{"runs: a hub below MinInt32", 1500, runs(1500, math.MinInt32-1, 3), true},
		// Sound hubs, then tds with a gap of 0 inside the first run, or packed
		// 33 bits wide; tas as the sound rows pack it.
		{"packed: a zero gap", 1500, append(hubs(1500, 1500, 2, 1, 1), 0x02, 1, 0x00, 0x00, 0, 3, 0x24, 3, 0x06), true},
		{"packed: a width past 32", 1500, append(hubs(1500, 1500, 2, 1, 1), 0x02, 33, 1, 0, 0, 0, 0, 0x00, 0, 3, 0x24, 3, 0x06), true},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			buildFaultDB(t, dir)
			var sd storage.SegmentData
			enc := encode
			if c.runs {
				sd, enc = runsSegment(t, runsTypes, rows), func(k int64) []byte { return runs(k, k, 2, 1, 1) }
			}
			writeMalformedBad(t, dir, sd, rows, func(k int64) []byte {
				if k == c.row {
					return c.enc
				}
				return enc(k)
			})
			requireVectorOpenFails(t, dir)
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
			bad, _ := db.Table("bad")
			if row, _, err := bad.LookupPKScratch([]int64{c.row}, &s); !errors.Is(err, storage.ErrCorruptSegment) ||
				!strings.Contains(err.Error(), "sqldb: bad: ") || row != nil {
				t.Errorf("segment-tier lookup of the malformed row = %v, %v; want ErrCorruptSegment naming the table", row, err)
			}
		})
	}
}

// TestMiscountedHeaderFailsMaterialize: a segment whose rows are sound but
// whose header counts one array element more than they hold, or one fewer —
// the count that sizes the vectors — fails the open of a handle whose vector
// cache admits the table with an error naming the table and wrapping
// storage.ErrCorruptSegment, every file closed and the directory as it was.
// The count is the vector tier's alone: a handle without a cache opens the
// same directory and serves the table's rows.
func TestMiscountedHeaderFailsMaterialize(t *testing.T) {
	const rows = 3000
	for _, c := range []struct {
		name  string
		delta int64
	}{{"one element more", 1}, {"one element fewer", -1}} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			buildFaultDB(t, dir)
			var meta segMeta
			if err := json.Unmarshal(segmentOf(t, dir, "bad").meta, &meta); err != nil {
				t.Fatal(err)
			}
			if meta.Elems != 3*rows {
				t.Fatalf("bad's header counts %d array elements, want %d", meta.Elems, 3*rows)
			}
			meta.Elems += c.delta
			forged, err := json.Marshal(meta)
			if err != nil {
				t.Fatal(err)
			}
			writeMalformedBad(t, dir, storage.SegmentData{Meta: forged}, rows, func(k int64) []byte { return badRow(t, k) })
			requireVectorOpenFails(t, dir)
			db, err := Open(dir, Options{Device: storage.RAM, PoolPages: 256})
			if err != nil {
				t.Fatalf("open without a cache: %v", err)
			}
			defer db.Close()
			checkReads(t, db)
		})
	}
}

// badRow is row k of bad as buildFaultDB writes it, (k, 3k, [k, k+1, k+2]),
// in the segment encoding.
func badRow(t *testing.T, k int64) []byte {
	t.Helper()
	b, err := sqltypes.EncodeSegRow(nil, []sqltypes.Type{sqltypes.Int64, sqltypes.Int64, sqltypes.IntArray}, sqltypes.Row{sqltypes.NewInt(k), sqltypes.NewInt(3 * k),
		sqltypes.NewIntArray([]int32{int32(k), int32(k) + 1, int32(k) + 2})})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// requireVectorOpenFails opens dir twice with a vector cache that admits bad
// and requires each open to fail with storage.ErrCorruptSegment naming the
// table, every file closed and the directory as it was.
func requireVectorOpenFails(t *testing.T, dir string) {
	t.Helper()
	listing, before := dirListing(t, dir), openFDs(t)
	for range 2 {
		db, err := Open(dir, Options{Device: storage.RAM, PoolPages: 256, VectorCacheBytes: 64 << 20})
		if err == nil {
			db.Close()
			t.Fatal("Open admitted a table that does not decode")
		}
		if !errors.Is(err, storage.ErrCorruptSegment) || !strings.Contains(err.Error(), `sqldb: table "bad": `) {
			t.Errorf("open of a table that does not decode = %v, want ErrCorruptSegment naming the table", err)
		}
	}
	if after := openFDs(t); after != before {
		t.Errorf("failed opens leaked file descriptors: %d before, %d after", before, after)
	}
	if got := dirListing(t, dir); got != listing {
		t.Errorf("the failed opens changed the directory:\n%s\nwas:\n%s", got, listing)
	}
}

// runsSegment is the segment data of bad as a run-ordered table of rows rows,
// (k, v, hubs, tds, tas) with three tuples a row, rows not yet added: its
// column tags and its meta.
func runsSegment(t *testing.T, types []sqltypes.Type, rows int64) storage.SegmentData {
	t.Helper()
	def := mkTable("bad", []string{"k"}, "k", "v", "hubs:arr", "tds:arr", "tas:arr")
	def.RunOrder = []string{"hubs", "tds", "tas"}
	meta, err := json.Marshal(segMeta{TableDef: def, Elems: 9 * rows})
	if err != nil {
		t.Fatal(err)
	}
	sd := storage.SegmentData{Meta: meta}
	for _, typ := range types {
		sd.Cols = append(sd.Cols, byte(typ))
	}
	return sd
}

// writeMalformedBad writes the segment of bad in dir's fault database anew
// with rows rows, row k encoded as enc(k), under sd's column tags and meta —
// bad's own when sd has none; the checksums hold whatever the bytes.
func writeMalformedBad(t *testing.T, dir string, sd storage.SegmentData, rows int64, enc func(k int64) []byte) {
	t.Helper()
	if sd.Cols == nil {
		sd.Cols = []byte{byte(sqltypes.Int64), byte(sqltypes.Int64), byte(sqltypes.IntArray)}
	}
	sd.PKLen = 1
	for k := int64(0); k < rows; k++ {
		b := enc(k)
		sd.Keys = append(sd.Keys, storage.Key{k})
		sd.Lens = append(sd.Lens, uint32(len(b)))
		sd.Data = append(sd.Data, b...)
	}
	writeSegmentInto(t, dir, "bad", sd)
}
