package sqldb

// image_test.go checks the directory's one file, the image: Open walks it by
// the segments' own headers, each of which defines its table, and refuses
// every way it can be damaged or old — cut inside a segment, pages after the
// last table that are no segment, a header edited without its checksum, a
// definition whose columns are not its segment's, intact segments out of
// name order (one repeated, two swapped, the image twice over), and the
// directories of the older layouts — naming the table or the image and the
// rebuild remedy, with no descriptor left open.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ptldb/internal/sqldb/sqltypes"
	"ptldb/internal/sqldb/storage"
)

// imageSegment is one table's segment in an image: its definition, the meta
// that holds it and its byte range.
type imageSegment struct {
	name     string
	def      TableDef
	meta     []byte
	off, end int
}

// imageSegments walks the image of dir front to back, as Open does, and
// returns each table's segment.
func imageSegments(t *testing.T, dir string) []imageSegment {
	t.Helper()
	f, err := storage.OpenPagedFile(filepath.Join(dir, ImageName), storage.RAM, new(storage.Clock))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pool := storage.NewPool(8)
	pool.Register(f)
	var segs []imageSegment
	for base := storage.PageID(0); base < f.NumPages(); {
		seg, _, err := storage.OpenSegment(f, base, pool, nil)
		if err != nil {
			t.Fatalf("segment at page %d: %v", base, err)
		}
		var def TableDef
		if err := json.Unmarshal(seg.Meta(), &def); err != nil {
			t.Fatalf("segment at page %d: %v", base, err)
		}
		segs = append(segs, imageSegment{def.Name, def, seg.Meta(), int(base) * storage.PageSize, int(base+seg.Pages()) * storage.PageSize})
		base += seg.Pages()
	}
	return segs
}

// segmentOf returns the segment of table name in dir's image.
func segmentOf(t *testing.T, dir, name string) imageSegment {
	t.Helper()
	for _, s := range imageSegments(t, dir) {
		if s.name == name {
			return s
		}
	}
	t.Fatalf("no table %q in the image", name)
	return imageSegment{}
}

// editImage rewrites dir's image as edit returns it.
func editImage(t *testing.T, dir string, edit func([]byte) []byte) {
	t.Helper()
	path := filepath.Join(dir, ImageName)
	image, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, edit(image), 0o644); err != nil {
		t.Fatal(err)
	}
}

// writeSegmentInto writes sd as the segment of table name inside dir's
// image, in place of the one there, with that one's meta — its definition
// and element count — when sd has no meta of its own.
func writeSegmentInto(t *testing.T, dir, name string, sd storage.SegmentData) {
	t.Helper()
	at := segmentOf(t, dir, name)
	if sd.Meta == nil {
		sd.Meta = at.meta
	}
	path := filepath.Join(t.TempDir(), name+".seg")
	f, err := storage.CreatePagedFile(path, storage.RAM, new(storage.Clock))
	if err != nil {
		t.Fatal(err)
	}
	if err := firstError(storage.AppendSegment(f, sd), f.Close()); err != nil {
		t.Fatal(err)
	}
	seg, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	editImage(t, dir, func(b []byte) []byte {
		return slices.Concat(b[:at.off], seg, b[at.end:])
	})
}

// editDef rewrites the definition in the header of table name's segment in
// dir's image as edit leaves it, and seals the header with its new checksum
// (by writing the segment anew, rows unchanged): the way to give Open a
// definition Load refuses to write.
func editDef(t *testing.T, dir, name string, edit func(*TableDef)) {
	t.Helper()
	f, err := storage.OpenPagedFile(filepath.Join(dir, ImageName), storage.RAM, new(storage.Clock))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pool := storage.NewPool(8)
	pool.Register(f)
	at := segmentOf(t, dir, name)
	var sd storage.SegmentData
	keepAll := func(_ int, cols, _ []byte) (bool, error) {
		sd.Cols = append([]byte(nil), cols...)
		return true, nil
	}
	seg, data, err := storage.OpenSegment(f, storage.PageID(at.off/storage.PageSize), pool, keepAll)
	if err != nil {
		t.Fatal(err)
	}
	sd.PKLen, sd.Keys, sd.Data = seg.PKLen(), seg.Keys(), data
	for i := range seg.NumRows() {
		sd.Lens = append(sd.Lens, seg.RowLen(i))
	}
	var meta segMeta
	if err := json.Unmarshal(at.meta, &meta); err != nil {
		t.Fatal(err)
	}
	edit(&meta.TableDef)
	if sd.Meta, err = json.Marshal(meta); err != nil {
		t.Fatal(err)
	}
	writeSegmentInto(t, dir, name, sd)
}

// splitImage turns dir into the layout of an older version: catalog.json and
// one <table>.seg file per table, no image.
func splitImage(t *testing.T, dir string) {
	t.Helper()
	image, err := os.ReadFile(filepath.Join(dir, ImageName))
	if err != nil {
		t.Fatal(err)
	}
	var defs []TableDef
	for _, s := range imageSegments(t, dir) {
		defs = append(defs, s.def)
		if err := os.WriteFile(filepath.Join(dir, s.name+".seg"), image[s.off:s.end], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeCatalog(t, dir, defs)
	if err := os.Remove(filepath.Join(dir, ImageName)); err != nil {
		t.Fatal(err)
	}
}

// writeCatalog writes defs as the catalog.json of the layouts before the
// image described itself.
func writeCatalog(t *testing.T, dir string, defs []TableDef) {
	t.Helper()
	data, err := json.MarshalIndent(defs, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "catalog.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// requireOnlyImage fails unless dir holds exactly the image.
func requireOnlyImage(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if strings.Join(names, " ") != ImageName {
		t.Errorf("the database directory holds %v; want %s only", names, ImageName)
	}
}

// TestImageFailsClosed: every way the image can be damaged or old is refused
// at Open, twice, with an error naming the table or the image and the
// remedy, the directory unchanged and no descriptor left open; the healthy
// sibling opens throughout.
func TestImageFailsClosed(t *testing.T) {
	healthy := t.TempDir()
	buildFaultDB(t, healthy)
	segs := imageSegments(t, healthy)
	if len(segs) != 3 || segs[0].name != "bad" || segs[1].name != "good" || segs[2].name != "names" {
		t.Fatalf("image segments %v; want bad, good and names in order", segs)
	}
	bad, good, names := segs[0], segs[1], segs[2]
	page := func(off int) string { return fmt.Sprintf("page %d", off/storage.PageSize) }
	cases := []struct {
		name   string
		damage func(t *testing.T, dir string)
		is     error
		want   []string
	}{
		{"truncated-inside-a-segment", func(t *testing.T, dir string) {
			editImage(t, dir, func(b []byte) []byte { return b[:good.off+2*storage.PageSize] })
		}, storage.ErrCorruptSegment, []string{`table "good"`, "layout"}},
		{"pages-after-the-last-table", func(t *testing.T, dir string) {
			editImage(t, dir, func(b []byte) []byte { return append(b, make([]byte, storage.PageSize)...) })
		}, storage.ErrCorruptSegment, []string{ImageName, "bad magic", "rebuild"}},
		{"header-edited-not-resealed", func(t *testing.T, dir string) {
			editImage(t, dir, func(b []byte) []byte {
				header := b[good.off : good.off+storage.PageSize]
				if !bytes.Contains(header, []byte(`"name":"good"`)) {
					t.Fatalf("good's header does not hold its definition")
				}
				copy(header, bytes.Replace(header, []byte(`"name":"good"`), []byte(`"name":"gold"`), 1))
				return b
			})
		}, storage.ErrCorruptSegment, []string{ImageName, fmt.Sprintf("page %d", good.off/storage.PageSize), "header", "checksum", "rebuild"}},
		{"column-tags-differ", func(t *testing.T, dir string) {
			editDef(t, dir, "good", func(def *TableDef) { def.Columns[1].Type = sqltypes.Float64 })
		}, storage.ErrCorruptSegment, []string{`table "good"`, "do not match the schema"}},
		{"two-file-layout", func(t *testing.T, dir string) {
			// The layout before the image described itself: segments of
			// version 2 and catalog.json beside them.
			writeCatalog(t, dir, []TableDef{segs[0].def, segs[1].def, segs[2].def})
			editImage(t, dir, func(b []byte) []byte { binary.LittleEndian.PutUint32(b[4:], 2); return b })
		}, storage.ErrCorruptSegment, []string{ImageName, "version 2", "rebuild"}},
		{"segment-version-3", func(t *testing.T, dir string) {
			// The image before hubs were stored as runs and the meta counted
			// the elements: the header's version is the first field read.
			editImage(t, dir, func(b []byte) []byte { binary.LittleEndian.PutUint32(b[4:], 3); return b })
		}, storage.ErrCorruptSegment, []string{ImageName, "page 0", "version 3 not supported", "rebuild"}},
		{"segment-version-4", func(t *testing.T, dir string) {
			// The image whose meta counted the label hubs expanded, one
			// element per tuple, where the resident vectors keep two int32s
			// per run: its element counts would size no vector right.
			editImage(t, dir, func(b []byte) []byte { binary.LittleEndian.PutUint32(b[4:], 4); return b })
		}, storage.ErrCorruptSegment, []string{ImageName, "page 0", "version 4 not supported", "rebuild"}},
		{"file-per-table-layout", splitImage, os.ErrNotExist, []string{"bad.seg", ImageName, "rebuild"}},
		// Every segment intact, but in an order no Load writes.
		{"a-segment-repeated", func(t *testing.T, dir string) {
			editImage(t, dir, func(b []byte) []byte { return slices.Concat(b[:good.end], b[good.off:]) })
		}, storage.ErrCorruptSegment, []string{ImageName, page(good.end), `table "good" follows table "good"`, "name order", "rebuild"}},
		{"two-segments-swapped", func(t *testing.T, dir string) {
			editImage(t, dir, func(b []byte) []byte {
				return slices.Concat(b[:good.off], b[names.off:names.end], b[good.off:good.end])
			})
		}, storage.ErrCorruptSegment, []string{ImageName, page(good.off + names.end - names.off), `table "good" follows table "names"`, "rebuild"}},
		{"image-doubled", func(t *testing.T, dir string) {
			editImage(t, dir, func(b []byte) []byte { return slices.Concat(b, b) })
		}, storage.ErrCorruptSegment, []string{ImageName, page(names.end + bad.off), `table "bad" follows table "names"`, "rebuild"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			buildFaultDB(t, dir)
			tc.damage(t, dir)
			listing, before := dirListing(t, dir), openFDs(t)
			for attempt := 0; attempt < 2; attempt++ {
				db, err := Open(dir, Options{Device: storage.RAM, PoolPages: 256, VectorCacheBytes: 1 << 20})
				if err == nil {
					db.Close()
					t.Fatal("Open accepted the image")
				}
				if !errors.Is(err, tc.is) {
					t.Errorf("error does not wrap %v: %v", tc.is, err)
				}
				for _, frag := range tc.want {
					if !strings.Contains(err.Error(), frag) {
						t.Errorf("error lacks %q: %v", frag, err)
					}
				}
			}
			if after := openFDs(t); after != before {
				t.Errorf("failed opens leaked file descriptors: %d before, %d after", before, after)
			}
			if got := dirListing(t, dir); got != listing {
				t.Errorf("the failed opens changed the directory:\n%s\nwas:\n%s", got, listing)
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

// TestFlushRemovesStrayFiles: what a crashed writer leaves — its temporary
// image, here longer than the image the directory holds — changes nothing
// Open reads: the directory opens as before, and a handle that writes
// nothing, Flush included, leaves it as it was. The next Load writes its
// image over the stray file, truncating it, and renames it into place,
// leaving the image alone and nothing of the stray bytes in it; a directory
// holding nothing but the stray file is an empty database.
func TestFlushRemovesStrayFiles(t *testing.T) {
	dir := t.TempDir()
	buildFaultDB(t, dir)
	info, err := os.Stat(filepath.Join(dir, ImageName))
	if err != nil {
		t.Fatal(err)
	}
	strayLen := 2*info.Size() + storage.PageSize
	stray := func(dir string) {
		junk := bytes.Repeat([]byte{0xa5}, int(strayLen))
		if err := os.WriteFile(filepath.Join(dir, tmpName), junk, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	stray(dir)
	listing := dirListing(t, dir)
	db, err := Open(dir, Options{Device: storage.RAM, PoolPages: 256, VectorCacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	checkReads(t, db)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if got := dirListing(t, dir); got != listing {
		t.Errorf("a handle that wrote nothing changed the directory:\n%s\nwas:\n%s", got, listing)
	}
	db, err = Open(dir, Options{Device: storage.RAM, PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	load(t, db, mkTable("more", []string{"k"}, "k"), ints(1))
	requireOnlyImage(t, dir)
	checkReads(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if info, err := os.Stat(filepath.Join(dir, ImageName)); err != nil {
		t.Fatal(err)
	} else if info.Size() >= strayLen {
		t.Fatalf("the image after the Load is %d bytes; want it shorter than the %d stray bytes", info.Size(), strayLen)
	}
	db, err = Open(dir, Options{Device: storage.RAM, PoolPages: 256})
	if err != nil {
		t.Fatalf("reopening the image the Load wrote over the stray file: %v", err)
	}
	checkReads(t, db)
	names := db.Tables()
	slices.Sort(names)
	if !slices.Equal(names, []string{"bad", "good", "more", "names"}) {
		t.Errorf("the reopened image holds %v; want bad, good, more and names", names)
	}
	more, _ := db.Table("more")
	if more == nil {
		t.Fatal("the reopened image lacks more")
	}
	if _, ok, err := more.LookupPK([]int64{1}); err != nil || !ok {
		t.Errorf("more after reopening: %v, %v; want its row", ok, err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	empty := t.TempDir()
	stray(empty)
	db, err = Open(empty, Options{Device: storage.RAM, PoolPages: 256})
	if err != nil {
		t.Fatalf("a directory holding only a crashed writer's temporary image: %v", err)
	}
	defer db.Close()
	if names := db.Tables(); len(names) != 0 {
		t.Errorf("a directory without an image holds the tables %v", names)
	}
}
