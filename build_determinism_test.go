package ptldb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"testing"

	"ptldb/internal/sqldb"
	"ptldb/internal/sqldb/storage"
	"ptldb/internal/timetable"
)

// dirImage reads every file under dir into a name -> content map.
func dirImage(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		out[rel] = data
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestBuildWorkersDiskImageIdentical builds the same database twice serially
// and at several BuildWorkers values — exercising every parallel
// preprocessing path: the wave-parallel label construction, the pooled
// label/stops loads of Create, the six-table loads of AddTargetSet and the
// versioned loads of AddVersion — plus BuildPathTables, whose rows are
// produced in map iteration order and sorted before they are loaded. The
// resulting directories — the image, nothing else — must be
// byte-identical, every table's segment in the image included: paths_* and
// the thrice-rewritten ptldb_meta too.
func TestBuildWorkersDiskImageIdentical(t *testing.T) {
	tt, err := GenerateCity("Salt Lake City", 0.02, 42)
	if err != nil {
		t.Fatal(err)
	}
	tt2, err := GenerateCity("Salt Lake City", 0.02, 43)
	if err != nil {
		t.Fatal(err)
	}
	targets := []StopID{1, 3, 5, 7, 11, 13}

	build := func(workers int) map[string][]byte {
		dir := t.TempDir()
		cfg := Config{Device: "ram", BuildWorkers: workers}
		db, err := Create(dir, tt, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if err := db.Close(); err != nil {
			t.Fatalf("workers=%d: Close: %v", workers, err)
		}
		if err := AddTargetSet(dir, "base", "poi", targets, 4, cfg); err != nil {
			t.Fatalf("workers=%d: AddTargetSet: %v", workers, err)
		}
		if err := AddVersion(dir, "weekend", tt2, cfg); err != nil {
			t.Fatalf("workers=%d: AddVersion: %v", workers, err)
		}
		if err := BuildPathTables(dir, "base", tt, cfg); err != nil {
			t.Fatalf("workers=%d: BuildPathTables: %v", workers, err)
		}
		requireOnlyImage(t, dir)
		img := dirImage(t, dir)
		for _, seg := range imageSegments(t, dir) {
			img[seg.name] = img[sqldb.ImageName][seg.off:seg.end]
		}
		return img
	}

	want := build(1)
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, table := range []string{"lout", "stops", "ptldb_meta", "knn_ea_poi", "lin__weekend", "paths_out", "paths_in"} {
		if len(want[table]) == 0 {
			t.Errorf("the image holds no segment of %s; the byte-compare is not covering it", table)
		}
	}
	for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0), 7} {
		got := build(workers)
		if len(got) != len(want) {
			t.Errorf("workers=%d: %d files and segments, serial build has %d", workers, len(got), len(want))
		}
		for _, name := range names {
			g, ok := got[name]
			if !ok {
				t.Errorf("workers=%d: %s missing", workers, name)
				continue
			}
			if !bytes.Equal(g, want[name]) {
				t.Errorf("workers=%d: %s differs from serial build (%d vs %d bytes)",
					workers, name, len(g), len(want[name]))
			}
		}
	}
}

// pinnedImage writes the image TestImagePinned pins — the paper's example
// network, a target set and the path tables — into a new directory, and
// returns the directory and the network.
func pinnedImage(t *testing.T) (string, *Network) {
	t.Helper()
	tt := timetable.PaperExample()
	dir := t.TempDir()
	db := createAndWrite(t, dir, tt, Config{Device: "ram"}, addPOI([]StopID{4, 6}, 2), addPaths(tt))
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, tt
}

// TestImagePinned pins the image of the paper's example network — Create,
// a target set and the path tables, so every builder of an array column
// (labels, the five target-set tables, paths) — by its length and an FNV-1a
// digest of its bytes. The segment codec writes an array element as a
// varint, which carries no width, so the in-memory type of an element does
// not reach the file: a change that moves a byte here changed the format,
// and one that does so on purpose updates both numbers and says why (segment
// version 4 moved the digest: the label hubs stored as runs, and each
// header's meta counting its table's array elements; version 5 moved it
// again: that count is of the int32s the resident vectors hold, two per hub
// run).
func TestImagePinned(t *testing.T) {
	const (
		wantBytes  = 270336
		wantDigest = 0xfed214091f46a587
	)
	dir, _ := pinnedImage(t)
	img, err := os.ReadFile(filepath.Join(dir, sqldb.ImageName))
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(img)
	if len(img) != wantBytes || h.Sum64() != wantDigest {
		t.Errorf("image of the paper's example: %d bytes, digest %#x; want %d, %#x", len(img), h.Sum64(), wantBytes, uint64(wantDigest))
	}
}

// segmentHeaderFields are the fixed fields of a segment's header page, by
// offset and width, as internal/sqldb/storage/segment.go lays them out; the
// column tags and then the definition follow them, and zeroes fill the rest
// of the page.
var segmentHeaderFields = []struct {
	name      string
	at, width int
}{
	{"magic", 0, 4}, {"version", 4, 4}, {"rows", 8, 8}, {"columns", 16, 4},
	{"key width", 20, 4}, {"directory page", 24, 4}, {"directory bytes", 28, 8},
	{"data bytes", 36, 8}, {"data checksum", 44, 4}, {"directory checksum", 48, 4},
	{"meta bytes", 52, 4}, {"header checksum", 56, 4},
}

// segmentHeaderBytes is where the fixed fields end and the column tags begin.
const segmentHeaderBytes = 60

// figure1Answers is every query of the pinned image on every stop of the
// paper's network, at its first and last second and halfway: EA, LD, SD and
// the journey between every two stops, and the kNN (k up to the set's kmax,
// both kernels) and one-to-many queries from every stop.
func figure1Answers(t *testing.T, db *DB, tt *Network) []string {
	t.Helper()
	var out []string
	// add records one query's results, the last of which is its error.
	add := func(query string) func(...any) {
		return func(res ...any) {
			if err, _ := res[len(res)-1].(error); err != nil {
				t.Fatalf("%s: %v", query, err)
			}
			out = append(out, query+" -> "+fmt.Sprint(res[:len(res)-1]...))
		}
	}
	n := StopID(tt.NumStops())
	for _, at := range []Time{tt.MinTime(), (tt.MinTime() + tt.MaxTime()) / 2, tt.MaxTime()} {
		for s := StopID(0); s < n; s++ {
			for g := StopID(0); g < n; g++ {
				q := fmt.Sprint(s, " ", g, " ", at)
				add("EA " + q)(db.EarliestArrival(s, g, at))
				add("LD " + q)(db.LatestDeparture(s, g, at))
				add("SD " + q)(db.ShortestDuration(s, g, at, tt.MaxTime()))
				add("journey " + q)(db.JourneyFromDB(s, g, at))
			}
			q := fmt.Sprint(s, " ", at)
			for k := 1; k <= 2; k++ {
				qk := fmt.Sprint(q, " ", k)
				add("EA kNN " + qk)(db.EAKNN("poi", s, at, k))
				add("LD kNN " + qk)(db.LDKNN("poi", s, at, k))
				add("EA naive kNN " + qk)(db.EAKNNNaive("poi", s, at, k))
				add("LD naive kNN " + qk)(db.LDKNNNaive("poi", s, at, k))
			}
			add("EA one-to-many " + q)(db.EAOTM("poi", s, at))
			add("LD one-to-many " + q)(db.LDOTM("poi", s, at))
		}
	}
	return out
}

// TestImageByteFlips inverts one byte of the pinned image at a time: the
// first, a middle and the last byte of every page, and the first and last
// byte of every header field, of the column tags, of the definition and of
// the zeroes after it, in every segment's header. A byte in a region's zero
// padding — after the data or the directory, up to the region's last page
// end — is outside every checksum and read by no decode: the image still
// opens and answers what the intact one answers on the paper's network. Any
// other byte makes Open fail with storage.ErrCorruptSegment.
func TestImageByteFlips(t *testing.T) {
	dir, tt := pinnedImage(t)
	path := filepath.Join(dir, sqldb.ImageName)
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(dir, Config{Device: "ram"})
	if err != nil {
		t.Fatal(err)
	}
	want := figure1Answers(t, db, tt)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	at := map[int]string{} // offset flipped -> what it is
	padding := map[int]bool{}
	le := binary.LittleEndian
	for base := 0; base < len(img); {
		h := img[base : base+storage.PageSize]
		field := func(name string, from, to int) { // [from, to) of the header page
			if to > from {
				at[base+from] = name + " (first byte)"
				at[base+to-1] = name + " (last byte)"
			}
		}
		for _, f := range segmentHeaderFields {
			field(f.name, f.at, f.at+f.width)
		}
		tags := segmentHeaderBytes + int(le.Uint32(h[16:]))
		meta := tags + int(le.Uint32(h[52:]))
		field("column tags", segmentHeaderBytes, tags)
		field("definition", tags, meta)
		field("header zeroes", meta, storage.PageSize)
		dirPage, dirBytes, dataBytes := int(le.Uint32(h[24:])), int(le.Uint64(h[28:])), int(le.Uint64(h[36:]))
		dirStart := base + dirPage*storage.PageSize
		end := dirStart + (dirBytes+storage.PageSize-1)/storage.PageSize*storage.PageSize
		for off := base + storage.PageSize + dataBytes; off < dirStart; off++ {
			padding[off] = true
		}
		for off := dirStart + dirBytes; off < end; off++ {
			padding[off] = true
		}
		base = end
	}
	for p := 0; p < len(img); p += storage.PageSize {
		for _, off := range []int{p, p + storage.PageSize/2, p + storage.PageSize - 1} {
			if _, ok := at[off]; !ok {
				at[off] = fmt.Sprintf("page %d", p/storage.PageSize)
			}
		}
	}
	offs := make([]int, 0, len(at))
	for off := range at {
		offs = append(offs, off)
	}
	sort.Ints(offs)
	var opened int
	for _, off := range offs {
		img[off] ^= 0xff
		err := os.WriteFile(path, img, 0o644)
		img[off] ^= 0xff
		if err != nil {
			t.Fatal(err)
		}
		db, err := Open(dir, Config{Device: "ram"})
		if !padding[off] {
			if err == nil {
				db.Close()
				t.Errorf("byte %d (%s) inverted: the image opened", off, at[off])
			} else if !errors.Is(err, storage.ErrCorruptSegment) {
				t.Errorf("byte %d (%s) inverted: %v; want %v", off, at[off], err, storage.ErrCorruptSegment)
			}
			continue
		}
		if err != nil {
			t.Errorf("byte %d (%s, padding) inverted: %v", off, at[off], err)
			continue
		}
		opened++
		if got := figure1Answers(t, db, tt); !slices.Equal(got, want) {
			t.Errorf("byte %d (%s, padding) inverted: the answers changed", off, at[off])
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if opened == 0 || opened == len(offs) {
		t.Errorf("%d of %d inverted bytes opened; the sweep must reach padding and checked bytes both", opened, len(offs))
	}
}
