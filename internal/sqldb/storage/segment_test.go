package storage

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// buildSegmentData fabricates n rows with deterministic payloads, sized so
// several rows spill across page boundaries.
func buildSegmentData(rng *rand.Rand, n int) SegmentData {
	sd := SegmentData{Cols: []byte{1, 4, 4, 4}, PKLen: 1, Meta: []byte(`{"name":"t"}`)}
	for i := 0; i < n; i++ {
		ln := rng.Intn(3 * PageSize / 2)
		if i%7 == 0 {
			ln = 0 // empty payloads must round-trip too
		}
		payload := make([]byte, ln)
		for j := range payload {
			payload[j] = byte(i + j)
		}
		sd.Keys = append(sd.Keys, Key{int64(i * 3), 0})
		sd.Lens = append(sd.Lens, uint32(ln))
		sd.Data = append(sd.Data, payload...)
	}
	return sd
}

// createSegmentFile writes sd as a new file of one segment at path.
func createSegmentFile(path string, dev DeviceModel, clock *Clock, sd SegmentData) error {
	f, err := CreatePagedFile(path, dev, clock)
	if err != nil {
		return err
	}
	err = AppendSegment(f, sd)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// openSegmentAt opens the segment of the file at path and returns it with
// the column tags its header holds.
func openSegmentAt(t *testing.T, path string, pool *Pool) (*Segment, *PagedFile, []byte) {
	t.Helper()
	var clock Clock
	f, err := OpenPagedFile(path, RAM, &clock)
	if err != nil {
		t.Fatal(err)
	}
	pool.Register(f)
	var tags []byte
	seg, _, err := OpenSegment(f, 0, pool, func(_ int, cols, _ []byte) (bool, error) {
		tags = append([]byte(nil), cols...)
		return false, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return seg, f, tags
}

func TestSegmentRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.seg")
	rng := rand.New(rand.NewSource(11))
	sd := buildSegmentData(rng, 40)
	var clock Clock
	if err := createSegmentFile(path, RAM, &clock, sd); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size()%PageSize != 0 {
		t.Fatalf("segment file size %d not page-aligned", st.Size())
	}

	pool := NewPool(64)
	seg, f, cols := openSegmentAt(t, path, pool)
	defer f.Close()

	if seg.NumRows() != len(sd.Keys) {
		t.Fatalf("NumRows = %d, want %d", seg.NumRows(), len(sd.Keys))
	}
	if !bytes.Equal(cols, sd.Cols) {
		t.Fatalf("column tags %v, want %v", cols, sd.Cols)
	}
	if seg.PKLen() != sd.PKLen {
		t.Fatalf("PKLen = %d, want %d", seg.PKLen(), sd.PKLen)
	}
	if !bytes.Equal(seg.Meta(), sd.Meta) {
		t.Fatalf("Meta = %q, want %q", seg.Meta(), sd.Meta)
	}
	var buf []byte
	off := 0
	for i, k := range sd.Keys {
		j, ok := FindFrom(seg.Keys(), 0, k)
		if !ok || j != i {
			t.Fatalf("FindFrom(%v) = %d,%v, want %d,true", k, j, ok, i)
		}
		var err error
		buf, err = seg.ReadRow(j, buf)
		if err != nil {
			t.Fatal(err)
		}
		want := sd.Data[off : off+int(sd.Lens[i])]
		if !bytes.Equal(buf, want) {
			t.Fatalf("row %d payload mismatch", i)
		}
		off += int(sd.Lens[i])
	}
	// Absent keys miss cleanly on either side and between rows.
	for _, k := range []Key{{-1, 0}, {1, 0}, {int64(len(sd.Keys) * 3), 0}, {0, 1}} {
		if _, ok := FindFrom(seg.Keys(), 0, k); ok {
			t.Fatalf("FindFrom(%v) hit, want miss", k)
		}
	}
}

func TestSegmentWriteDeterministic(t *testing.T) {
	dir := t.TempDir()
	sd := buildSegmentData(rand.New(rand.NewSource(5)), 25)
	var images [][]byte
	for i := 0; i < 2; i++ {
		path := filepath.Join(dir, "t.seg")
		var clock Clock
		if err := createSegmentFile(path, RAM, &clock, sd); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		images = append(images, b)
	}
	if !bytes.Equal(images[0], images[1]) {
		t.Fatal("rewriting the same SegmentData produced different bytes")
	}
	// The second write replaced the first by rename: one file, no temporary.
	if entries, _ := os.ReadDir(dir); len(entries) != 1 || entries[0].Name() != "t.seg" {
		t.Fatalf("directory after two writes: %v, want t.seg alone", entries)
	}
}

func TestSegmentRejectsBadInput(t *testing.T) {
	dir := t.TempDir()
	var clock Clock
	dev := RAM
	path := filepath.Join(dir, "bad.seg")
	cases := []SegmentData{
		{Cols: []byte{1}, PKLen: 1, Keys: []Key{{1, 0}}, Lens: []uint32{1, 2}, Data: []byte{0}},
		{Cols: []byte{1}, PKLen: 3, Keys: nil, Lens: nil},
		{Cols: []byte{1}, PKLen: 1, Keys: []Key{{2, 0}, {1, 0}}, Lens: []uint32{0, 0}},
		{Cols: []byte{1}, PKLen: 1, Keys: []Key{{1, 0}}, Lens: []uint32{4}, Data: []byte{0}},
		// One byte of meta more than the header page has room for.
		{Cols: []byte{1}, PKLen: 1, Meta: make([]byte, PageSize-segHeaderBytes)},
	}
	// A rejected segment appends nothing: the file keeps the segment before
	// it, byte for byte, and ends where that one ends.
	w, err := CreatePagedFile(path, dev, &clock)
	if err != nil {
		t.Fatal(err)
	}
	if err := AppendSegment(w, buildSegmentData(rand.New(rand.NewSource(9)), 10)); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, sd := range cases {
		if err := sd.Check(); err == nil {
			t.Errorf("case %d: Check passed, want error", i)
		}
		if err := AppendSegment(w, sd); err == nil {
			t.Fatalf("case %d: AppendSegment succeeded, want error", i)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(before, after) {
		t.Fatalf("rejected segments changed the file (%v)", err)
	}
	// A non-segment page-aligned file must be rejected at open.
	zeroed := filepath.Join(dir, "not.seg")
	if err := os.WriteFile(zeroed, make([]byte, PageSize), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := OpenPagedFile(zeroed, dev, &clock)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pool := NewPool(8)
	pool.Register(f)
	if _, _, err := OpenSegment(f, 0, pool, nil); err == nil {
		t.Fatal("OpenSegment accepted a zeroed file")
	}
}

// TestOpenSegmentAdmitsFromHeader: admit sees the row count, the column tags
// and the meta as written, with only the header page read; the meta may fill the page; an
// error admit returns fails the open as is, with no page of the file left in
// the pool.
func TestOpenSegmentAdmitsFromHeader(t *testing.T) {
	sd := buildSegmentData(rand.New(rand.NewSource(3)), 30)
	sd.Meta = bytes.Repeat([]byte{'m'}, PageSize-segHeaderBytes-len(sd.Cols))
	path := filepath.Join(t.TempDir(), "t.seg")
	if err := createSegmentFile(path, RAM, &Clock{}, sd); err != nil {
		t.Fatal(err)
	}
	f, err := OpenPagedFile(path, RAM, &Clock{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pool := NewPool(64)
	pool.Register(f)
	refused := errors.New("refused")
	for _, fail := range []bool{false, true} {
		reads := f.Reads()
		seg, _, err := OpenSegment(f, 0, pool, func(rows int, cols, meta []byte) (bool, error) {
			if rows != len(sd.Keys) || !bytes.Equal(cols, sd.Cols) || !bytes.Equal(meta, sd.Meta) {
				t.Errorf("admit got %d rows, tags %v and %d bytes of meta, want %d, %v and %d",
					rows, cols, len(meta), len(sd.Keys), sd.Cols, len(sd.Meta))
			}
			if n := f.Reads() - reads; n != 1 {
				t.Errorf("admit called after %d page reads, want the header's alone", n)
			}
			if fail {
				return false, refused
			}
			return false, nil
		})
		if fail {
			if err != refused || pool.NumFrames() != 0 {
				t.Errorf("open refused by admit = %v with %d frames pooled, want its error and none", err, pool.NumFrames())
			}
			continue
		}
		if err != nil || !bytes.Equal(seg.Meta(), sd.Meta) {
			t.Fatalf("open of a segment whose meta fills its header page = %v", err)
		}
		pool.DropCaches()
	}
}

// TestSegmentColdReadPages pins the cold-I/O claim: after DropCaches a
// single-row lookup reads exactly the payload's pages — the in-memory
// directory costs nothing per query.
func TestSegmentColdReadPages(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.seg")
	sd := SegmentData{Cols: []byte{1, 4}, PKLen: 1}
	for i := 0; i < 8; i++ {
		payload := bytes.Repeat([]byte{byte(i)}, 100) // well under a page
		sd.Keys = append(sd.Keys, Key{int64(i), 0})
		sd.Lens = append(sd.Lens, uint32(len(payload)))
		sd.Data = append(sd.Data, payload...)
	}
	var clock Clock
	if err := createSegmentFile(path, RAM, &clock, sd); err != nil {
		t.Fatal(err)
	}
	pool := NewPool(64)
	seg, f, _ := openSegmentAt(t, path, pool)
	defer f.Close()
	pool.DropCaches()
	missesBefore := pool.Metrics().Misses.Load()
	i, ok := FindFrom(seg.Keys(), 0, Key{3, 0})
	if !ok {
		t.Fatal("key 3 missing")
	}
	if _, err := seg.ReadRow(i, nil); err != nil {
		t.Fatal(err)
	}
	missesAfter := pool.Metrics().Misses.Load()
	if got := missesAfter - missesBefore; got != 1 {
		t.Fatalf("cold lookup read %d pages, want 1", got)
	}
}

// TestWriteImageWalk writes an image the way a load does — the first and
// last segments copied from files of their own (Segment.AppendTo), the middle
// one appended from its data — and walks it: the image is the three segment
// files back to back, byte for byte; the walk from page 0 opens each segment
// where the one before it ends, in one seek; and every row reads back from
// the image as it was written.
func TestWriteImageWalk(t *testing.T) {
	dir := t.TempDir()
	pool := NewPool(256)
	var want []byte
	var segs []*Segment
	var datas []SegmentData
	for i, rows := range []int{40, 0, 7} {
		path := filepath.Join(dir, fmt.Sprintf("s%d.seg", i))
		sd := buildSegmentData(rand.New(rand.NewSource(int64(i))), rows)
		if err := createSegmentFile(path, RAM, &Clock{}, sd); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, b...)
		seg, f, _ := openSegmentAt(t, path, pool)
		defer f.Close()
		if seg.Pages() != PageID(len(b)/PageSize) {
			t.Errorf("segment %d: Pages() = %d, its file has %d", i, seg.Pages(), len(b)/PageSize)
		}
		segs, datas = append(segs, seg), append(datas, sd)
	}
	image := filepath.Join(dir, "image.seg")
	w, err := CreatePagedFile(image, RAM, &Clock{})
	if err != nil {
		t.Fatal(err)
	}
	for i, seg := range segs {
		if i == 1 {
			err = AppendSegment(w, datas[i])
		} else {
			err = seg.AppendTo(w)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(image); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("the image is not the segment files back to back (%d vs %d bytes, %v)", len(got), len(want), err)
	}

	var clock Clock
	f, err := OpenPagedFile(image, HDD, &clock)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pool = NewPool(256)
	pool.Register(f)
	base := PageID(0)
	for i, sd := range datas {
		seg, _, err := OpenSegment(f, base, pool, nil)
		if err != nil {
			t.Fatalf("segment %d at page %d: %v", i, base, err)
		}
		off := 0
		for r, ln := range sd.Lens {
			row, err := seg.ReadRow(r, nil)
			if err != nil || !bytes.Equal(row, sd.Data[off:off+int(ln)]) {
				t.Fatalf("segment %d row %d read back wrong: %v", i, r, err)
			}
			off += int(ln)
		}
		base += seg.Pages()
	}
	if base != f.NumPages() {
		t.Errorf("the walk ended at page %d of %d", base, f.NumPages())
	}
	if got, want := clock.Elapsed(), HDD.RandRead+HDD.SeqRead*time.Duration(base-1); got != want {
		t.Errorf("the walk charged %v, want one seek and %d sequential reads: %v", got, base-1, want)
	}
	if _, _, err := OpenSegment(f, base, pool, nil); !errors.Is(err, ErrCorruptSegment) {
		t.Errorf("a segment past the image's end = %v, want ErrCorruptSegment", err)
	}
	if pool.NumFrames() != 0 {
		t.Errorf("the rejected open left %d frames of the image in the pool", pool.NumFrames())
	}
}
