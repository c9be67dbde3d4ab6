package storage

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// buildSegmentData fabricates n rows with deterministic payloads, sized so
// several rows spill across page boundaries.
func buildSegmentData(rng *rand.Rand, n int) SegmentData {
	sd := SegmentData{Cols: []byte{1, 4, 4, 4}, PKLen: 1}
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

func openSegmentAt(t *testing.T, path string, pool *Pool) (*Segment, *PagedFile) {
	t.Helper()
	var clock Clock
	f, err := OpenPagedFile(path, RAM, &clock)
	if err != nil {
		t.Fatal(err)
	}
	pool.Register(f)
	seg, _, err := OpenSegment(f, pool, nil)
	if err != nil {
		t.Fatal(err)
	}
	return seg, f
}

func TestSegmentRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.seg")
	rng := rand.New(rand.NewSource(11))
	sd := buildSegmentData(rng, 40)
	var clock Clock
	if err := WriteSegmentFile(path, RAM, &clock, sd); err != nil {
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
	seg, f := openSegmentAt(t, path, pool)
	defer f.Close()

	if seg.NumRows() != len(sd.Keys) {
		t.Fatalf("NumRows = %d, want %d", seg.NumRows(), len(sd.Keys))
	}
	if !bytes.Equal(seg.Cols(), sd.Cols) {
		t.Fatalf("Cols = %v, want %v", seg.Cols(), sd.Cols)
	}
	if seg.PKLen() != sd.PKLen {
		t.Fatalf("PKLen = %d, want %d", seg.PKLen(), sd.PKLen)
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
		if err := WriteSegmentFile(path, RAM, &clock, sd); err != nil {
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
	}
	// A rejected write leaves the file it would have replaced as it was, and
	// no temporary beside it.
	good := buildSegmentData(rand.New(rand.NewSource(9)), 10)
	if err := WriteSegmentFile(path, dev, &clock, good); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, sd := range cases {
		if err := WriteSegmentFile(path, dev, &clock, sd); err == nil {
			t.Fatalf("case %d: WriteSegmentFile succeeded, want error", i)
		}
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(before, after) {
		t.Fatalf("rejected writes changed the existing segment (%v)", err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("rejected writes left %d files in the directory, want 1", len(entries))
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
	if _, _, err := OpenSegment(f, pool, nil); err == nil {
		t.Fatal("OpenSegment accepted a zeroed file")
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
	if err := WriteSegmentFile(path, RAM, &clock, sd); err != nil {
		t.Fatal(err)
	}
	pool := NewPool(64)
	seg, f := openSegmentAt(t, path, pool)
	defer f.Close()
	if err := pool.DropCaches(); err != nil {
		t.Fatal(err)
	}
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
