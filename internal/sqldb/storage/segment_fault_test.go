package storage

// segment_fault_test.go is the corruption battery for the segment format:
// region-targeted faults (header, data, directory — each truncated and
// bit-flipped) must be rejected at OpenSegment, and seeded random mutations
// must either be rejected or leave a segment that decodes byte-for-byte
// identically to the original (flips in page padding outside the checksummed
// regions are harmless by design). OpenSegment must never panic and an
// accepted segment must never mis-decode: the read path trusts the directory
// it validated.

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// writeFaultSegment builds a deterministic multi-page segment and returns
// its path and data.
func writeFaultSegment(t *testing.T, dir string) (string, SegmentData) {
	t.Helper()
	path := filepath.Join(dir, "fault.seg")
	sd := buildSegmentData(rand.New(rand.NewSource(23)), 60)
	var clock Clock
	if err := WriteSegmentFile(path, RAM, &clock, sd); err != nil {
		t.Fatal(err)
	}
	return path, sd
}

// tryOpen opens path as a segment, returning the error (nil if accepted).
// An OpenPagedFile rejection (unaligned truncation) counts as a rejected
// segment too. The pool and file are scoped to the call.
func tryOpen(t *testing.T, path string) (*Segment, []byte, *PagedFile, error) {
	t.Helper()
	var clock Clock
	f, err := OpenPagedFile(path, RAM, &clock)
	if err != nil {
		return nil, nil, nil, err
	}
	pool := NewPool(64)
	pool.Register(f)
	seg, data, err := OpenSegment(f, pool, keepAll)
	if err != nil {
		f.Close()
		return nil, nil, nil, err
	}
	return seg, data, f, nil
}

// keepAll keeps every data region it is shown.
func keepAll(int, int, []byte) bool { return true }

// corrupt copies the pristine image to a fresh file with fn applied.
func corrupt(t *testing.T, dir, name string, image []byte, fn func(b []byte) []byte) string {
	t.Helper()
	path := filepath.Join(dir, name)
	b := append([]byte(nil), image...)
	b = fn(b)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSegmentFaultRegions flips and truncates every region of a valid
// segment file and requires OpenSegment to reject each fault.
func TestSegmentFaultRegions(t *testing.T) {
	dir := t.TempDir()
	path, sd := writeFaultSegment(t, dir)
	image, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dataBytes := len(sd.Data)
	dataPages := (dataBytes + PageSize - 1) / PageSize
	dirStart := PageSize * (1 + dataPages)
	// The directory entries are varint-packed; read the real logical size
	// from the header so the flip offsets land inside the checksummed bytes
	// rather than in the page padding beyond them.
	dirBytes := int(binary.LittleEndian.Uint64(image[28:]))

	flipAt := func(off int) func([]byte) []byte {
		return func(b []byte) []byte { b[off] ^= 0x40; return b }
	}
	truncTo := func(n int) func([]byte) []byte {
		return func(b []byte) []byte { return b[:n] }
	}
	cases := []struct {
		name string
		fn   func([]byte) []byte
	}{
		{"flip-magic", flipAt(0)},
		{"flip-version", flipAt(4)},
		{"flip-nrows", flipAt(8)},
		{"flip-ncols", flipAt(16)},
		{"flip-dirpage", flipAt(24)},
		{"flip-dirbytes", flipAt(28)},
		{"flip-databytes", flipAt(36)},
		{"flip-datacrc", flipAt(44)},
		{"flip-dircrc", flipAt(48)},
		{"flip-headercrc", flipAt(52)},
		{"flip-coltag", flipAt(56)},
		{"flip-header-padding", flipAt(PageSize - 1)},
		{"flip-data-first", flipAt(PageSize)},
		{"flip-data-mid", flipAt(PageSize + dataBytes/2)},
		{"flip-data-last", flipAt(PageSize + dataBytes - 1)},
		{"flip-dir-first", flipAt(dirStart)},
		{"flip-dir-mid", flipAt(dirStart + dirBytes/2)},
		{"trunc-empty", truncTo(0)},
		{"trunc-header-only", truncTo(PageSize)},
		{"trunc-mid-data", truncTo(PageSize * (1 + dataPages/2))},
		{"trunc-no-dir", truncTo(dirStart)},
		{"trunc-last-page", truncTo(len(image) - PageSize)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := corrupt(t, dir, tc.name+".seg", image, tc.fn)
			seg, _, f, err := tryOpen(t, p)
			if err == nil {
				f.Close()
				t.Fatalf("OpenSegment accepted a segment with fault %q (%d rows)", tc.name, seg.NumRows())
			}
		})
	}
}

// TestSegmentOpenRandomMutations is the seeded fuzz battery: random byte
// flips and truncations applied to a valid segment must either be rejected
// at open or produce a segment whose every row decodes identically to the
// original (a mutation can land in page padding outside the checksummed
// header, data and directory regions — by design harmless). OpenSegment and
// the read path must never panic.
func TestSegmentOpenRandomMutations(t *testing.T) {
	dir := t.TempDir()
	path, sd := writeFaultSegment(t, dir)
	image, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(97))
	accepted := 0
	for iter := 0; iter < 300; iter++ {
		mutate := func(b []byte) []byte {
			if rng.Intn(10) == 0 {
				// Truncate to a random page boundary (or an unaligned
				// length, which OpenPagedFile itself must survive).
				n := rng.Intn(len(b) + 1)
				if rng.Intn(2) == 0 {
					n -= n % PageSize
				}
				return b[:n]
			}
			for k := 1 + rng.Intn(4); k > 0; k-- {
				b[rng.Intn(len(b))] ^= byte(1 + rng.Intn(255))
			}
			return b
		}
		p := corrupt(t, dir, "mut.seg", image, mutate)
		seg, data, f, err := tryOpen(t, p)
		if err != nil {
			continue
		}
		accepted++
		// The mutation hit padding only: every logical byte must survive.
		if seg.NumRows() != len(sd.Keys) {
			t.Fatalf("iter %d: accepted segment has %d rows, want %d", iter, seg.NumRows(), len(sd.Keys))
		}
		var buf []byte
		off := 0
		for i, k := range sd.Keys {
			if seg.Key(i) != k {
				t.Fatalf("iter %d: key %d = %v, want %v", iter, i, seg.Key(i), k)
			}
			buf, err = seg.ReadRow(i, buf)
			if err != nil {
				t.Fatalf("iter %d: ReadRow(%d): %v", iter, i, err)
			}
			want := sd.Data[off : off+int(sd.Lens[i])]
			if !bytes.Equal(buf, want) {
				t.Fatalf("iter %d: row %d payload mismatch after padding-only mutation", iter, i)
			}
			off += int(sd.Lens[i])
		}
		if !bytes.Equal(data, sd.Data) {
			t.Fatalf("iter %d: kept data region mismatch after padding-only mutation", iter)
		}
		f.Close()
	}
	if accepted == 0 {
		t.Log("no mutation landed in padding; all rejected (acceptable)")
	}
}

// FuzzOpenSegment feeds arbitrary page-aligned images to OpenSegment: any
// outcome is fine except a panic, and an accepted segment must serve reads
// without panicking or violating its own directory. Each image is opened
// three ways — its whole region kept, kept for one page and then let go, and
// never asked for — into a fresh pool each time: a rejected image leaves no
// frame of its file in the pool, and an accepted one leaves exactly the data
// pages it did not return, each frame equal to the file's page.
func FuzzOpenSegment(f *testing.F) {
	dir := f.TempDir()
	path, _ := writeFaultSegmentF(f, dir)
	image, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(image)
	f.Add(image[:PageSize])
	// A flipped header, data and directory byte: rejected before, during and
	// after the pass that offers the data pages.
	for _, at := range []int{8, PageSize + 8, len(image) - PageSize + 1} {
		flipped := append([]byte(nil), image...)
		flipped[at] ^= 0xff
		f.Add(flipped)
	}
	f.Add(make([]byte, 2*PageSize))
	f.Fuzz(func(t *testing.T, b []byte) {
		p := filepath.Join(t.TempDir(), "fz.seg")
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		var clock Clock
		pf, err := OpenPagedFile(p, RAM, &clock)
		if err != nil {
			return
		}
		defer pf.Close()
		kept := 0
		keepFirst := func(int, int, []byte) bool { kept++; return kept == 1 }
		for _, keep := range []func(int, int, []byte) bool{keepAll, keepFirst, nil} {
			pool := NewPool(64)
			pool.Register(pf)
			seg, data, err := OpenSegment(pf, pool, keep)
			if err != nil {
				if n := pool.NumFrames(); n != 0 {
					t.Fatalf("a rejected image left %d frames of its file in the pool", n)
				}
				continue
			}
			dataBytes := 0
			for i := 0; i < seg.NumRows(); i++ {
				dataBytes += int(seg.RowLen(i))
			}
			if data != nil && len(data) != dataBytes {
				t.Fatalf("the directory's payloads sum to %d bytes, the kept region holds %d", dataBytes, len(data))
			}
			dataPages, offered := (dataBytes+PageSize-1)/PageSize, 0
			if data == nil {
				offered = min(dataPages, pool.Capacity())
			}
			if n := pool.NumFrames(); n != offered {
				t.Fatalf("%d frames in the pool after an open that returned %d of %d data bytes, want %d",
					n, len(data), dataBytes, offered)
			}
			for key, fr := range pool.frames {
				if key.page < 1 || int(key.page) > dataPages {
					t.Fatalf("page %d in the pool is not one of the %d data pages", key.page, dataPages)
				}
				if !bytes.Equal(fr.data[:], b[int(key.page)*PageSize:][:PageSize]) {
					t.Fatalf("page %d in the pool differs from the file's", key.page)
				}
			}
			var buf []byte
			for i := 0; i < seg.NumRows(); i++ {
				if buf, err = seg.ReadRow(i, buf); err != nil {
					return
				}
				if len(buf) != int(seg.RowLen(i)) {
					t.Fatalf("row %d: ReadRow returned %d bytes, directory says %d", i, len(buf), seg.RowLen(i))
				}
			}
		}
	})
}

// writeFaultSegmentF is writeFaultSegment for fuzz harnesses.
func writeFaultSegmentF(f *testing.F, dir string) (string, SegmentData) {
	f.Helper()
	path := filepath.Join(dir, "fault.seg")
	sd := buildSegmentData(rand.New(rand.NewSource(23)), 60)
	var clock Clock
	if err := WriteSegmentFile(path, RAM, &clock, sd); err != nil {
		f.Fatal(err)
	}
	return path, sd
}
