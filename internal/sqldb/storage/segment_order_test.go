package storage

// segment_order_test.go pins how OpenSegment reads its file — front to back,
// every page once, one seek — and what that order means for validation: the
// layout is checked before either region is read, and the data region, which
// comes first in the file, is the one reported when both are damaged.

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ptldb/internal/obs"
)

// openCounted opens path as a segment on the HDD model with the device
// counters attached, handing the data region to keep.
func openCounted(t *testing.T, path string, keep func(int, int, []byte) bool) (f *PagedFile, data []byte, clock *Clock, seeks, seq *obs.Counter, err error) {
	t.Helper()
	clock, seeks, seq = &Clock{}, &obs.Counter{}, &obs.Counter{}
	f, err = OpenPagedFile(path, HDD, clock)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	f.CountReads(seeks, seq)
	pool := NewPool(8)
	pool.Register(f)
	_, data, err = OpenSegment(f, 0, pool, keeping(keep))
	return f, data, clock, seeks, seq, err
}

func TestOpenSegmentReadsFileOnceInOrder(t *testing.T) {
	for _, rows := range []int{0, 1, 60} {
		path := filepath.Join(t.TempDir(), "order.seg")
		sd := buildSegmentData(rand.New(rand.NewSource(23)), rows)
		if err := createSegmentFile(path, RAM, &Clock{}, sd); err != nil {
			t.Fatal(err)
		}
		var seen []byte
		f, data, clock, seeks, seq, err := openCounted(t, path, func(n, size int, chunk []byte) bool {
			if len(chunk) == 0 || len(chunk) > PageSize || n != rows || size != len(sd.Data) {
				t.Errorf("keep got a %d-byte chunk of a %d-row, %d-byte region, want at most a page of %d rows and %d bytes",
					len(chunk), n, size, rows, len(sd.Data))
			}
			seen = append(seen, chunk...)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		// A sequential read is by definition the page after the previous one,
		// so one random read and pages-1 sequential ones is page 0, 1, 2, …
		// to the end of the file: ascending, nothing skipped, nothing twice.
		pages := uint64(f.NumPages())
		if seeks.Load() != 1 || seq.Load() != pages-1 || f.Reads() != pages {
			t.Errorf("%d rows: %d random + %d sequential reads (%d in all) of a %d-page file; want 1 + %d",
				rows, seeks.Load(), seq.Load(), f.Reads(), pages, pages-1)
		}
		if want := HDD.RandRead + HDD.SeqRead*time.Duration(pages-1); clock.Elapsed() != want {
			t.Errorf("%d rows: open charged %v, want %v", rows, clock.Elapsed(), want)
		}
		if !bytes.Equal(seen, sd.Data) || !bytes.Equal(data, sd.Data) || data == nil || len(data) != cap(data) {
			t.Errorf("%d rows: keep saw %d bytes and the open kept %d (cap %d), not the %d-byte data region",
				rows, len(seen), len(data), cap(data), len(sd.Data))
		}
	}
}

// TestOpenSegmentStopsKeeping: once keep turns a region down it is not asked
// again and no region is returned, but every page is still read and checked —
// a region turned down at its first chunk and a damaged region alike.
func TestOpenSegmentStopsKeeping(t *testing.T) {
	path, sd := writeFaultSegment(t, t.TempDir())
	dataPages := (len(sd.Data) + PageSize - 1) / PageSize
	if dataPages < 3 {
		t.Fatalf("fixture has %d data pages; the test wants at least three", dataPages)
	}
	for _, upTo := range []int{0, 1, dataPages - 1} {
		calls := 0
		f, data, _, _, _, err := openCounted(t, path, func(int, int, []byte) bool { calls++; return calls <= upTo })
		if err != nil || data != nil || calls != upTo+1 || f.Reads() != uint64(f.NumPages()) {
			t.Errorf("keep true for %d chunks: open = %v, region of %d bytes, keep asked %d times, %d of %d pages read; want a nil region after %d calls, every page read",
				upTo, err, len(data), calls, f.Reads(), f.NumPages(), upTo+1)
		}
	}
	image, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	p := corrupt(t, t.TempDir(), "data.seg", image, func(b []byte) []byte { b[PageSize+len(sd.Data)/2] ^= 0x40; return b })
	if _, data, _, _, _, err := openCounted(t, p, keepAll); !errors.Is(err, ErrCorruptSegment) || data != nil {
		t.Errorf("a damaged region kept: open = %v with %d bytes; want ErrCorruptSegment and no region", err, len(data))
	}
}

// TestOpenSegmentCRCPrecedence: each region's damage is reported under its
// own name, and when both are damaged the data region's is.
func TestOpenSegmentCRCPrecedence(t *testing.T) {
	path, sd := writeFaultSegment(t, t.TempDir())
	image, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dataAt := PageSize + len(sd.Data)/2
	dirAt := PageSize * (1 + (len(sd.Data)+PageSize-1)/PageSize)
	for _, tc := range []struct {
		name   string
		flips  []int
		region string
	}{
		{"data", []int{dataAt}, "data: checksum"},
		{"directory", []int{dirAt}, "directory: checksum"},
		{"both", []int{dataAt, dirAt}, "data: checksum"},
	} {
		p := corrupt(t, t.TempDir(), tc.name+".seg", image, func(b []byte) []byte {
			for _, at := range tc.flips {
				b[at] ^= 0x40
			}
			return b
		})
		_, _, _, _, _, err := openCounted(t, p, nil)
		if !errors.Is(err, ErrCorruptSegment) || !strings.Contains(err.Error(), tc.region) {
			t.Errorf("%s damaged: open = %v, want ErrCorruptSegment naming %q", tc.name, err, tc.region)
		}
	}
}

// TestOpenSegmentTruncatedInsideDataReadsOnlyHeader: a file cut off inside
// its data region fails the layout check on the strength of the header alone,
// before a single region page is read.
func TestOpenSegmentTruncatedInsideDataReadsOnlyHeader(t *testing.T) {
	path, sd := writeFaultSegment(t, t.TempDir())
	image, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dataPages := (len(sd.Data) + PageSize - 1) / PageSize
	if dataPages < 4 {
		t.Fatalf("fixture has %d data pages; the test wants a cut well inside the region", dataPages)
	}
	p := corrupt(t, t.TempDir(), "cut.seg", image, func(b []byte) []byte { return b[:PageSize*(1+dataPages/2)] })
	observed := 0
	f, _, _, seeks, seq, err := openCounted(t, p, func(_, _ int, chunk []byte) bool { observed += len(chunk); return true })
	if !errors.Is(err, ErrCorruptSegment) || !strings.Contains(err.Error(), "layout") {
		t.Fatalf("open = %v, want ErrCorruptSegment naming the layout", err)
	}
	if f.Reads() != 1 || seeks.Load() != 1 || seq.Load() != 0 || observed != 0 {
		t.Errorf("a truncated file cost %d reads (%d random, %d sequential) and %d observed bytes; want the header page only",
			f.Reads(), seeks.Load(), seq.Load(), observed)
	}
}
