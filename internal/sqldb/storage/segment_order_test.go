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
// counters attached, handing the data region to observe.
func openCounted(t *testing.T, path string, observe func([]byte)) (f *PagedFile, clock *Clock, seeks, seq *obs.Counter, err error) {
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
	_, err = OpenSegmentObserved(f, pool, observe)
	return f, clock, seeks, seq, err
}

func TestOpenSegmentReadsFileOnceInOrder(t *testing.T) {
	for _, rows := range []int{0, 1, 60} {
		path := filepath.Join(t.TempDir(), "order.seg")
		sd := buildSegmentData(rand.New(rand.NewSource(23)), rows)
		if err := WriteSegmentFile(path, RAM, &Clock{}, sd); err != nil {
			t.Fatal(err)
		}
		var seen []byte
		f, clock, seeks, seq, err := openCounted(t, path, func(chunk []byte) {
			if len(chunk) == 0 || len(chunk) > PageSize {
				t.Errorf("observer got a %d-byte chunk", len(chunk))
			}
			seen = append(seen, chunk...)
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
		if !bytes.Equal(seen, sd.Data) {
			t.Errorf("%d rows: the observer saw %d bytes, not the %d-byte data region", rows, len(seen), len(sd.Data))
		}
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
		_, _, _, _, err := openCounted(t, p, nil)
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
	f, _, seeks, seq, err := openCounted(t, p, func(chunk []byte) { observed += len(chunk) })
	if !errors.Is(err, ErrCorruptSegment) || !strings.Contains(err.Error(), "layout") {
		t.Fatalf("open = %v, want ErrCorruptSegment naming the layout", err)
	}
	if f.Reads() != 1 || seeks.Load() != 1 || seq.Load() != 0 || observed != 0 {
		t.Errorf("a truncated file cost %d reads (%d random, %d sequential) and %d observed bytes; want the header page only",
			f.Reads(), seeks.Load(), seq.Load(), observed)
	}
}
