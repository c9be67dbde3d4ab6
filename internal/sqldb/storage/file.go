package storage

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"ptldb/internal/obs"
)

// PageSize is the unit of I/O, matching PostgreSQL's default block size.
const PageSize = 8192

// PageID addresses a page within one file.
type PageID uint32

// PagedFile is a page-granular view of an on-disk file. All physical reads
// and writes flow through it so the device model sees every access. A file is
// either being written (CreatePagedFile: the one appending pass that writes an
// image, AppendSegment and Segment.AppendTo) or read (OpenPagedFile:
// read-only, for the rest of its life). It is safe for
// concurrent use: the mutex only guards the page count and the
// sequential-access detector, while the transfers themselves use pread/
// pwrite outside any lock so concurrent page I/O overlaps.
type PagedFile struct {
	mu       sync.Mutex
	f        *os.File
	pages    PageID
	dev      DeviceModel
	clock    *Clock
	lastRead PageID        // for sequential-access detection
	reads    atomic.Uint64 // device reads issued (test observability)
	// randReads and seqReads, when set by CountReads, count the reads charged
	// as a seek and as a sequential transfer.
	randReads, seqReads *obs.Counter
	id                  int // pool key component, assigned by the buffer pool
}

// OpenPagedFile opens the existing file at path for reading; a missing file
// is an error (wrapping fs.ErrNotExist), never created. Device charges accrue
// on clock.
func OpenPagedFile(path string, dev DeviceModel, clock *Clock) (*PagedFile, error) {
	return openPagedFile(path, os.O_RDONLY, dev, clock)
}

// CreatePagedFile creates the file at path, empty, for writing (and reading
// back), replacing whatever was there.
func CreatePagedFile(path string, dev DeviceModel, clock *Clock) (*PagedFile, error) {
	return openPagedFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, dev, clock)
}

func openPagedFile(path string, flag int, dev DeviceModel, clock *Clock) (*PagedFile, error) {
	f, err := os.OpenFile(path, flag, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		_ = f.Close() // best-effort cleanup; the stat failure wins
		return nil, fmt.Errorf("storage: stat %s: %w", path, err)
	}
	if st.Size()%PageSize != 0 {
		_ = f.Close()
		return nil, fmt.Errorf("storage: %s size %d is not page-aligned", path, st.Size())
	}
	return &PagedFile{f: f, pages: PageID(st.Size() / PageSize), dev: dev, clock: clock, lastRead: noPage}, nil
}

// noPage is lastRead before any read: no page follows it.
const noPage = ^PageID(0)

// ForgetLastRead resets the sequential-access detector, so the next read is
// charged as a seek whichever page it is — what a restart does to the disk
// head. DB.DropCaches calls it on every image the handle opened.
func (p *PagedFile) ForgetLastRead() {
	p.mu.Lock()
	p.lastRead = noPage
	p.mu.Unlock()
}

// NumPages returns the current page count.
func (p *PagedFile) NumPages() PageID {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pages
}

// Reads returns the number of device page reads issued so far.
func (p *PagedFile) Reads() uint64 { return p.reads.Load() }

// CountReads makes every later ReadPage add one to rand when it is charged as
// a random read and to seq when it is charged as a sequential one — the exact
// seek count behind the simulated clock. Call it before the file is shared.
func (p *PagedFile) CountReads(rand, seq *obs.Counter) { p.randReads, p.seqReads = rand, seq }

// Append stores buf, a whole number of pages, after the file's last page and
// charges the device one page write per page. A file has one writer.
func (p *PagedFile) Append(buf []byte) error {
	if len(buf)%PageSize != 0 {
		return fmt.Errorf("storage: append of %d bytes is not whole pages", len(buf))
	}
	at := p.NumPages()
	p.clock.Charge(p.dev.Write * time.Duration(len(buf)/PageSize))
	if _, err := p.f.WriteAt(buf, int64(at)*PageSize); err != nil {
		return fmt.Errorf("storage: append at page %d: %w", at, err)
	}
	p.mu.Lock()
	p.pages += PageID(len(buf) / PageSize)
	p.mu.Unlock()
	return nil
}

// ReadPage fills buf (len PageSize) with page id and charges the device
// model: a sequential read when id follows the previous read, a random read
// otherwise. The transfer itself runs outside the file lock, so concurrent
// reads of different pages overlap.
func (p *PagedFile) ReadPage(id PageID, buf []byte) error { return p.ReadPages(id, buf[:PageSize]) }

// ReadPages fills buf, a whole number of pages, with the pages from first on
// in one transfer, charged as that many ReadPage calls in a row: the first
// page as ReadPage charges it, every later one as a sequential read.
func (p *PagedFile) ReadPages(first PageID, buf []byte) error {
	n := PageID(len(buf) / PageSize)
	p.mu.Lock()
	if n == 0 || len(buf)%PageSize != 0 || first >= p.pages || n > p.pages-first {
		p.mu.Unlock()
		return fmt.Errorf("storage: read past end: %d bytes from page %d of %d", len(buf), first, p.pages)
	}
	seq := p.lastRead != noPage && first == p.lastRead+1
	p.lastRead = first + n - 1
	p.mu.Unlock()
	p.reads.Add(uint64(n))
	seqs := uint64(n - 1)
	if seq {
		seqs++
	} else {
		p.clock.Charge(p.dev.RandRead)
		if p.randReads != nil {
			p.randReads.Add(1)
		}
	}
	p.clock.Charge(p.dev.SeqRead * time.Duration(seqs))
	if p.seqReads != nil && seqs > 0 {
		p.seqReads.Add(seqs)
	}
	if _, err := p.f.ReadAt(buf, int64(first)*PageSize); err != nil {
		return fmt.Errorf("storage: read page %d: %w", first, err)
	}
	return nil
}

// Sync flushes the file to stable storage.
func (p *PagedFile) Sync() error { return p.f.Sync() }

// Close releases the underlying file handle.
func (p *PagedFile) Close() error { return p.f.Close() }
