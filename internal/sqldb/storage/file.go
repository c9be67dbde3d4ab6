package storage

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"ptldb/internal/obs"
)

// PageSize is the unit of I/O, matching PostgreSQL's default block size.
const PageSize = 8192

// PageID addresses a page within one file.
type PageID uint32

// PagedFile is a page-granular view of an on-disk file. All physical reads
// and writes flow through it so the device model sees every access. A file is
// either being written (CreatePagedFile: the one pass of WriteSegmentFile) or
// read (OpenPagedFile: read-only, for the rest of its life). It is safe for
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
// head. DB.DropCaches calls it on every table file.
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

// Allocate extends the file by one zero page and returns its id.
func (p *PagedFile) Allocate() (PageID, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	id := p.pages
	if err := p.f.Truncate(int64(id+1) * PageSize); err != nil {
		return 0, fmt.Errorf("storage: allocate page %d: %w", id, err)
	}
	p.pages++
	return id, nil
}

// ReadPage fills buf (len PageSize) with page id and charges the device
// model: a sequential read when id follows the previous read, a random read
// otherwise. The transfer itself runs outside the file lock, so concurrent
// reads of different pages overlap.
func (p *PagedFile) ReadPage(id PageID, buf []byte) error {
	p.mu.Lock()
	if id >= p.pages {
		p.mu.Unlock()
		return fmt.Errorf("storage: read past end: page %d of %d", id, p.pages)
	}
	seq := p.lastRead != noPage && id == p.lastRead+1
	p.lastRead = id
	p.mu.Unlock()
	p.reads.Add(1)
	if seq {
		p.clock.Charge(p.dev.SeqRead)
		if p.seqReads != nil {
			p.seqReads.Add(1)
		}
	} else {
		p.clock.Charge(p.dev.RandRead)
		if p.randReads != nil {
			p.randReads.Add(1)
		}
	}
	if _, err := p.f.ReadAt(buf[:PageSize], int64(id)*PageSize); err != nil {
		return fmt.Errorf("storage: read page %d: %w", id, err)
	}
	return nil
}

// WritePage stores buf as page id (which must have been allocated) and
// charges the device write cost.
func (p *PagedFile) WritePage(id PageID, buf []byte) error {
	p.mu.Lock()
	if id >= p.pages {
		p.mu.Unlock()
		return fmt.Errorf("storage: write past end: page %d of %d", id, p.pages)
	}
	p.mu.Unlock()
	p.clock.Charge(p.dev.Write)
	if _, err := p.f.WriteAt(buf[:PageSize], int64(id)*PageSize); err != nil {
		return fmt.Errorf("storage: write page %d: %w", id, err)
	}
	return nil
}

// Sync flushes the file to stable storage.
func (p *PagedFile) Sync() error { return p.f.Sync() }

// Close releases the underlying file handle.
func (p *PagedFile) Close() error { return p.f.Close() }
