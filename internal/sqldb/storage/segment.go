package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
)

// Key is a primary key of up to two BIGINT components; a single-column key
// leaves the second zero.
type Key [2]int64

// Less orders keys by first then second component.
func (k Key) Less(o Key) bool {
	if k[0] != o[0] {
		return k[0] < o[0]
	}
	return k[1] < o[1]
}

// FindFrom searches keys — strictly ascending, a table's key directory — for
// key: its position and true, or the position it would be inserted at and
// false. start is a hint, typically what the caller's last search returned: a
// caller that probes in ascending key order finds the next key at or shortly
// after the last one, so when the key at start is below the probe the search
// gallops forward from it (doubling steps, then a bisection of the last gap —
// the logarithm of the distance moved), and otherwise it bisects [0, start).
// The hint is validated by those comparisons, never trusted: the answer is
// the same for every start, in range or not.
//
// hotpath — allocheck root: the point lookup of both read tiers.
func FindFrom(keys []Key, start int, key Key) (int, bool) {
	lo, hi := 0, len(keys)
	if uint(start) < uint(hi) {
		if keys[start].Less(key) {
			lo = start + 1
			for step := 1; lo+step <= hi; step <<= 1 {
				if !keys[lo+step-1].Less(key) {
					hi = lo + step - 1
					break
				}
				lo += step
			}
		} else {
			hi = start
		}
	}
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); keys[mid].Less(key) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(keys) && keys[lo] == key
}

// Segment is the immutable file of one table — the only stored form a table
// has: the row payloads (opaque to this package — sqldb encodes them with the
// tag-free segment codec) packed back to back in a page-aligned data region,
// plus an in-memory directory mapping each primary key to its payload's
// offset and length. The directory is decoded once at open, so a cold lookup
// costs only the payload's own pages — no header, index or slotted-page
// traffic. The zero Segment is an empty one with no file behind it (a table
// declared but not yet loaded).
//
// File layout (all little-endian):
//
//	page 0              header: magic, version, row/column counts, pk width,
//	                    directory location, data size, data/directory/header
//	                    CRC-32C checksums, column kind tags
//	pages 1..D          data region: payloads back to back, spilling across
//	                    page boundaries, zero-padded to a page
//	pages D+1..end      directory: per row varint key0, varint key1,
//	                    uvarint payload length, zero-padded to a page
//
// A segment is written once by WriteSegmentFile during bulk load and never
// mutated (a table is changed by writing a new file over it); its bytes are a
// pure function of the row set, which is what keeps build output
// byte-identical at every worker count. OpenSegment verifies
// both region checksums and the exact page layout, so a truncated or
// bit-flipped file is rejected at open with ErrCorruptSegment — the segment
// is the table's only copy, so the caller fails closed and the recovery is a
// rebuild (bulk loads are deterministic).
type Segment struct {
	file *PagedFile
	pool *Pool

	cols  []byte // column kind tags, opaque to storage
	pkLen int

	keys []Key    // ascending, one per row
	offs []int64  // payload start offsets within the data region
	lens []uint32 // payload lengths
}

// SegmentData is the input to WriteSegmentFile: one table's rows in key
// order, already encoded.
type SegmentData struct {
	Cols  []byte   // one kind tag per column
	PKLen int      // leading key components in use (1 or 2)
	Keys  []Key    // strictly ascending
	Lens  []uint32 // payload length per row
	Data  []byte   // concatenated payloads, len == sum(Lens)
}

const (
	segmentMagic   = 0x50545331 // "PTS1"
	segmentVersion = 2          // v2 added the region and header checksums
	segHeaderCRCAt = 52         // offset of the header's own checksum
	segHeaderBytes = 56         // fixed fields + header CRC; column tags follow
)

// ErrCorruptSegment is wrapped by every validation failure of OpenSegment: the
// file's bytes are not a segment WriteSegmentFile produced.
var ErrCorruptSegment = errors.New("corrupt segment")

// corruptSegment builds a validation failure naming the damaged region
// ("header", "layout", "directory" or "data").
func corruptSegment(region, format string, args ...any) error {
	return fmt.Errorf("storage: %w: %s: %s", ErrCorruptSegment, region, fmt.Sprintf(format, args...))
}

// segCRCTable is the Castagnoli polynomial all three checksums use.
var segCRCTable = crc32.MakeTable(crc32.Castagnoli)

// headerCRC checksums the whole header page except the stored checksum
// itself: the fixed fields, the column tags, and the zero padding (the
// writer zeroes it, so including it costs nothing and leaves no byte of the
// page outside some checksum).
func headerCRC(page []byte) uint32 {
	crc := crc32.Checksum(page[:segHeaderCRCAt], segCRCTable)
	return crc32.Update(crc, segCRCTable, page[segHeaderBytes:PageSize])
}

// WriteSegmentFile writes sd as the segment file at path, atomically: the
// bytes go to path+".tmp", are synced, and the finished file is renamed over
// whatever path held, so a reader (or a crash) sees the old file or the new
// one, never a partial one. A failed write leaves path untouched and no
// temporary file. Writes are page-granular through a PagedFile so the device
// model charges them like any other build I/O.
func WriteSegmentFile(path string, dev DeviceModel, clock *Clock, sd SegmentData) error {
	tmp := path + ".tmp"
	err := writeSegmentFile(tmp, dev, clock, sd)
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		_ = os.Remove(tmp) // best-effort cleanup; the write failure wins
		return fmt.Errorf("storage: segment %s: %w", path, err)
	}
	return nil
}

func writeSegmentFile(path string, dev DeviceModel, clock *Clock, sd SegmentData) (err error) {
	if len(sd.Keys) != len(sd.Lens) {
		return fmt.Errorf("%d keys vs %d lens", len(sd.Keys), len(sd.Lens))
	}
	if sd.PKLen < 1 || sd.PKLen > 2 {
		return fmt.Errorf("pk width %d out of range", sd.PKLen)
	}
	if segHeaderBytes+len(sd.Cols) > PageSize {
		return fmt.Errorf("%d columns overflow the header page", len(sd.Cols))
	}
	var total uint64
	for i, ln := range sd.Lens {
		total += uint64(ln)
		if i > 0 && !sd.Keys[i-1].Less(sd.Keys[i]) {
			return fmt.Errorf("keys not strictly ascending at row %d", i)
		}
	}
	if total != uint64(len(sd.Data)) {
		return fmt.Errorf("%d data bytes vs %d from lens", len(sd.Data), total)
	}

	// Build the directory image.
	var dir []byte
	for i, k := range sd.Keys {
		dir = binary.AppendVarint(dir, k[0])
		dir = binary.AppendVarint(dir, k[1])
		dir = binary.AppendUvarint(dir, uint64(sd.Lens[i]))
	}

	f, err := CreatePagedFile(path, dev, clock)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()

	dataPages := (len(sd.Data) + PageSize - 1) / PageSize
	dirPage := 1 + dataPages

	var page [PageSize]byte
	binary.LittleEndian.PutUint32(page[0:], segmentMagic)
	binary.LittleEndian.PutUint32(page[4:], segmentVersion)
	binary.LittleEndian.PutUint64(page[8:], uint64(len(sd.Keys)))
	binary.LittleEndian.PutUint32(page[16:], uint32(len(sd.Cols)))
	binary.LittleEndian.PutUint32(page[20:], uint32(sd.PKLen))
	binary.LittleEndian.PutUint32(page[24:], uint32(dirPage))
	binary.LittleEndian.PutUint64(page[28:], uint64(len(dir)))
	binary.LittleEndian.PutUint64(page[36:], uint64(len(sd.Data)))
	binary.LittleEndian.PutUint32(page[44:], crc32.Checksum(sd.Data, segCRCTable))
	binary.LittleEndian.PutUint32(page[48:], crc32.Checksum(dir, segCRCTable))
	copy(page[segHeaderBytes:], sd.Cols)
	binary.LittleEndian.PutUint32(page[segHeaderCRCAt:], headerCRC(page[:]))
	if err := writeSegPage(f, page[:]); err != nil {
		return err
	}
	if err := writeSegRegion(f, sd.Data); err != nil {
		return err
	}
	if err := writeSegRegion(f, dir); err != nil {
		return err
	}
	return f.Sync()
}

// writeSegPage allocates the next page and stores buf (len PageSize) there.
func writeSegPage(f *PagedFile, buf []byte) error {
	id, err := f.Allocate()
	if err != nil {
		return err
	}
	return f.WritePage(id, buf)
}

// writeSegRegion stores b page by page, zero-padding the tail.
func writeSegRegion(f *PagedFile, b []byte) error {
	var page [PageSize]byte
	for len(b) > 0 {
		n := copy(page[:], b)
		for i := n; i < PageSize; i++ {
			page[i] = 0
		}
		if err := writeSegPage(f, page[:]); err != nil {
			return err
		}
		b = b[n:]
	}
	return nil
}

// OpenSegment opens a segment over file, decoding the directory into memory.
// The file is read front to back, exactly once: header, data region,
// directory — one seek and then sequential transfers, straight from the
// device, since caching pages touched once per open would only displace label
// pages from the pool.
//
// Every header field is validated against the file's actual page count and
// both region checksums are verified before the segment is returned, so a
// truncated file, a bit flip anywhere in a meaningful byte, or a header
// inflated to provoke huge allocations all fail the open with
// ErrCorruptSegment instead of panicking or mis-decoding later. Because the
// data region comes first in the file its checksum is the one reported when
// both regions are damaged. (Flips in the zero padding of a region's last
// page are outside the checksums and harmless: no decode ever reads them.)
//
// keep, when non-nil, decides whether the open also returns the data region
// it checksums: it is handed the header's row count and region size, and the
// region chunk by chunk in file order (each chunk valid only during the
// call), and the region — a fresh slice of exactly its size, filled page by
// page, returned only once its checksum matched — is kept for as long as
// keep returns true. Once keep returns false the open stops copying and
// calling it, and returns a nil region. The payloads stay opaque to storage:
// the caller that encoded them decides from them whether it will decode the
// region, and then does so without reading the file a second time. With a
// nil keep the region is nil.
func OpenSegment(file *PagedFile, pool *Pool, keep func(rows, size int, chunk []byte) bool) (*Segment, []byte, error) {
	var page [PageSize]byte
	totalPages := uint64(file.NumPages())
	if totalPages == 0 {
		return nil, nil, corruptSegment("header", "empty file")
	}
	if err := file.ReadPage(0, page[:]); err != nil {
		return nil, nil, err
	}
	if binary.LittleEndian.Uint32(page[0:]) != segmentMagic {
		return nil, nil, corruptSegment("header", "bad magic")
	}
	if v := binary.LittleEndian.Uint32(page[4:]); v != segmentVersion {
		return nil, nil, corruptSegment("header", "version %d not supported", v)
	}
	nRows := binary.LittleEndian.Uint64(page[8:])
	nCols := binary.LittleEndian.Uint32(page[16:])
	pkLen := binary.LittleEndian.Uint32(page[20:])
	dirPage := binary.LittleEndian.Uint32(page[24:])
	dirBytes := binary.LittleEndian.Uint64(page[28:])
	dataBytes := binary.LittleEndian.Uint64(page[36:])
	dataCRC := binary.LittleEndian.Uint32(page[44:])
	dirCRC := binary.LittleEndian.Uint32(page[48:])
	if got := binary.LittleEndian.Uint32(page[segHeaderCRCAt:]); got != headerCRC(page[:]) {
		return nil, nil, corruptSegment("header", "checksum %08x does not match", got)
	}
	if segHeaderBytes+int(nCols) > PageSize || pkLen < 1 || pkLen > 2 {
		return nil, nil, corruptSegment("header", "column count or key width out of range")
	}
	// The page layout is fully determined by the header sizes; requiring an
	// exact match against the file's real page count catches truncation (and
	// trailing garbage) before any region is read. Bounding both sizes by the
	// file itself first keeps the ceiling divisions overflow-free.
	if dataBytes > totalPages*PageSize || dirBytes > totalPages*PageSize {
		return nil, nil, corruptSegment("layout", "region sizes exceed the file")
	}
	dataPages := (dataBytes + PageSize - 1) / PageSize
	dirPages := (dirBytes + PageSize - 1) / PageSize
	if uint64(dirPage) != 1+dataPages || totalPages != 1+dataPages+dirPages {
		return nil, nil, corruptSegment("layout", "%d pages, header implies %d data + %d directory",
			totalPages, dataPages, dirPages)
	}
	// Every directory entry is at least three bytes, so nRows is bounded by
	// the (already page-count-checked) directory size — a forged row count
	// cannot provoke a huge allocation.
	if nRows > dirBytes/3 {
		return nil, nil, corruptSegment("directory", "%d rows claimed in %d bytes", nRows, dirBytes)
	}
	cols := append([]byte(nil), page[segHeaderBytes:segHeaderBytes+int(nCols)]...)

	// Verify the data region page by page. The region is allocated only at
	// the first chunk keep wants, so a region it turns down at once costs no
	// allocation proportional to the data size.
	crc, kept := uint32(0), keep != nil
	var data []byte
	for off := uint64(0); off < dataBytes; off += PageSize {
		if err := file.ReadPage(PageID(1+off/PageSize), page[:]); err != nil {
			return nil, nil, err
		}
		chunk := page[:min(dataBytes-off, PageSize)]
		crc = crc32.Update(crc, segCRCTable, chunk)
		if kept = kept && keep(int(nRows), int(dataBytes), chunk); kept {
			if data == nil {
				data = make([]byte, dataBytes)
			}
			copy(data[off:], chunk)
		}
	}
	if crc != dataCRC {
		return nil, nil, corruptSegment("data", "checksum %08x, header says %08x", crc, dataCRC)
	}
	if !kept {
		data = nil
	} else if data == nil {
		data = []byte{} // an empty region, kept
	}

	// Read and checksum the directory, then decode it.
	dir := make([]byte, dirBytes)
	for off := uint64(0); off < dirBytes; off += PageSize {
		id := PageID(uint64(dirPage) + off/PageSize)
		if err := file.ReadPage(id, page[:]); err != nil {
			return nil, nil, err
		}
		copy(dir[off:], page[:])
	}
	if got := crc32.Checksum(dir, segCRCTable); got != dirCRC {
		return nil, nil, corruptSegment("directory", "checksum %08x, header says %08x", got, dirCRC)
	}
	s := &Segment{
		file:  file,
		pool:  pool,
		cols:  cols,
		pkLen: int(pkLen),
		keys:  make([]Key, 0, nRows),
		offs:  make([]int64, 0, nRows),
		lens:  make([]uint32, 0, nRows),
	}
	var dataOff int64
	for i := uint64(0); i < nRows; i++ {
		var k Key
		v, n := binary.Varint(dir)
		if n <= 0 {
			return nil, nil, corruptSegment("directory", "bad entry at row %d", i)
		}
		k[0], dir = v, dir[n:]
		v, n = binary.Varint(dir)
		if n <= 0 {
			return nil, nil, corruptSegment("directory", "bad entry at row %d", i)
		}
		k[1], dir = v, dir[n:]
		ln, n := binary.Uvarint(dir)
		if n <= 0 || ln > dataBytes {
			return nil, nil, corruptSegment("directory", "bad entry at row %d", i)
		}
		dir = dir[n:]
		if i > 0 && !s.keys[i-1].Less(k) {
			return nil, nil, corruptSegment("directory", "keys not ascending at row %d", i)
		}
		s.keys = append(s.keys, k)
		s.offs = append(s.offs, dataOff)
		s.lens = append(s.lens, uint32(ln))
		dataOff += int64(ln)
	}
	if len(dir) != 0 {
		return nil, nil, corruptSegment("directory", "%d trailing bytes", len(dir))
	}
	if uint64(dataOff) != dataBytes {
		return nil, nil, corruptSegment("directory", "payloads sum to %d bytes, header says %d", dataOff, dataBytes)
	}
	return s, data, nil
}

// NumRows returns the row count.
func (s *Segment) NumRows() int { return len(s.keys) }

// Cols returns the column kind tags recorded at write time.
func (s *Segment) Cols() []byte { return s.cols }

// PKLen returns the number of key components in use.
func (s *Segment) PKLen() int { return s.pkLen }

// Key returns row i's key.
func (s *Segment) Key(i int) Key { return s.keys[i] }

// RowLen returns row i's payload length in bytes.
func (s *Segment) RowLen(i int) uint32 { return s.lens[i] }

// Keys returns the segment's key directory: ascending, one entry per row.
// The slice is shared with the segment and must not be modified; it remains
// valid (the memory is immutable) even after the segment is dropped, so the
// vector cache aliases it instead of copying.
func (s *Segment) Keys() []Key { return s.keys }

// ReadRow copies row i's payload out of the data region through the buffer
// pool, reusing buf's capacity when it suffices. Payload pages are the only
// pages touched, so a cold lookup is charged exactly its payload's pages.
//
// hotpath — allocheck root: the segment-tier payload read; the only growth
// is the cap-guarded scratch resize.
func (s *Segment) ReadRow(i int, buf []byte) ([]byte, error) {
	if i < 0 || i >= len(s.keys) {
		return nil, fmt.Errorf("storage: segment row %d of %d", i, len(s.keys))
	}
	ln := int(s.lens[i])
	var out []byte
	if cap(buf) >= ln {
		out = buf[:ln]
	} else {
		out = make([]byte, ln)
	}
	rem := out
	page := PageID(1 + s.offs[i]/PageSize)
	off := uint32(s.offs[i] % PageSize)
	for len(rem) > 0 {
		fr, err := s.pool.Get(s.file, page)
		if err != nil {
			return nil, err
		}
		c := copy(rem, fr.Data()[off:])
		s.pool.Unpin(fr)
		rem = rem[c:]
		page++
		off = 0
	}
	return out, nil
}
