package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
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

// Segment is the immutable page range of one table — the only stored form a
// table has: the row payloads (opaque to this package — sqldb encodes them with the
// tag-free segment codec) packed back to back in a page-aligned data region,
// plus an in-memory directory mapping each primary key to its payload's
// offset and length. The directory is decoded once at open, so a cold lookup
// costs only the payload's own pages — no header, index or slotted-page
// traffic.
//
// Layout, in pages from the segment's first page (all little-endian):
//
//	page 0              header: magic, version, row/column counts, pk width,
//	                    directory location, data and meta sizes, CRC-32C
//	                    checksums, column kind tags, meta
//	pages 1..D          data region: payloads back to back, spilling across
//	                    page boundaries, zero-padded to a page
//	pages D+1..end      directory: per row varint key0, varint key1,
//	                    uvarint payload length, zero-padded to a page
//
// The header alone gives the segment's page count, so segments stored back
// to back in one file are walked front to back, each one's end the next
// one's start (sqldb keeps a database's tables in one such file). A segment
// is written once by AppendSegment during bulk load and never mutated (a
// table is changed by writing a new one); its bytes are a pure function of
// the row set and its definition, which is what keeps build output
// byte-identical at every worker count; AppendTo copies them.
// OpenSegment verifies both region checksums and the exact page layout, so
// a truncated or bit-flipped segment is rejected at open with
// ErrCorruptSegment — the segment is the table's only copy, so the caller
// fails closed and the recovery is a rebuild (bulk loads are deterministic).
type Segment struct {
	file  *PagedFile
	pool  *Pool
	base  PageID // the header page's position in file
	pages PageID // header, data and directory pages

	meta  []byte // the writer's description of the segment, opaque to storage
	pkLen int

	keys []Key    // ascending, one per row
	offs []int64  // payload start offsets within the data region
	lens []uint32 // payload lengths
}

// SegmentData is the input to AppendSegment: one table's rows in key order,
// already encoded.
type SegmentData struct {
	Cols  []byte   // one kind tag per column
	PKLen int      // leading key components in use (1 or 2)
	Keys  []Key    // strictly ascending
	Lens  []uint32 // payload length per row
	Data  []byte   // concatenated payloads, len == sum(Lens)
	Meta  []byte   // opaque; stored after Cols, and both must fit the header page
}

const (
	segmentMagic   = 0x50545331 // "PTS1"
	segmentVersion = 5          // v2 added the region and header checksums, v3 the meta, v4 sqldb's runs column and element count, v5 that count as the resident int32s (two per run)
	segMetaLenAt   = 52         // offset of the meta's byte count
	segHeaderCRCAt = 56         // offset of the header's own checksum
	segHeaderBytes = 60         // fixed fields + header CRC; column tags, then the meta, follow
)

// ErrCorruptSegment is wrapped by every validation failure of OpenSegment: the
// file's bytes are not a segment AppendSegment produced.
var ErrCorruptSegment = errors.New("corrupt segment")

// corruptSegment builds a validation failure naming the damaged region
// ("header", "layout", "directory" or "data").
func corruptSegment(region, format string, args ...any) error {
	return fmt.Errorf("storage: %w: %s: %s", ErrCorruptSegment, region, fmt.Sprintf(format, args...))
}

// segCRCTable is the Castagnoli polynomial all three checksums use.
var segCRCTable = crc32.MakeTable(crc32.Castagnoli)

// headerCRC checksums the whole header page except the stored checksum
// itself: the fixed fields, the column tags, the meta and the zero padding
// (the writer zeroes it, so including it costs nothing and leaves no byte of
// the page outside some checksum).
func headerCRC(page []byte) uint32 {
	crc := crc32.Checksum(page[:segHeaderCRCAt], segCRCTable)
	return crc32.Update(crc, segCRCTable, page[segHeaderBytes:PageSize])
}

// imageCopyPages is how many pages AppendTo moves per transfer: 1 MiB.
const imageCopyPages = 128

// AppendTo appends s to f, its pages copied verbatim by page range from its
// own file, header first, so that a walk of f finds it where f ended.
func (s *Segment) AppendTo(f *PagedFile) error {
	buf := make([]byte, min(s.pages, imageCopyPages)*PageSize)
	for p := PageID(0); p < s.pages; {
		b := buf[:min(s.pages-p, imageCopyPages)*PageSize]
		if err := s.file.ReadPages(s.base+p, b); err != nil {
			return err
		}
		if err := f.Append(b); err != nil {
			return err
		}
		p += PageID(len(b) / PageSize)
	}
	return nil
}

// Check reports why sd cannot be written as a segment: lens that disagree
// with the keys or the data, a pk width outside [1, 2], keys not strictly
// ascending, or column tags and meta that overflow the header page.
func (sd *SegmentData) Check() error {
	if len(sd.Keys) != len(sd.Lens) {
		return fmt.Errorf("storage: %d keys vs %d lens", len(sd.Keys), len(sd.Lens))
	}
	if sd.PKLen < 1 || sd.PKLen > 2 {
		return fmt.Errorf("storage: pk width %d out of range", sd.PKLen)
	}
	if segHeaderBytes+len(sd.Cols)+len(sd.Meta) > PageSize {
		return fmt.Errorf("storage: %d columns and %d bytes of meta overflow the header page", len(sd.Cols), len(sd.Meta))
	}
	var total uint64
	for i, ln := range sd.Lens {
		total += uint64(ln)
		if i > 0 && !sd.Keys[i-1].Less(sd.Keys[i]) {
			return fmt.Errorf("storage: keys not strictly ascending at row %d", i)
		}
	}
	if total != uint64(len(sd.Data)) {
		return fmt.Errorf("storage: %d data bytes vs %d from lens", len(sd.Data), total)
	}
	return nil
}

// AppendSegment appends sd to f as one segment — header page, data region,
// directory — once it passes Check: a rejected sd appends nothing. Writes
// are page-granular through f, so the device model charges them like any
// other build I/O; syncing f is the caller's.
func AppendSegment(f *PagedFile, sd SegmentData) error {
	if err := sd.Check(); err != nil {
		return err
	}
	var dir []byte
	for i, k := range sd.Keys {
		dir = binary.AppendVarint(dir, k[0])
		dir = binary.AppendVarint(dir, k[1])
		dir = binary.AppendUvarint(dir, uint64(sd.Lens[i]))
	}

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
	binary.LittleEndian.PutUint32(page[segMetaLenAt:], uint32(len(sd.Meta)))
	copy(page[segHeaderBytes:], sd.Cols)
	copy(page[segHeaderBytes+len(sd.Cols):], sd.Meta)
	binary.LittleEndian.PutUint32(page[segHeaderCRCAt:], headerCRC(page[:]))
	if err := f.Append(page[:]); err != nil {
		return err
	}
	if err := writeSegRegion(f, sd.Data); err != nil {
		return err
	}
	return writeSegRegion(f, dir)
}

// writeSegRegion appends b, zero-padded to a page.
func writeSegRegion(f *PagedFile, b []byte) error {
	whole := len(b) / PageSize * PageSize
	if whole > 0 {
		if err := f.Append(b[:whole]); err != nil {
			return err
		}
	}
	if whole == len(b) {
		return nil
	}
	var page [PageSize]byte
	copy(page[:], b[whole:])
	return f.Append(page[:])
}

// OpenSegment opens the segment whose header is page base of file, decoding
// the directory into memory; the segment's Pages say where the file's next
// segment, if any, begins. Its pages are read front to back, exactly once:
// header, data region, directory — sequential transfers straight from the
// device, so a walk of back-to-back segments costs one seek for the file. Every data page the pass reads and does not keep (below) is offered
// to the pool (Pool.Offer), so a query after the open finds it resident
// while a frame was free for it; header and directory pages are not, since
// nothing reads them through the pool.
//
// Every header field is validated against the pages the file has from base
// on and both region checksums are verified before the segment is returned,
// so a file that ends at base or inside the segment, a bit flip anywhere in
// a meaningful byte, or a header inflated to provoke huge allocations all
// fail the open with ErrCorruptSegment instead of panicking or mis-decoding
// later. Pages after the segment are the caller's to account for. Because the
// data region comes first in the file its checksum is the one reported when
// both regions are damaged. (Flips in the zero padding of a region's last
// page are outside the checksums and harmless: no decode ever reads them.)
// A failed open forgets every page of file (Pool.Forget), those it offered
// included, so no page of a rejected file stays in the pool.
//
// admit, when non-nil, is handed the header's row count, the column tags
// (valid only during the call) and the meta once the header page has
// verified, before any other page is read; an error it returns fails the
// open as is. When it returns true the open also returns the data region it
// checksums — a fresh slice of exactly its size, filled page by page from
// the first data page on and returned only once its checksum matched — and
// offers none of its pages to the pool; when it returns false the region is
// never copied. The meta and the payloads stay opaque to storage: the caller
// that wrote them decides from them whether it will decode the region, and
// then does so without reading the file a second time. The row count is
// clamped to one per three bytes of the file (a directory entry's least
// size): a header claiming more, like any the layout or the directory then
// refutes, fails the open before a data page is read, so no decision on it
// takes effect.
func OpenSegment(file *PagedFile, base PageID, pool *Pool, admit func(rows int, cols, meta []byte) (keep bool, err error)) (_ *Segment, _ []byte, err error) {
	defer func() {
		if err != nil {
			pool.Forget(file)
		}
	}()
	var page [PageSize]byte
	end := file.NumPages()
	if base >= end {
		return nil, nil, corruptSegment("header", "no page %d: the file ends at page %d", base, end)
	}
	totalPages := uint64(end - base) // the pages the segment may span
	if err = file.ReadPage(base, page[:]); err != nil {
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
	metaLen := binary.LittleEndian.Uint32(page[segMetaLenAt:])
	if got := binary.LittleEndian.Uint32(page[segHeaderCRCAt:]); got != headerCRC(page[:]) {
		return nil, nil, corruptSegment("header", "checksum %08x does not match", got)
	}
	if uint64(segHeaderBytes)+uint64(nCols)+uint64(metaLen) > PageSize || pkLen < 1 || pkLen > 2 {
		return nil, nil, corruptSegment("header", "column count, meta size or key width out of range")
	}
	meta := append([]byte(nil), page[segHeaderBytes+int(nCols):][:metaLen]...)
	keep := false
	if admit != nil {
		rows := int(min(nRows, totalPages*PageSize/3))
		if keep, err = admit(rows, page[segHeaderBytes:][:nCols], meta); err != nil {
			return nil, nil, err
		}
	}
	// The page layout is fully determined by the header sizes; requiring it
	// to fit the pages the file has from base on catches truncation before
	// any region is read. Bounding both sizes by the file itself first keeps
	// the ceiling divisions overflow-free.
	if dataBytes > totalPages*PageSize || dirBytes > totalPages*PageSize {
		return nil, nil, corruptSegment("layout", "region sizes exceed the file")
	}
	dataPages := (dataBytes + PageSize - 1) / PageSize
	dirPages := (dirBytes + PageSize - 1) / PageSize
	if uint64(dirPage) != 1+dataPages || 1+dataPages+dirPages > totalPages {
		return nil, nil, corruptSegment("layout", "%d pages from page %d, header implies 1 + %d data + %d directory",
			totalPages, base, dataPages, dirPages)
	}
	// Every directory entry is at least three bytes, so nRows is bounded by
	// the (already page-count-checked) directory size — a forged row count
	// cannot provoke a huge allocation.
	if nRows > dirBytes/3 {
		return nil, nil, corruptSegment("directory", "%d rows claimed in %d bytes", nRows, dirBytes)
	}

	// Verify the data region page by page, copying each page into the
	// region when it is kept and offering it to the pool otherwise.
	crc := uint32(0)
	var data []byte
	if keep {
		data = make([]byte, dataBytes)
	}
	for off := uint64(0); off < dataBytes; off += PageSize {
		id := base + PageID(1+off/PageSize)
		if err := file.ReadPage(id, page[:]); err != nil {
			return nil, nil, err
		}
		chunk := page[:min(dataBytes-off, PageSize)]
		crc = crc32.Update(crc, segCRCTable, chunk)
		if keep {
			copy(data[off:], chunk)
			continue
		}
		pool.Offer(file, id, page[:])
	}
	if crc != dataCRC {
		return nil, nil, corruptSegment("data", "checksum %08x, header says %08x", crc, dataCRC)
	}

	// Read and checksum the directory, then decode it.
	dir := make([]byte, dirBytes)
	for off := uint64(0); off < dirBytes; off += PageSize {
		id := base + PageID(uint64(dirPage)+off/PageSize)
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
		base:  base,
		pages: PageID(1 + dataPages + dirPages),
		meta:  meta,
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

// Pages returns the segment's page count: its header, data and directory
// pages. The zero Segment has none.
func (s *Segment) Pages() PageID { return s.pages }

// NumRows returns the row count.
func (s *Segment) NumRows() int { return len(s.keys) }

// Meta returns the meta recorded at write time.
func (s *Segment) Meta() []byte { return s.meta }

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
	page := s.base + PageID(1+s.offs[i]/PageSize)
	off := uint32(s.offs[i] % PageSize)
	for len(rem) > 0 {
		data, err := s.pool.Get(s.file, page)
		if err != nil {
			return nil, err
		}
		c := copy(rem, data[off:])
		rem = rem[c:]
		page++
		off = 0
	}
	return out, nil
}
