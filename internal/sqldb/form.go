package sqldb

import (
	"fmt"
	"math"
	"os"
	"path/filepath"

	"ptldb/internal/sqldb/exec"
	"ptldb/internal/sqldb/sqltypes"
	"ptldb/internal/sqldb/storage"
	"ptldb/internal/sqldb/vcache"
)

// openForm opens the table's physical form, decided by which files exist:
// <name>.seg makes it a segment (heap and index files left beside it by an
// older build are ignored), otherwise it is heap + B+tree, created empty when
// missing. A segment that fails validation fails the open — it is the
// table's only copy.
func (t *Table) openForm() (rowForm, error) {
	if _, err := os.Stat(t.path(".seg")); err == nil {
		return t.openSegment()
	}
	return t.openHeap()
}

// path returns the table's file with the given suffix.
func (t *Table) path(suffix string) string {
	return filepath.Join(t.db.dir, t.def.Name+suffix)
}

// openFile opens the table's file with the given suffix on the handle's
// device, clock, pool and read counters.
func (t *Table) openFile(suffix string) (*storage.PagedFile, error) {
	db := t.db
	f, err := storage.OpenPagedFile(t.path(suffix), db.dev, &db.clock)
	if err != nil {
		return nil, err
	}
	db.pool.Register(f)
	f.CountReads(&db.reg.Pool.RandReads, &db.reg.Pool.SeqReads)
	return f, nil
}

// heapForm is the mutable form: an append-only heap of tagged rows plus a
// B+tree mapping primary keys to heap locators.
type heapForm struct {
	t                 *Table
	heapFile, idxFile *storage.PagedFile
	heap              *storage.RowStore
	idx               *storage.BTree
}

func (t *Table) openHeap() (*heapForm, error) {
	db := t.db
	heapFile, err := t.openFile(".heap")
	if err != nil {
		return nil, err
	}
	heap, err := storage.OpenRowStore(heapFile, db.pool)
	if err != nil {
		_ = heapFile.Close() // best-effort cleanup; the open failure wins
		return nil, err
	}
	idxFile, err := t.openFile(".idx")
	if err != nil {
		_ = heapFile.Close()
		return nil, err
	}
	idx, err := storage.OpenBTree(idxFile, db.pool)
	if err != nil {
		_ = heapFile.Close()
		_ = idxFile.Close()
		return nil, err
	}
	return &heapForm{t: t, heapFile: heapFile, idxFile: idxFile, heap: heap, idx: idx}, nil
}

// bulkLoad appends the validated rows and, for keyed tables, builds the index
// bottom-up from keys.
func (h *heapForm) bulkLoad(rows []sqltypes.Row, keys []storage.Key) error {
	var buf []byte
	var entries []storage.BulkEntry
	if keys != nil {
		entries = make([]storage.BulkEntry, len(rows))
	}
	for i, r := range rows {
		buf = sqltypes.EncodeRow(buf[:0], r)
		loc, err := h.heap.Append(buf)
		if err != nil {
			return err
		}
		if keys != nil {
			entries[i] = storage.BulkEntry{Key: keys[i], Loc: loc}
		}
	}
	if keys == nil {
		return nil
	}
	return h.idx.BulkLoad(entries)
}

// lookup descends the B+tree and reads the row's heap pages.
//
// hotpath — allocheck root: fused point lookups on heap-form tables.
func (h *heapForm) lookup(key storage.Key, s *exec.RowScratch) (sqltypes.Row, bool, error) {
	loc, ok, err := h.idx.Get(key)
	if err != nil || !ok {
		return nil, false, err
	}
	data, err := h.heap.ReadInto(loc, s.Buf)
	if err != nil {
		return nil, false, err
	}
	s.Buf = data
	row, arena, err := sqltypes.DecodeRowInto(data, s.Row, s.Arena)
	if err != nil {
		return nil, false, fmt.Errorf("sqldb: %s: %w", h.t.def.Name, err)
	}
	s.Row, s.Arena = row, arena
	h.t.db.reg.Exec.RowsScanned.Add(1)
	return row, true, nil
}

// scan walks the index cursor (the heap itself for keyless tables).
//
// hotpath — allocheck root: the per-row loop must stay allocation-free.
func (h *heapForm) scan(s *exec.RowScratch, fn func(sqltypes.Row) error) error {
	if len(h.t.pkCols) == 0 {
		// hotpath:cold — keyless tables never back a fused query; the heap
		// walk may build its callback closure.
		return h.heap.Scan(func(_ storage.Locator, data []byte) error {
			row, err := h.decode(data, s)
			if err != nil {
				return err
			}
			// Per-row atomic add: h is captured read-only, so the counter
			// costs no allocation even though this callback escapes.
			h.t.db.reg.Exec.RowsScanned.Add(1)
			return fn(row)
		})
	}
	// hotpath:cold — cursor construction allocates once per scan; the loop
	// below is the hot part.
	cur, err := h.idx.SeekFirst()
	if err != nil {
		return err
	}
	defer cur.Close()
	// Rows surfaced by the cursor walk, counted locally (no closure, so the
	// counter stays on the stack) and published once on completion; a scan
	// abandoned by an error drops its partial count.
	rows := uint64(0)
	for cur.Valid() {
		data, err := h.heap.ReadInto(cur.Locator(), s.Buf)
		if err != nil {
			return err
		}
		s.Buf = data
		row, err := h.decode(data, s)
		if err != nil {
			return err
		}
		rows++
		if err := fn(row); err != nil {
			return err
		}
		if err := cur.Next(); err != nil {
			return err
		}
	}
	h.t.db.reg.Exec.RowsScanned.Add(rows)
	return nil
}

// decode decodes one tagged heap row into s's reusable buffers, resetting
// the arena — scan semantics: each row replaces the last. A method rather
// than a closure so the scan loop stays allocation-free.
func (h *heapForm) decode(data []byte, s *exec.RowScratch) (sqltypes.Row, error) {
	row, arena, err := sqltypes.DecodeRowInto(data, s.Row, s.Arena[:0])
	if err != nil {
		return nil, err
	}
	s.Row, s.Arena = row, arena
	return row, nil
}

func (h *heapForm) count() uint64 { return h.heap.Count() }

func (h *heapForm) flush() error {
	if err := h.heap.Flush(); err != nil {
		return err
	}
	return h.idx.Flush()
}

func (h *heapForm) close() error {
	return firstError(h.heapFile.Close(), h.idxFile.Close())
}

func (h *heapForm) remove() error {
	h.t.db.pool.Forget(h.heapFile)
	h.t.db.pool.Forget(h.idxFile)
	return firstError(h.close(), os.Remove(h.t.path(".heap")), os.Remove(h.t.path(".idx")))
}

// segForm is the immutable form: the table's columnar segment, fronted by its
// slot in the handle's resident vector cache — nil when the handle has no
// cache or the cache declined the table (its vectors exceed the whole
// budget), and then every read goes straight to the segment.
type segForm struct {
	t    *Table
	file *storage.PagedFile
	seg  *storage.Segment
	// types caches the column types in storage order so hot-path decodes
	// never walk the TableDef.
	types []sqltypes.Type
	vcE   *vcache.Entry
}

// segmentData encodes freshly validated bulk-load rows (strictly ascending
// keys) with the tag-free segment codec. It reports false for tables the
// codec cannot represent: no primary key, a non-BIGINT/BIGINT[] column, or a
// NULL value somewhere (allowed by checkRow).
func (t *Table) segmentData(rows []sqltypes.Row, keys []storage.Key) (storage.SegmentData, bool) {
	sd := storage.SegmentData{PKLen: len(t.pkCols), Keys: keys}
	if keys == nil {
		return sd, false
	}
	for _, c := range t.def.Columns {
		if !sqltypes.SegEncodable(c.Type) {
			return sd, false
		}
		sd.Cols = append(sd.Cols, byte(c.Type))
	}
	sd.Lens = make([]uint32, 0, len(rows))
	for _, r := range rows {
		start := len(sd.Data)
		data, err := sqltypes.EncodeSegRow(sd.Data, r)
		if err != nil {
			return sd, false
		}
		sd.Data = data
		sd.Lens = append(sd.Lens, uint32(len(sd.Data)-start))
	}
	return sd, true
}

// writeSegment writes sd as the table's segment file and opens it. The bytes
// are a pure function of the rows, which keeps builds byte-identical at every
// worker count. A failed write leaves no file behind, so the table stays an
// empty heap.
func (t *Table) writeSegment(sd storage.SegmentData) (*segForm, error) {
	var f *segForm
	err := storage.WriteSegmentFile(t.path(".seg"), t.db.dev, &t.db.clock, sd)
	if err == nil {
		f, err = t.openSegment()
	}
	if err != nil {
		_ = os.Remove(t.path(".seg")) // best-effort cleanup; the write failure wins
		return nil, err
	}
	return f, nil
}

// openSegment opens and validates the table's segment file — checksums and
// layout in storage, column layout against the schema here. The pass that
// checksums the data region also counts its varints, which is all it takes to
// know the size of the table's vectors (vectorBytes) before the vector cache
// is asked to hold them.
func (t *Table) openSegment() (*segForm, error) {
	f, err := t.openFile(".seg")
	if err != nil {
		return nil, err
	}
	varints := 0
	seg, err := storage.OpenSegmentObserved(f, t.db.pool, func(chunk []byte) {
		varints += sqltypes.CountSegVarints(chunk)
	})
	if err != nil {
		_ = f.Close() // best-effort cleanup; the open failure wins
		return nil, fmt.Errorf("sqldb: table %q: %w", t.def.Name, err)
	}
	cols := seg.Cols()
	types := make([]sqltypes.Type, len(cols))
	match := len(cols) == len(t.def.Columns) && seg.PKLen() == len(t.pkCols)
	for i := 0; match && i < len(cols); i++ {
		types[i] = sqltypes.Type(cols[i])
		match = types[i] == t.def.Columns[i].Type
	}
	if !match {
		_ = f.Close()
		return nil, fmt.Errorf("sqldb: table %q: %w: header: columns %v (pk %d) do not match the schema",
			t.def.Name, storage.ErrCorruptSegment, cols, seg.PKLen())
	}
	sf := &segForm{t: t, file: f, seg: seg, types: types}
	if t.db.vcache != nil {
		sf.vcE = t.db.vcache.Register(vectorBytes(types, seg.NumRows(), varints))
	}
	return sf, nil
}

// vectorBytes is the exact size of a segment table's materialized vectors —
// vcache.Mat.Bytes before the Mat exists — from what open already knows: the
// shared key directory, one int64 per row and BIGINT column, rows+1 starts
// per BIGINT[] column, and one int64 per array element. Every varint of the
// data region is a BIGINT, an array's length prefix or an array element, so
// the elements are the varints minus one per row and column.
func vectorBytes(types []sqltypes.Type, rows, varints int) int64 {
	n := int64(rows)
	size := 16*n + 8*(int64(varints)-n*int64(len(types)))
	for _, typ := range types {
		if typ == sqltypes.Int64 {
			size += 8 * n
		} else {
			size += 4 * (n + 1)
		}
	}
	return size
}

// lookup serves the row from the resident vectors when the cache holds the
// table — binary search of the key directory, slice views of the decoded
// columns, no pool, payload copy or varint decode — and from the segment
// otherwise: binary search of the in-memory directory, the payload's own
// pages through the pool, tag-free decode.
//
// hotpath — allocheck root: every fused label lookup funnels through here;
// both tiers must stay allocation-free.
func (f *segForm) lookup(key storage.Key, s *exec.RowScratch) (sqltypes.Row, bool, error) {
	reg := &f.t.db.reg
	if f.vcE != nil {
		m, err := f.vcacheMat()
		if err != nil {
			return nil, false, err
		}
		if m != nil {
			i, ok := m.Find(key)
			if !ok {
				return nil, false, nil
			}
			row := vcacheRow(m, i, s)
			reg.Exec.RowsScanned.Add(1)
			return row, true, nil
		}
	}
	i, ok := f.seg.Find(key)
	if !ok {
		return nil, false, nil
	}
	data, err := f.seg.ReadRow(i, s.Buf)
	if err != nil {
		return nil, false, err
	}
	s.Buf = data
	row, arena, err := sqltypes.DecodeSegRowInto(data, f.types, s.Row, s.Arena)
	if err != nil {
		return nil, false, fmt.Errorf("sqldb: %s: %w", f.t.def.Name, err)
	}
	s.Row, s.Arena = row, arena
	reg.Segment.Hits.Add(1)
	reg.Segment.ColumnsDecoded.Add(uint64(len(f.types)))
	reg.Segment.BytesRead.Add(uint64(len(data)))
	reg.Exec.RowsScanned.Add(1)
	return row, true, nil
}

// scan iterates the resident vectors, or else the segment directory, in key
// order. Counters accumulate locally and publish once at the end; a scan
// abandoned by an error drops its partial count.
//
// hotpath — allocheck root: fused full-table scans (target sets, condensed
// probes) iterate here; the per-row loop must stay allocation-free.
func (f *segForm) scan(s *exec.RowScratch, fn func(sqltypes.Row) error) error {
	reg := &f.t.db.reg
	if f.vcE != nil {
		m, err := f.vcacheMat()
		if err != nil {
			return err
		}
		if m != nil {
			n := len(m.Keys)
			for i := 0; i < n; i++ {
				if err := fn(vcacheRow(m, i, s)); err != nil {
					return err
				}
			}
			reg.Exec.RowsScanned.Add(uint64(n))
			return nil
		}
	}
	rows, bytesRead := uint64(0), uint64(0)
	n := f.seg.NumRows()
	for i := 0; i < n; i++ {
		data, err := f.seg.ReadRow(i, s.Buf)
		if err != nil {
			return err
		}
		s.Buf = data
		row, arena, err := sqltypes.DecodeSegRowInto(data, f.types, s.Row, s.Arena[:0])
		if err != nil {
			return fmt.Errorf("sqldb: %s: %w", f.t.def.Name, err)
		}
		s.Row, s.Arena = row, arena
		rows++
		bytesRead += uint64(len(data))
		if err := fn(row); err != nil {
			return err
		}
	}
	reg.Segment.Hits.Add(rows)
	reg.Segment.ColumnsDecoded.Add(rows * uint64(len(f.types)))
	reg.Segment.BytesRead.Add(bytesRead)
	reg.Exec.RowsScanned.Add(rows)
	return nil
}

func (f *segForm) count() uint64 { return uint64(f.seg.NumRows()) }

func (f *segForm) flush() error { return nil }

func (f *segForm) close() error { return f.file.Close() }

func (f *segForm) remove() error {
	if f.vcE != nil {
		f.vcE.Drop()
	}
	f.t.db.pool.Forget(f.file)
	return firstError(f.close(), os.Remove(f.t.path(".seg")))
}

// vcacheMat returns the table's materialized vectors, building them on first
// touch, or nil when the table was dropped meanwhile and the segment should
// serve instead.
func (f *segForm) vcacheMat() (*vcache.Mat, error) {
	if m := f.vcE.Acquire(); m != nil {
		return m, nil
	}
	// hotpath:cold — first-touch materialization: the bound-method closure
	// and the decode it drives are the cache-miss cost, paid once per
	// residency.
	return f.vcE.Materialize(f.materialize)
}

// materialize decodes the table's whole segment into column vectors for the
// resident vector cache: the key directory is shared with the segment (both
// immutable), scalar columns become one int64 per row, and array columns are
// flattened with a starts index. The data region is read directly from the
// device — one bulk pass that must not displace label pages from the buffer
// pool. A counting pass over the bytes in memory sizes every column, the
// vectors are carved out of two allocations of exactly that size (so
// Mat.Bytes is vectorBytes, which the cache admitted the table on), and the
// rows are decoded straight into them with the segment codec.
//
// hotpath:cold — runs once per residency, off the lookup path.
func (f *segForm) materialize() (*vcache.Mat, error) {
	data, err := f.seg.LoadData()
	if err != nil {
		return nil, fmt.Errorf("sqldb: table %q: %w", f.t.def.Name, err)
	}
	n := f.seg.NumRows()
	elems := make([]int, len(f.types))
	nInts, nArrays := 0, 0
	for i, off := 0, 0; i < n; i++ {
		end := off + int(f.seg.RowLen(i))
		if err := sqltypes.CountSegRow(data[off:end], f.types, elems); err != nil {
			return nil, fmt.Errorf("sqldb: %s: %w", f.t.def.Name, err)
		}
		off = end
	}
	for ci, typ := range f.types {
		switch {
		case typ == sqltypes.Int64:
			elems[ci] = n
		case elems[ci] > math.MaxInt32:
			return nil, fmt.Errorf("sqldb: %s: column %d overflows the vector index", f.t.def.Name, ci)
		default:
			nArrays++
		}
		nInts += elems[ci]
	}
	ints := make([]int64, nInts)
	starts := make([]int32, nArrays*(n+1))
	m := &vcache.Mat{
		Keys:  f.seg.Keys(),
		Cols:  make([]vcache.Col, len(f.types)),
		Bytes: int64(n)*16 + int64(len(ints))*8 + int64(len(starts))*4,
	}
	// vecs[ci] is column ci's vector while it fills: empty, its capacity the
	// column's share of ints.
	vecs := make([][]int64, len(f.types))
	for ci, typ := range f.types {
		vecs[ci], ints = ints[:0:elems[ci]], ints[elems[ci]:]
		if typ == sqltypes.IntArray {
			m.Cols[ci].Starts, starts = starts[:n+1:n+1], starts[n+1:]
		}
	}
	for i, off := 0, 0; i < n; i++ {
		end := off + int(f.seg.RowLen(i))
		if err := sqltypes.DecodeSegRowColumns(data[off:end], f.types, vecs); err != nil {
			return nil, fmt.Errorf("sqldb: %s: %w", f.t.def.Name, err)
		}
		off = end
		for ci := range m.Cols {
			if st := m.Cols[ci].Starts; st != nil {
				st[i+1] = int32(len(vecs[ci]))
			}
		}
	}
	for ci := range m.Cols {
		m.Cols[ci].Ints = vecs[ci]
	}
	return m, nil
}

// vcacheRow assembles row i of m into s.Row. The value headers are written
// into the scratch, but the array payloads alias the cached vectors — no
// copy, no arena traffic. The views satisfy the ScratchTable retention
// contract trivially: the vectors are immutable and the garbage collector
// keeps them alive as long as any view exists, even across eviction.
func vcacheRow(m *vcache.Mat, i int, s *exec.RowScratch) sqltypes.Row {
	var r sqltypes.Row
	if cap(s.Row) >= len(m.Cols) {
		r = s.Row[:len(m.Cols)]
	} else {
		r = make(sqltypes.Row, len(m.Cols))
	}
	for ci := range m.Cols {
		col := &m.Cols[ci]
		if col.Starts == nil {
			r[ci] = sqltypes.NewInt(col.Ints[i])
		} else {
			r[ci] = sqltypes.NewIntArray(col.Array(i))
		}
	}
	s.Row = r
	return r
}
