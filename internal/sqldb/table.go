package sqldb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"path/filepath"
	"sync/atomic"
	"time"

	"ptldb/internal/sqldb/exec"
	"ptldb/internal/sqldb/sqltypes"
	"ptldb/internal/sqldb/storage"
)

// Table is one stored table. It has exactly one physical form, the immutable
// segment file <name>.seg: one directory search plus the payload's own pages
// per row, fronted by the resident vector cache for all-integer tables. The
// file is written whole by BulkLoad and only read in between; both executors
// read through LookupPKScratch and ScanScratch.
type Table struct {
	def    TableDef
	db     *DB
	pkCols []int
	// types caches the column types in storage order so hot-path decodes
	// never walk the TableDef.
	types []sqltypes.Type
	// runOrder is the positions of def.RunOrder's columns, nil when the table
	// declares no run order; targetCols those of def.TargetIDs' columns under
	// targetBound, at most targetCount distinct, nil, 0 and 0 when it declares
	// no target ids; floorCols those of def.Floor's columns over the key column
	// floorKey, unset when it declares no floor.
	runOrder, targetCols, floorCols []int
	targetBound, targetCount        int64
	floorKey                        int

	// The open segment, replaced as one by BulkLoad. Between CreateTable and
	// the first BulkLoad there is no file yet and seg is the zero Segment, an
	// empty one. vc is the table's decoded vectors, which Open decoded before
	// a read could reach the table; it is nil when the handle has no vector
	// budget, the table has a DOUBLE or TEXT column, Open declined it or
	// BulkLoad wrote it, and then every read goes straight to the segment.
	file *storage.PagedFile
	seg  *storage.Segment
	vc   *Mat

	// Access counters: primary-key lookups answered (hit or miss) and full
	// scans started. They let tests verify the paper's secondary-storage
	// claims (e.g. "any v2v query needs to access exactly two rows").
	lookups, scans atomic.Uint64
}

// newTable builds the in-memory side of a table from its definition — one
// being created or one read back from the catalog. A run-order declaration
// that is not three existing BIGINT[] columns, a target-id declaration that is
// not at least one of them under a bound in [1, math.MaxInt32] with a count in
// [0, bound], or a floor that is not at least one of them over a BIGINT key
// column and a width >= 1, is an error either way.
func (db *DB) newTable(def TableDef) (*Table, error) {
	t := &Table{def: def, db: db, types: make([]sqltypes.Type, len(def.Columns)), seg: new(storage.Segment)}
	for i, c := range def.Columns {
		t.types[i] = c.Type
	}
	for _, pk := range def.PK {
		t.pkCols = append(t.pkCols, colIndex(def.Columns, pk))
	}
	if len(def.RunOrder) != 0 && len(def.RunOrder) != 3 {
		return nil, fmt.Errorf("sqldb: table %q: run order names %d columns, want 3", def.Name, len(def.RunOrder))
	}
	for _, name := range def.RunOrder {
		ci := colIndex(def.Columns, name)
		if ci < 0 || t.types[ci] != sqltypes.IntArray {
			return nil, fmt.Errorf("sqldb: table %q: run-order column %q is not a BIGINT[] column of the table", def.Name, name)
		}
		t.runOrder = append(t.runOrder, ci)
	}
	if ids := def.TargetIDs; ids != nil {
		if len(ids.Columns) == 0 || ids.Bound < 1 || ids.Bound > math.MaxInt32 || ids.Count < 0 || ids.Count > ids.Bound {
			return nil, fmt.Errorf("sqldb: table %q: target ids declare %d columns under the bound %d with the count %d, want at least one, a bound in [1, %d] and a count in [0, bound]",
				def.Name, len(ids.Columns), ids.Bound, ids.Count, math.MaxInt32)
		}
		for _, name := range ids.Columns {
			ci := colIndex(def.Columns, name)
			if ci < 0 || t.types[ci] != sqltypes.IntArray {
				return nil, fmt.Errorf("sqldb: table %q: target-id column %q is not a BIGINT[] column of the table", def.Name, name)
			}
			t.targetCols = append(t.targetCols, ci)
		}
		t.targetBound, t.targetCount = ids.Bound, ids.Count
	}
	if fl := def.Floor; fl != nil {
		key := colIndex(def.Columns, fl.Key)
		if key < 0 || t.types[key] != sqltypes.Int64 || fl.Width < 1 || len(fl.Columns) == 0 {
			return nil, fmt.Errorf("sqldb: table %q: floor declares key %q, width %d and %d columns, want a BIGINT column of the table, a width of at least 1 and at least one column",
				def.Name, fl.Key, fl.Width, len(fl.Columns))
		}
		for _, name := range fl.Columns {
			ci := colIndex(def.Columns, name)
			if ci < 0 || t.types[ci] != sqltypes.IntArray {
				return nil, fmt.Errorf("sqldb: table %q: floor column %q is not a BIGINT[] column of the table", def.Name, name)
			}
			t.floorCols = append(t.floorCols, ci)
		}
		t.floorKey = key
	}
	return t, nil
}

// AccessStats reports how many PK lookups and full scans the table has
// served since open.
func (t *Table) AccessStats() (lookups, scans uint64) {
	return t.lookups.Load(), t.scans.Load()
}

// Def returns the table definition.
func (t *Table) Def() TableDef { return t.def }

// Columns returns the column names in storage order.
func (t *Table) Columns() []string {
	out := make([]string, len(t.def.Columns))
	for i, c := range t.def.Columns {
		out[i] = c.Name
	}
	return out
}

// PKCols returns the indices of the primary-key columns.
func (t *Table) PKCols() []int { return t.pkCols }

// RunOrder returns the positions of the declared run-order columns, nil when
// the table declares none.
func (t *Table) RunOrder() []int { return t.runOrder }

// TargetBound returns the positions of the declared target-id columns, their
// exclusive bound and their declared count of distinct ids (0: none), nil, 0
// and 0 when the table declares no target ids.
func (t *Table) TargetBound() ([]int, int, int) {
	return t.targetCols, int(t.targetBound), int(t.targetCount)
}

// Resident reports whether the table's decoded vectors are resident, so that
// its reads never reach the segment.
func (t *Table) Resident() bool { return t.vc != nil }

// Floor returns the positions of the declared floor's key and columns and its
// width, -1, 0 and nil when the table declares none.
func (t *Table) Floor() (key int, width int64, cols []int) {
	if t.def.Floor == nil {
		return -1, 0, nil
	}
	return t.floorKey, t.def.Floor.Width, t.floorCols
}

// RowCount returns the number of stored rows.
func (t *Table) RowCount() uint64 { return uint64(t.seg.NumRows()) }

// segPath is the table's one file.
func (t *Table) segPath() string { return filepath.Join(t.db.dir, t.def.Name+".seg") }

// checkRow validates arity, the absence of NULL, the column types — coercing
// integer values into DOUBLE columns in place — and the declared target-id
// bound, floor and run order.
func (t *Table) checkRow(row sqltypes.Row) error {
	if len(row) != len(t.def.Columns) {
		return fmt.Errorf("sqldb: %s: row has %d values, table has %d columns", t.def.Name, len(row), len(t.def.Columns))
	}
	for i, v := range row {
		want := t.types[i]
		if v.T == want {
			continue
		}
		if want == sqltypes.Float64 && v.T == sqltypes.Int64 {
			row[i] = sqltypes.NewFloat(float64(v.I))
			continue
		}
		return fmt.Errorf("sqldb: %s.%s: cannot store %s into %s", t.def.Name, t.def.Columns[i].Name, v.T, want)
	}
	for _, ci := range t.targetCols {
		for i, id := range row[ci].A {
			if id < 0 || id >= t.targetBound {
				return fmt.Errorf("sqldb: %s.%s: target id %d at position %d is outside [0, %d)",
					t.def.Name, t.def.Columns[ci].Name, id, i, t.targetBound)
			}
		}
	}
	if fl := t.def.Floor; fl != nil {
		key := row[t.floorKey].I
		for _, ci := range t.floorCols {
			for i, x := range row[ci].A {
				// x >= key × width exactly when FLOOR(x / width) >= key, which
				// no key near either end of int64 can overflow.
				q := x / fl.Width
				if x%fl.Width != 0 && x < 0 {
					q--
				}
				if q < key {
					return fmt.Errorf("sqldb: %s.%s: value %d at position %d is below the floor %s × %d = %d × %d",
						t.def.Name, t.def.Columns[ci].Name, x, i, fl.Key, fl.Width, key, fl.Width)
				}
			}
		}
	}
	if t.runOrder == nil {
		return nil
	}
	g, a, b := row[t.runOrder[0]].A, row[t.runOrder[1]].A, row[t.runOrder[2]].A
	if len(g) != len(a) || len(g) != len(b) {
		return fmt.Errorf("sqldb: %s: run-order arrays %v have lengths %d, %d, %d", t.def.Name, t.def.RunOrder, len(g), len(a), len(b))
	}
	for i := 1; i < len(g); i++ {
		if g[i] < g[i-1] || (g[i] == g[i-1] && (a[i] < a[i-1] || b[i] < b[i-1])) {
			return fmt.Errorf("sqldb: %s: run order %v broken at position %d: (%d, %d, %d) after (%d, %d, %d)",
				t.def.Name, t.def.RunOrder, i, g[i], a[i], b[i], g[i-1], a[i-1], b[i-1])
		}
	}
	return nil
}

// countTargets marks the target ids of a checked row in seen, one bit per id
// of the bound, and returns the number of distinct ids marked so far, or an
// error at the first id past the declared count.
func (t *Table) countTargets(row sqltypes.Row, seen []uint64, distinct int64) (int64, error) {
	for _, ci := range t.targetCols {
		for i, id := range row[ci].A {
			w, bit := id>>6, uint64(1)<<(id&63)
			if seen[w]&bit != 0 {
				continue
			}
			seen[w] |= bit
			if distinct++; distinct > t.targetCount {
				return distinct, fmt.Errorf("sqldb: %s.%s: target id %d at position %d is the table's distinct id number %d, past the declared count %d",
					t.def.Name, t.def.Columns[ci].Name, id, i, distinct, t.targetCount)
			}
		}
	}
	return distinct, nil
}

// BulkLoad makes rows the table's content — the one write a table has. The
// rows must be sorted by strictly ascending primary key and hold no NULL;
// all of them are validated before a byte is written, so a rejected load
// leaves the table as it was. The segment is written beside the live one and
// renamed over it, so loading a table that already has rows replaces them
// atomically. The loaded table reads its segment until the directory is
// opened again: only Open admits a table to the vector cache, and a table
// that held vectors lets them go (vcache.resident_bytes drops by their size).
// Reads of this table must not run concurrently with its load (bulk
// maintenance, like CreateTable); loads of different tables may.
func (t *Table) BulkLoad(rows []sqltypes.Row) error {
	sd := storage.SegmentData{
		Cols:  make([]byte, len(t.types)),
		PKLen: len(t.pkCols),
		Keys:  make([]storage.Key, len(rows)),
		Lens:  make([]uint32, len(rows)),
	}
	for i, typ := range t.types {
		sd.Cols[i] = byte(typ)
	}
	// A declared count of distinct target ids holds over all rows together:
	// seen has one bit per id of the bound.
	var seen []uint64
	if t.targetCount > 0 {
		seen = make([]uint64, (t.targetBound+63)/64)
	}
	distinct := int64(0)
	// The rows are validated and encoded in memory; the file is not touched
	// until every one of them has passed.
	for i, r := range rows {
		err := t.checkRow(r)
		if err == nil && seen != nil {
			distinct, err = t.countTargets(r, seen, distinct)
		}
		if err != nil {
			return fmt.Errorf("row %d: %w", i, err)
		}
		for k, ci := range t.pkCols {
			sd.Keys[i][k] = r[ci].I
		}
		if i > 0 && !sd.Keys[i-1].Less(sd.Keys[i]) {
			return fmt.Errorf("sqldb: %s: bulk load rows not in strictly ascending key order at row %d (%v then %v)",
				t.def.Name, i, sd.Keys[i-1], sd.Keys[i])
		}
		start := len(sd.Data)
		data, err := sqltypes.EncodeSegRow(sd.Data, r)
		if err != nil {
			return fmt.Errorf("sqldb: %s: row %d: %w", t.def.Name, i, err)
		}
		sd.Data = data
		sd.Lens[i] = uint32(len(sd.Data) - start)
	}
	if err := storage.WriteSegmentFile(t.segPath(), t.db.dev, &t.db.clock, sd); err != nil {
		return err
	}
	// Should the open fail, the old segment and vectors serve on.
	oldFile, oldVC := t.file, t.vc
	if _, err := t.open(nil); err != nil {
		return err
	}
	if oldVC != nil {
		t.db.reg.VCache.ResidentBytes.Add(-oldVC.Bytes)
	}
	return t.db.release(oldFile)
}

// open opens and validates the table's segment file — checksums and layout
// in storage, column layout against the schema here. left is what Open's
// vector budget has left after the tables it admitted before this one, nil
// when the table is not to be admitted (a handle without a budget, and
// BulkLoad's reopen). An all-integer table that fits it is admitted: open
// takes the exact size of its vectors from *left, counts it resident and
// returns the decode, which the caller runs before any read can reach the
// table. For such a table, the pass that checksums the data region also
// counts its varints, which is all it takes to know that size (vectorBytes),
// and keeps the region it read, for the decode to start from once the
// checksum has matched. The region is kept only while a lower bound on the
// table's vectors fits *left: the size for the varints counted so far, or for
// one varint per ten bytes of the region if that is more. The bound only
// grows and its last value is at least the exact size, so a region kept to
// the end fits, and a table too large for what is left is let go at its
// first chunk, before any copy. Every data page the table does not keep as
// vectors ends up in a free frame of the buffer pool (storage.OpenSegment).
// Open never creates the file: a missing one is an error.
func (t *Table) open(left *int64) (decode func() error, err error) {
	db := t.db
	f, err := storage.OpenPagedFile(t.segPath(), db.dev, &db.clock)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("sqldb: table %q: segment file %s.seg is missing — the directory is damaged or was built by an older version; rebuild it: %w",
			t.def.Name, t.def.Name, err)
	}
	if err != nil {
		return nil, fmt.Errorf("sqldb: table %q: %w", t.def.Name, err)
	}
	db.pool.Register(f)
	f.CountReads(&db.reg.Pool.RandReads, &db.reg.Pool.SeqReads)

	vectors := left != nil
	for _, typ := range t.types {
		vectors = vectors && (typ == sqltypes.Int64 || typ == sqltypes.IntArray)
	}
	varints := 0
	var keep func(int, int, []byte) bool
	if vectors {
		keep = func(rows, size int, chunk []byte) bool {
			varints += sqltypes.CountSegVarints(chunk)
			// No varint a decode accepts is longer than ten bytes, so a
			// region holds at least one per ten of its bytes.
			return vectorBytes(t.types, rows, max(varints, size/binary.MaxVarintLen64)) <= *left
		}
	}
	seg, data, err := storage.OpenSegment(f, db.pool, keep)
	if err != nil {
		_ = f.Close() // best-effort cleanup; the open failure wins
		return nil, fmt.Errorf("sqldb: table %q: %w", t.def.Name, err)
	}
	cols := seg.Cols()
	match := len(cols) == len(t.types) && seg.PKLen() == len(t.pkCols)
	for i := 0; match && i < len(cols); i++ {
		match = sqltypes.Type(cols[i]) == t.types[i]
	}
	if !match {
		_ = db.release(f) // best-effort cleanup; the mismatch wins
		return nil, fmt.Errorf("sqldb: table %q: %w: header: columns %v (pk %d) do not match the schema",
			t.def.Name, storage.ErrCorruptSegment, cols, seg.PKLen())
	}
	t.file, t.seg, t.vc = f, seg, nil
	if !vectors {
		return nil, nil
	}
	size := vectorBytes(t.types, seg.NumRows(), varints)
	// keep checked the size of every region it saw a chunk of; an empty
	// region, which it never saw, is checked here.
	if data == nil || size > *left {
		db.reg.VCache.Declined.Add(1) // its vectors outgrew what the tables before it left
		return nil, nil
	}
	*left -= size
	db.reg.VCache.ResidentBytes.Add(size)
	return func() error {
		start := time.Now()
		m, err := t.decode(data, varints)
		if err == nil && m.Bytes != size {
			// The table was admitted at exactly the predicted size.
			err = fmt.Errorf("decoded %d bytes of vectors for a table admitted at %d", m.Bytes, size)
		}
		if err != nil {
			return fmt.Errorf("sqldb: table %q: %w", t.def.Name, err)
		}
		t.vc = m
		db.reg.VCache.Materializations.Add(1)
		db.reg.VCache.Materialize.Observe(time.Since(start))
		return nil
	}, nil
}

// release forgets a replaced segment file's pages and closes it.
func (db *DB) release(f *storage.PagedFile) error {
	if f == nil {
		return nil
	}
	db.pool.Forget(f)
	return f.Close()
}

// LookupPK fetches the row with the given primary-key values (one per PK
// column) into buffers of its own, so the caller may keep the row.
func (t *Table) LookupPK(keyVals []int64) (sqltypes.Row, bool, error) {
	var s exec.RowScratch
	return t.LookupPKScratch(keyVals, &s)
}

// LookupPKScratch is LookupPK decoding into s's reusable buffers. The
// returned row is valid until the next call with the same scratch; its array
// values live in s.Arena (which only ever grows) or alias immutable cached
// vectors, so they remain valid for the scratch's lifetime.
//
// Both tiers find the row with the one search of the key directory they
// share, storage.FindFrom, started where s's last lookup ended (s.Pos): a
// caller probing in ascending key order pays the distance moved, any other
// the plain binary search. The row is then served from the resident vectors
// when the cache holds the table — slice views of the decoded columns, no
// pool, payload copy or varint decode — and from the segment otherwise: the
// payload's own pages through the pool, tag-free decode.
//
// hotpath — allocheck root: every fused label lookup funnels through here;
// both tiers must stay allocation-free.
func (t *Table) LookupPKScratch(keyVals []int64, s *exec.RowScratch) (sqltypes.Row, bool, error) {
	if len(keyVals) != len(t.pkCols) {
		return nil, false, fmt.Errorf("sqldb: %s: lookup with %d key values, PK has %d columns",
			t.def.Name, len(keyVals), len(t.pkCols))
	}
	t.lookups.Add(1)
	// Single-column keys leave the second component zero, as BulkLoad's do.
	var key storage.Key
	copy(key[:], keyVals)
	reg := &t.db.reg
	if m := t.vc; m != nil {
		reg.VCache.Hits.Add(1)
		i, ok := storage.FindFrom(m.Keys, s.Pos, key)
		if s.Pos = i; !ok {
			return nil, false, nil
		}
		row := vcacheRow(m, i, s)
		reg.Exec.RowsScanned.Add(1)
		return row, true, nil
	}
	i, ok := storage.FindFrom(t.seg.Keys(), s.Pos, key)
	if s.Pos = i; !ok {
		return nil, false, nil
	}
	data, err := t.seg.ReadRow(i, s.Buf)
	if err != nil {
		return nil, false, err
	}
	s.Buf = data
	row, arena, err := sqltypes.DecodeSegRowInto(data, t.types, s.Row, s.Arena)
	if err != nil {
		return nil, false, fmt.Errorf("sqldb: %s: %w", t.def.Name, err)
	}
	s.Row, s.Arena = row, arena
	reg.Segment.Hits.Add(1)
	reg.Segment.ColumnsDecoded.Add(uint64(len(t.types)))
	reg.Segment.BytesRead.Add(uint64(len(data)))
	reg.Exec.RowsScanned.Add(1)
	return row, true, nil
}

// Scan calls fn for every row in key order. Every row gets buffers of its
// own, so fn may keep it (the general executor does).
func (t *Table) Scan(fn func(sqltypes.Row) error) error {
	var s exec.RowScratch
	return t.ScanScratch(&s, func(row sqltypes.Row) error {
		s = exec.RowScratch{}
		return fn(row)
	})
}

// ScanScratch is Scan reusing s's buffers — including the arena — for every
// row, so the callback must not retain the row or any of its array values. It
// iterates the resident vectors, or else the segment directory, in key order.
// Counters accumulate locally and publish once at the end; a scan abandoned
// by an error drops its partial count.
//
// hotpath — allocheck root: fused full-table scans (target sets, condensed
// probes) iterate here; the per-row loop must stay allocation-free.
func (t *Table) ScanScratch(s *exec.RowScratch, fn func(sqltypes.Row) error) error {
	t.scans.Add(1)
	reg := &t.db.reg
	if m := t.vc; m != nil {
		reg.VCache.Hits.Add(1)
		n := len(m.Keys)
		for i := 0; i < n; i++ {
			if err := fn(vcacheRow(m, i, s)); err != nil {
				return err
			}
		}
		reg.Exec.RowsScanned.Add(uint64(n))
		return nil
	}
	rows, bytesRead := uint64(0), uint64(0)
	n := t.seg.NumRows()
	for i := 0; i < n; i++ {
		data, err := t.seg.ReadRow(i, s.Buf)
		if err != nil {
			return err
		}
		s.Buf = data
		row, arena, err := sqltypes.DecodeSegRowInto(data, t.types, s.Row, s.Arena[:0])
		if err != nil {
			return fmt.Errorf("sqldb: %s: %w", t.def.Name, err)
		}
		s.Row, s.Arena = row, arena
		rows++
		bytesRead += uint64(len(data))
		if err := fn(row); err != nil {
			return err
		}
	}
	reg.Segment.Hits.Add(rows)
	reg.Segment.ColumnsDecoded.Add(rows * uint64(len(t.types)))
	reg.Segment.BytesRead.Add(bytesRead)
	reg.Exec.RowsScanned.Add(rows)
	return nil
}
