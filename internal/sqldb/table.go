package sqldb

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"ptldb/internal/sqldb/exec"
	"ptldb/internal/sqldb/sqltypes"
	"ptldb/internal/sqldb/storage"
)

// Table is one stored table. It has exactly one physical form, an immutable
// segment: one directory search plus the payload's own pages per row, fronted
// by the resident vector cache for all-integer tables. The segment is a page
// range of an image of the directory: the one Open read, or the one the Load
// that wrote the table committed; a later Load copies it whole into its own
// image. Nothing of a Table changes once its constructor (newTable, then
// its finish) has returned it — a Load of the same name makes a new one — so
// a reader holds it without a lock; only the handle's Close, which never runs
// beside a query, lets go of its vectors. Both executors read through
// LookupPKScratch and ScanScratch.
type Table struct {
	schema
	db *DB

	// The open segment and the file it lies in. vc is the table's decoded
	// vectors, which Open decoded before a read could reach the table; it is
	// nil when the handle has no vector budget, the table has a DOUBLE or
	// TEXT column, Open declined it, Load wrote it or the handle is closed,
	// and then every read goes straight to the segment.
	file *storage.PagedFile
	seg  *storage.Segment
	vc   *Mat

	// Access counters: primary-key lookups answered (hit or miss) and full
	// scans started. They let tests verify the paper's secondary-storage
	// claims (e.g. "any v2v query needs to access exactly two rows").
	lookups, scans atomic.Uint64
}

// schema is a table definition resolved against its columns: what Load
// checks rows against and what a Table reads by.
type schema struct {
	def    TableDef
	pkCols []int
	// types caches the column types in storage order; stored is the column
	// tags the segment stores them under: types, but IntRuns for the leading
	// run-order column when both its siblings follow it (storedTypes). The
	// reads decode by stored, so hot paths never walk the TableDef.
	types, stored []sqltypes.Type
	// runOrder is the positions of def.RunOrder's columns, nil when the table
	// declares no run order; targetCols those of def.TargetIDs' columns under
	// targetBound, at most targetCount distinct, nil, 0 and 0 when it declares
	// no target ids; floorCols those of def.Floor's columns over the key column
	// floorKey, unset when it declares no floor.
	runOrder, targetCols, floorCols []int
	targetBound, targetCount        int64
	floorKey                        int
}

// newSchema validates def — one being loaded or one read back from a
// segment's header — and resolves its columns; the table's name is
// lowercased. A table needs a name, columns and a primary key of one or two
// BIGINT columns. A run-order declaration that is not three existing INT[]
// columns, the first stored before the other two, a target-id declaration
// that is not at least one of them under a bound in [1, math.MaxInt32] with a
// count in [0, bound], or a floor that is not at least one of them over a
// BIGINT key column and a width >= 1, is an
// error too.
func newSchema(def TableDef) (*schema, error) {
	def.Name = strings.ToLower(def.Name)
	if def.Name == "" {
		return nil, fmt.Errorf("sqldb: empty table name")
	}
	if len(def.Columns) == 0 {
		return nil, fmt.Errorf("sqldb: table %q has no columns", def.Name)
	}
	if len(def.PK) < 1 || len(def.PK) > 2 {
		return nil, fmt.Errorf("sqldb: table %q: a table needs a primary key of one or two columns, got %d", def.Name, len(def.PK))
	}
	sc := &schema{def: def, types: make([]sqltypes.Type, len(def.Columns))}
	for i, c := range def.Columns {
		sc.types[i] = c.Type
	}
	for _, pk := range def.PK {
		ci := colIndex(def.Columns, pk)
		if ci < 0 {
			return nil, fmt.Errorf("sqldb: table %q: unknown PK column %q", def.Name, pk)
		}
		if sc.types[ci] != sqltypes.Int64 {
			return nil, fmt.Errorf("sqldb: table %q: PK column %q must be BIGINT", def.Name, pk)
		}
		sc.pkCols = append(sc.pkCols, ci)
	}
	if len(def.RunOrder) != 0 && len(def.RunOrder) != 3 {
		return nil, fmt.Errorf("sqldb: table %q: run order names %d columns, want 3", def.Name, len(def.RunOrder))
	}
	for _, name := range def.RunOrder {
		ci := colIndex(def.Columns, name)
		if ci < 0 || sc.types[ci] != sqltypes.IntArray {
			return nil, fmt.Errorf("sqldb: table %q: run-order column %q is not an INT[] column of the table", def.Name, name)
		}
		sc.runOrder = append(sc.runOrder, ci)
	}
	if r := sc.runOrder; r != nil && (r[1] < r[0] || r[2] < r[0]) {
		return nil, fmt.Errorf("sqldb: table %q: run-order column %q is stored as runs, so it must come before %q and %q",
			def.Name, def.RunOrder[0], def.RunOrder[1], def.RunOrder[2])
	}
	if ids := def.TargetIDs; ids != nil {
		if len(ids.Columns) == 0 || ids.Bound < 1 || ids.Bound > math.MaxInt32 || ids.Count < 0 || ids.Count > ids.Bound {
			return nil, fmt.Errorf("sqldb: table %q: target ids declare %d columns under the bound %d with the count %d, want at least one, a bound in [1, %d] and a count in [0, bound]",
				def.Name, len(ids.Columns), ids.Bound, ids.Count, math.MaxInt32)
		}
		for _, name := range ids.Columns {
			ci := colIndex(def.Columns, name)
			if ci < 0 || sc.types[ci] != sqltypes.IntArray {
				return nil, fmt.Errorf("sqldb: table %q: target-id column %q is not an INT[] column of the table", def.Name, name)
			}
			sc.targetCols = append(sc.targetCols, ci)
		}
		sc.targetBound, sc.targetCount = ids.Bound, ids.Count
	}
	if fl := def.Floor; fl != nil {
		key := colIndex(def.Columns, fl.Key)
		if key < 0 || sc.types[key] != sqltypes.Int64 || fl.Width < 1 || len(fl.Columns) == 0 {
			return nil, fmt.Errorf("sqldb: table %q: floor declares key %q, width %d and %d columns, want a BIGINT column of the table, a width of at least 1 and at least one column",
				def.Name, fl.Key, fl.Width, len(fl.Columns))
		}
		for _, name := range fl.Columns {
			ci := colIndex(def.Columns, name)
			if ci < 0 || sc.types[ci] != sqltypes.IntArray {
				return nil, fmt.Errorf("sqldb: table %q: floor column %q is not an INT[] column of the table", def.Name, name)
			}
			sc.floorCols = append(sc.floorCols, ci)
		}
		sc.floorKey = key
	}
	sc.stored = storedTypes(sc.types, sc.runOrder)
	return sc, nil
}

// storedTypes is the column tags a table with the column types types and the
// run-order positions runOrder stores its rows under: a run order's leading
// column ascends, so its arrays are stored as runs (sqltypes.IntRuns). Both
// its sibling columns, as long by the run order, are stored after it
// (newSchema requires it): they are what gives a runs array the bytes after
// it that the decoders bound its length by.
func storedTypes(types []sqltypes.Type, runOrder []int) []sqltypes.Type {
	if runOrder == nil {
		return types
	}
	stored := slices.Clone(types)
	stored[runOrder[0]] = sqltypes.IntRuns
	return stored
}

// segMeta is a segment's meta: the table's definition and, beside it, the
// number of int32s its rows' INT[] values hold as the resident vectors keep
// them — each element of an INT[] column, and two per run of a runs column
// (sqltypes.IntRuns' run form) — the exact size of its element vector, which
// Open admits the table on before it reads a data page. Elems is the
// encoder's, never a caller's.
type segMeta struct {
	TableDef
	Elems int64 `json:"elems"`
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

// checkRow validates arity, the absence of NULL, the column types — coercing
// integer values into DOUBLE columns in place — and the declared target-id
// bound, floor and run order.
func (t *schema) checkRow(row sqltypes.Row) error {
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
			if id < 0 || int64(id) >= t.targetBound {
				return fmt.Errorf("sqldb: %s.%s: target id %d at position %d is outside [0, %d)",
					t.def.Name, t.def.Columns[ci].Name, id, i, t.targetBound)
			}
		}
	}
	if fl := t.def.Floor; fl != nil {
		key := row[t.floorKey].I
		for _, ci := range t.floorCols {
			for i, e := range row[ci].A {
				// x >= key × width exactly when FLOOR(x / width) >= key, which
				// no key near either end of int64 can overflow.
				x := int64(e)
				if exec.FloorDiv(x, fl.Width) < key {
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
func (t *schema) countTargets(row sqltypes.Row, seen []uint64, distinct int64) (int64, error) {
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

// encode computes the table's rows and encodes them as its segment, the
// definition and the rows' resident int32 count as its meta (compact JSON).
// The rows must be sorted by strictly ascending primary key and hold no NULL;
// each is checked against the schema as it is encoded, so a rejected load
// names the first row that breaks it and writes nothing, and so does a
// definition too long for the header page.
func (t *schema) encode(load func() ([]sqltypes.Row, error)) (storage.SegmentData, error) {
	rows, err := load()
	if err != nil {
		return storage.SegmentData{}, err
	}
	sd := storage.SegmentData{
		Cols:  make([]byte, len(t.stored)),
		PKLen: len(t.pkCols),
		Keys:  make([]storage.Key, len(rows)),
		Lens:  make([]uint32, len(rows)),
	}
	for i, typ := range t.stored {
		sd.Cols[i] = byte(typ)
	}
	meta := segMeta{TableDef: t.def}
	// A declared count of distinct target ids holds over all rows together:
	// seen has one bit per id of the bound.
	var seen []uint64
	if t.targetCount > 0 {
		seen = make([]uint64, (t.targetBound+63)/64)
	}
	distinct := int64(0)
	for i, r := range rows {
		err := t.checkRow(r)
		if err == nil && seen != nil {
			distinct, err = t.countTargets(r, seen, distinct)
		}
		if err != nil {
			return sd, fmt.Errorf("row %d: %w", i, err)
		}
		for k, ci := range t.pkCols {
			sd.Keys[i][k] = r[ci].I
		}
		if i > 0 && !sd.Keys[i-1].Less(sd.Keys[i]) {
			return sd, fmt.Errorf("sqldb: %s: bulk load rows not in strictly ascending key order at row %d (%v then %v)",
				t.def.Name, i, sd.Keys[i-1], sd.Keys[i])
		}
		start := len(sd.Data)
		data, err := sqltypes.EncodeSegRow(sd.Data, t.stored, r)
		if err != nil {
			return sd, fmt.Errorf("sqldb: %s: row %d: %w", t.def.Name, i, err)
		}
		sd.Data = data
		sd.Lens[i] = uint32(len(sd.Data) - start)
		for ci, v := range r {
			if t.stored[ci] == sqltypes.IntRuns {
				meta.Elems += 2 * int64(sqltypes.RunCount(v.A))
			} else {
				meta.Elems += int64(len(v.A))
			}
		}
	}
	if sd.Meta, err = json.Marshal(meta); err != nil {
		return sd, err
	}
	if err := sd.Check(); err != nil {
		return sd, fmt.Errorf("sqldb: table %q: %w", t.def.Name, err)
	}
	return sd, nil
}

// newTable is the one constructor of a Table: the table its segment's header
// defines, at page base of f, the file named file. It comes in two halves.
// The first, newTable itself, opens and validates the segment — checksums and
// layout in storage, the definition and the column tags against it here — and
// returns the table, whose page count places the next segment of an image. left is
// what Open's vector budget has left after the tables it admitted before this
// one, nil when the table is not to be admitted (a handle without a budget,
// and Load, which reads its tables back from the image it wrote). An
// all-integer table (by the header's column tags) whose vectors fit it is
// admitted: the header alone gives their exact size (vectorBytes of its row
// count and the element count its meta records), so the decision is made
// before any data page is read, and an admitted table's open pass keeps the
// data region it checksums for the decode to start from, while a declined
// one's pages go to free frames of the buffer pool (storage.OpenSegment).
// newTable takes that size from *left and counts it resident.
//
// The second half, decode, decodes an admitted table's vectors into it, and
// is nil for a table not admitted; Open runs the first halves in image order
// and the decodes on every core. A failed open leaves f open: f is the
// caller's.
func (db *DB) newTable(f *storage.PagedFile, file string, base storage.PageID, left *int64) (t *Table, decode func() error, err error) {
	var meta segMeta
	var types []sqltypes.Type // the header's column tags
	vectors, size := false, int64(0)
	admit := func(rows int, cols, raw []byte) (bool, error) {
		if err := json.Unmarshal(raw, &meta); err != nil {
			return false, fmt.Errorf("%w: header: the table definition does not parse: %v", storage.ErrCorruptSegment, err)
		}
		if meta.Elems < 0 {
			return false, fmt.Errorf("%w: header: %d array elements", storage.ErrCorruptSegment, meta.Elems)
		}
		vectors = left != nil
		types = make([]sqltypes.Type, len(cols))
		for i, c := range cols {
			types[i] = sqltypes.Type(c)
			vectors = vectors && (types[i] == sqltypes.Int64 || types[i] == sqltypes.IntArray || types[i] == sqltypes.IntRuns)
		}
		if !vectors {
			return false, nil
		}
		// The vectors index their elements with int32 starts.
		size = vectorBytes(types, rows, int(meta.Elems))
		return size <= *left && meta.Elems <= math.MaxInt32, nil
	}
	seg, data, err := storage.OpenSegment(f, base, db.pool, admit)
	def := meta.TableDef
	if err != nil && def.Name == "" {
		return nil, nil, fmt.Errorf("sqldb: %s: the segment at page %d: %w; rebuild the database", file, base, err)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("sqldb: table %q: %w", strings.ToLower(def.Name), err)
	}
	sc, err := newSchema(def)
	if err != nil {
		return nil, nil, err
	}
	if !slices.Equal(types, sc.stored) || seg.PKLen() != len(sc.pkCols) {
		return nil, nil, fmt.Errorf("sqldb: table %q: %w: header: columns %v (pk %d) do not match the schema; rebuild the database",
			sc.def.Name, storage.ErrCorruptSegment, types, seg.PKLen())
	}
	t = &Table{schema: *sc, db: db, file: f, seg: seg}
	if data == nil {
		if vectors {
			db.reg.VCache.Declined.Add(1) // its vectors outgrow what the tables before it left
		}
		return t, nil, nil
	}
	*left -= size
	db.reg.VCache.ResidentBytes.Add(size)
	return t, func() error {
		start := time.Now()
		m, err := t.decode(data, int(meta.Elems))
		if err == nil && m.Bytes != size {
			// The table was admitted at exactly the predicted size.
			err = fmt.Errorf("decoded %d bytes of vectors for a table admitted at %d", m.Bytes, size)
		}
		if err != nil {
			return fmt.Errorf("sqldb: table %q: %w", sc.def.Name, err)
		}
		t.vc = m
		db.reg.VCache.Materializations.Add(1)
		db.reg.VCache.Materialize.Observe(time.Since(start))
		return nil
	}, nil
}

// LookupPK fetches the row with the given primary-key values (one per PK
// column) into buffers of its own, so the caller may keep the row. A runs
// column comes expanded, an IntArray value: this is the general executor's
// row view, which holds no run form.
func (t *Table) LookupPK(keyVals []int64) (sqltypes.Row, bool, error) {
	var s exec.RowScratch
	row, ok, err := t.LookupPKScratch(keyVals, &s)
	if ok {
		expandRuns(row)
	}
	return row, ok, err
}

// expandRuns replaces each run-form value of row (sqltypes.IntRuns) by the
// IntArray it stands for, in a new array of its own.
func expandRuns(row sqltypes.Row) {
	for i, v := range row {
		if v.T == sqltypes.IntRuns {
			row[i] = sqltypes.NewIntArray(sqltypes.ExpandRuns(v.A))
		}
	}
}

// LookupPKScratch is LookupPK decoding into s's reusable buffers. The
// returned row is valid until the next call with the same scratch; its array
// values live in s.Arena (which only ever grows) or alias immutable cached
// vectors, so they remain valid for the scratch's lifetime. Unlike LookupPK
// it serves a runs column (a label's hubs) in its run form, an
// sqltypes.IntRuns value, from either tier: the form the resident vectors
// keep and the fused kernels read.
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
	// Single-column keys leave the second component zero, as Load's do.
	var key storage.Key
	copy(key[:], keyVals)
	reg := &t.db.reg
	if m := t.vc; m != nil {
		reg.VCache.Hits.Add(1)
		i, ok := storage.FindFrom(m.Keys, s.Pos, key)
		if s.Pos = i; !ok {
			return nil, false, nil
		}
		row := vcacheRow(m, t.stored, i, s)
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
	row, arena, err := sqltypes.DecodeSegRowInto(data, t.stored, s.Row, s.Arena)
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
// own, so fn may keep it (the general executor does), and a runs column comes
// expanded, as LookupPK's does.
func (t *Table) Scan(fn func(sqltypes.Row) error) error {
	var s exec.RowScratch
	return t.ScanScratch(&s, func(row sqltypes.Row) error {
		s = exec.RowScratch{}
		expandRuns(row)
		return fn(row)
	})
}

// ScanScratch is Scan reusing s's buffers — including the arena — for every
// row, so the callback must not retain the row or any of its array values; a
// runs column comes in its run form, as LookupPKScratch's does. It
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
			if err := fn(vcacheRow(m, t.stored, i, s)); err != nil {
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
		row, arena, err := sqltypes.DecodeSegRowInto(data, t.stored, s.Row, s.Arena[:0])
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
