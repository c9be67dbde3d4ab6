package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// BTree is a disk-resident B+tree mapping composite integer keys to record
// locators. It backs the primary-key index of every heap-form table, with the
// same Key the segments use: lout/lin use a single column (v), the kNN and
// one-to-many tables use two, (dephour, hub) or (hub, td), in the order the
// table declares them. Single-column keys fix the second component to zero.
//
// Leaves are chained left to right, so lookups support both exact matches
// and ascending range scans from a seek position — the access path of the
// naive kNN query's "hub = ? AND td >= ?" predicate.
type BTree struct {
	file *PagedFile
	pool *Pool

	root   PageID
	height uint32
	count  uint64
}

// Key is a composite key of at most two integer columns.
type Key [2]int64

// Less orders keys lexicographically.
func (k Key) Less(o Key) bool {
	if k[0] != o[0] {
		return k[0] < o[0]
	}
	return k[1] < o[1]
}

const (
	btreeMagic = 0x50544c42 // "PTLB"

	nodeLeaf     = 1
	nodeInternal = 2

	// Node header: type(1) pad(1) count(2) next(4).
	nodeHdrSize = 8

	keySize  = 16
	locSize  = 12
	childPtr = 4

	leafEntry = keySize + locSize
	intEntry  = keySize + childPtr

	maxLeafEntries = (PageSize - nodeHdrSize) / leafEntry
	// Internal nodes store count keys and count+1 children.
	maxIntEntries = (PageSize - nodeHdrSize - childPtr) / intEntry

	invalidPage = PageID(0xFFFFFFFF)
)

// OpenBTree opens or initializes a B+tree over file. Page 0 holds the tree
// header; page 1 is the initial (empty leaf) root.
func OpenBTree(file *PagedFile, pool *Pool) (*BTree, error) {
	t := &BTree{file: file, pool: pool}
	if file.NumPages() == 0 {
		hdr, err := pool.NewPage(file)
		if err != nil {
			return nil, err
		}
		rootFr, err := pool.NewPage(file)
		if err != nil {
			pool.Unpin(hdr)
			return nil, err
		}
		t.root, t.height = rootFr.Page(), 1
		initNode(rootFr, nodeLeaf)
		setNext(rootFr, invalidPage)
		pool.Unpin(rootFr)
		t.writeHeader(hdr)
		pool.Unpin(hdr)
		return t, nil
	}
	fr, err := pool.Get(file, 0)
	if err != nil {
		return nil, err
	}
	defer pool.Unpin(fr)
	d := fr.Data()
	if binary.LittleEndian.Uint32(d[0:]) != btreeMagic {
		return nil, fmt.Errorf("storage: bad btree magic")
	}
	t.root = PageID(binary.LittleEndian.Uint32(d[4:]))
	t.height = binary.LittleEndian.Uint32(d[8:])
	t.count = binary.LittleEndian.Uint64(d[12:])
	return t, nil
}

func (t *BTree) writeHeader(fr *Frame) {
	d := fr.Data()
	binary.LittleEndian.PutUint32(d[0:], btreeMagic)
	binary.LittleEndian.PutUint32(d[4:], uint32(t.root))
	binary.LittleEndian.PutUint32(d[8:], t.height)
	binary.LittleEndian.PutUint64(d[12:], t.count)
	fr.MarkDirty()
}

// Flush persists the tree header and all buffered pages.
func (t *BTree) Flush() error {
	fr, err := t.pool.Get(t.file, 0)
	if err != nil {
		return err
	}
	t.writeHeader(fr)
	t.pool.Unpin(fr)
	return t.pool.FlushAll()
}

// Count returns the number of stored keys.
func (t *BTree) Count() uint64 { return t.count }

// Height returns the tree height (1 = root is a leaf).
func (t *BTree) Height() uint32 { return t.height }

// --- node accessors -------------------------------------------------------

func initNode(fr *Frame, typ byte) {
	d := fr.Data()
	for i := range d {
		d[i] = 0
	}
	d[0] = typ
	fr.MarkDirty()
}

func nodeType(fr *Frame) byte { return fr.Data()[0] }
func nodeCount(fr *Frame) int { return int(binary.LittleEndian.Uint16(fr.Data()[2:])) }
func setCount(fr *Frame, n int) {
	binary.LittleEndian.PutUint16(fr.Data()[2:], uint16(n))
	fr.MarkDirty()
}
func nextLeaf(fr *Frame) PageID { return PageID(binary.LittleEndian.Uint32(fr.Data()[4:])) }
func setNext(fr *Frame, p PageID) {
	binary.LittleEndian.PutUint32(fr.Data()[4:], uint32(p))
	fr.MarkDirty()
}

func leafKey(fr *Frame, i int) Key {
	off := nodeHdrSize + i*leafEntry
	return decodeKey(fr.Data()[off:])
}

func leafLoc(fr *Frame, i int) Locator {
	off := nodeHdrSize + i*leafEntry + keySize
	d := fr.Data()[off:]
	return Locator{
		Page: PageID(binary.LittleEndian.Uint32(d[0:])),
		Off:  binary.LittleEndian.Uint32(d[4:]),
		Len:  binary.LittleEndian.Uint32(d[8:]),
	}
}

func putLeafEntry(fr *Frame, i int, k Key, loc Locator) {
	off := nodeHdrSize + i*leafEntry
	d := fr.Data()[off:]
	encodeKey(d, k)
	binary.LittleEndian.PutUint32(d[keySize+0:], uint32(loc.Page))
	binary.LittleEndian.PutUint32(d[keySize+4:], loc.Off)
	binary.LittleEndian.PutUint32(d[keySize+8:], loc.Len)
	fr.MarkDirty()
}

// Internal node layout: child0(4) then count * (key, child).
func intChild(fr *Frame, i int) PageID {
	if i == 0 {
		return PageID(binary.LittleEndian.Uint32(fr.Data()[nodeHdrSize:]))
	}
	off := nodeHdrSize + childPtr + (i-1)*intEntry + keySize
	return PageID(binary.LittleEndian.Uint32(fr.Data()[off:]))
}

func intKey(fr *Frame, i int) Key {
	off := nodeHdrSize + childPtr + i*intEntry
	return decodeKey(fr.Data()[off:])
}

func setIntChild0(fr *Frame, p PageID) {
	binary.LittleEndian.PutUint32(fr.Data()[nodeHdrSize:], uint32(p))
	fr.MarkDirty()
}

func putIntEntry(fr *Frame, i int, k Key, child PageID) {
	off := nodeHdrSize + childPtr + i*intEntry
	d := fr.Data()[off:]
	encodeKey(d, k)
	binary.LittleEndian.PutUint32(d[keySize:], uint32(child))
	fr.MarkDirty()
}

func encodeKey(d []byte, k Key) {
	binary.LittleEndian.PutUint64(d[0:], uint64(k[0]))
	binary.LittleEndian.PutUint64(d[8:], uint64(k[1]))
}

func decodeKey(d []byte) Key {
	return Key{
		int64(binary.LittleEndian.Uint64(d[0:])),
		int64(binary.LittleEndian.Uint64(d[8:])),
	}
}

// --- search ----------------------------------------------------------------

// leafLowerBound returns the first index whose key is >= k.
func leafLowerBound(fr *Frame, k Key) int {
	lo, hi := 0, nodeCount(fr)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if leafKey(fr, mid).Less(k) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// intChildFor returns the child to descend into for key k: the child after
// the last separator <= k.
func intChildFor(fr *Frame, k Key) PageID {
	lo, hi := 0, nodeCount(fr)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		ik := intKey(fr, mid)
		if ik.Less(k) || ik == k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return intChild(fr, lo)
}

// descendToLeaf pins and returns the leaf that would contain k.
func (t *BTree) descendToLeaf(k Key) (*Frame, error) {
	fr, err := t.pool.Get(t.file, t.root)
	if err != nil {
		return nil, err
	}
	for nodeType(fr) == nodeInternal {
		child := intChildFor(fr, k)
		t.pool.Unpin(fr)
		fr, err = t.pool.Get(t.file, child)
		if err != nil {
			return nil, err
		}
	}
	return fr, nil
}

// Get returns the locator stored under k.
func (t *BTree) Get(k Key) (Locator, bool, error) {
	fr, err := t.descendToLeaf(k)
	if err != nil {
		return Locator{}, false, err
	}
	defer t.pool.Unpin(fr)
	i := leafLowerBound(fr, k)
	if i < nodeCount(fr) && leafKey(fr, i) == k {
		return leafLoc(fr, i), true, nil
	}
	return Locator{}, false, nil
}

// Cursor iterates leaf entries in ascending key order from a seek position.
type Cursor struct {
	t    *BTree
	fr   *Frame
	idx  int
	done bool
}

// Seek positions a cursor at the first key >= k.
func (t *BTree) Seek(k Key) (*Cursor, error) {
	fr, err := t.descendToLeaf(k)
	if err != nil {
		return nil, err
	}
	c := &Cursor{t: t, fr: fr, idx: leafLowerBound(fr, k)}
	if err := c.skipExhausted(); err != nil {
		return nil, err
	}
	return c, nil
}

// SeekFirst positions a cursor at the smallest key.
func (t *BTree) SeekFirst() (*Cursor, error) {
	return t.Seek(Key{-1 << 63, -1 << 63})
}

func (c *Cursor) skipExhausted() error {
	for !c.done && c.idx >= nodeCount(c.fr) {
		next := nextLeaf(c.fr)
		c.t.pool.Unpin(c.fr)
		c.fr = nil
		if next == invalidPage {
			c.done = true
			return nil
		}
		fr, err := c.t.pool.Get(c.t.file, next)
		if err != nil {
			c.done = true
			return err
		}
		c.fr, c.idx = fr, 0
	}
	return nil
}

// Valid reports whether the cursor currently points at an entry.
func (c *Cursor) Valid() bool { return !c.done }

// Key returns the current entry's key; the cursor must be Valid.
func (c *Cursor) Key() Key { return leafKey(c.fr, c.idx) }

// Locator returns the current entry's locator; the cursor must be Valid.
func (c *Cursor) Locator() Locator { return leafLoc(c.fr, c.idx) }

// Next advances to the following entry.
func (c *Cursor) Next() error {
	if c.done {
		return nil
	}
	c.idx++
	return c.skipExhausted()
}

// Close releases the cursor's pinned leaf. Safe to call at any point.
func (c *Cursor) Close() {
	if c.fr != nil {
		c.t.pool.Unpin(c.fr)
		c.fr = nil
	}
	c.done = true
}

// --- insertion ---------------------------------------------------------------

// Insert stores loc under k, replacing any previous entry for k.
func (t *BTree) Insert(k Key, loc Locator) error {
	sep, right, replaced, err := t.insertInto(t.root, int(t.height), k, loc)
	if err != nil {
		return err
	}
	if !replaced {
		t.count++
	}
	if right != invalidPage {
		// Root split: grow the tree.
		fr, err := t.pool.NewPage(t.file)
		if err != nil {
			return err
		}
		initNode(fr, nodeInternal)
		setIntChild0(fr, t.root)
		putIntEntry(fr, 0, sep, right)
		setCount(fr, 1)
		t.root = fr.Page()
		t.height++
		t.pool.Unpin(fr)
	}
	return nil
}

// insertInto inserts into the subtree rooted at page (at the given level,
// 1 = leaf). On split it returns the separator key and new right sibling.
func (t *BTree) insertInto(page PageID, level int, k Key, loc Locator) (sep Key, right PageID, replaced bool, err error) {
	fr, err := t.pool.Get(t.file, page)
	if err != nil {
		return Key{}, invalidPage, false, err
	}
	defer t.pool.Unpin(fr)

	if level == 1 {
		return t.insertLeaf(fr, k, loc)
	}

	child := intChildFor(fr, k)
	csep, cright, replaced, err := t.insertInto(child, level-1, k, loc)
	if err != nil || cright == invalidPage {
		return Key{}, invalidPage, replaced, err
	}
	// Insert (csep, cright) into this internal node.
	n := nodeCount(fr)
	pos := 0
	for pos < n && (intKey(fr, pos).Less(csep) || intKey(fr, pos) == csep) {
		pos++
	}
	if n < maxIntEntries {
		for i := n; i > pos; i-- {
			putIntEntry(fr, i, intKey(fr, i-1), intChild(fr, i))
		}
		putIntEntry(fr, pos, csep, cright)
		setCount(fr, n+1)
		return Key{}, invalidPage, replaced, nil
	}
	// Split the internal node: gather entries, spill the upper half.
	keys := make([]Key, 0, n+1)
	children := make([]PageID, 0, n+2)
	children = append(children, intChild(fr, 0))
	for i := 0; i < n; i++ {
		keys = append(keys, intKey(fr, i))
		children = append(children, intChild(fr, i+1))
	}
	keys = append(keys[:pos], append([]Key{csep}, keys[pos:]...)...)
	children = append(children[:pos+1], append([]PageID{cright}, children[pos+1:]...)...)

	mid := len(keys) / 2
	sep = keys[mid]
	rightFr, err := t.pool.NewPage(t.file)
	if err != nil {
		return Key{}, invalidPage, false, err
	}
	defer t.pool.Unpin(rightFr)
	initNode(rightFr, nodeInternal)
	setIntChild0(rightFr, children[mid+1])
	for i := mid + 1; i < len(keys); i++ {
		putIntEntry(rightFr, i-mid-1, keys[i], children[i+1])
	}
	setCount(rightFr, len(keys)-mid-1)

	initNode(fr, nodeInternal)
	setIntChild0(fr, children[0])
	for i := 0; i < mid; i++ {
		putIntEntry(fr, i, keys[i], children[i+1])
	}
	setCount(fr, mid)
	return sep, rightFr.Page(), replaced, nil
}

func (t *BTree) insertLeaf(fr *Frame, k Key, loc Locator) (sep Key, right PageID, replaced bool, err error) {
	n := nodeCount(fr)
	pos := leafLowerBound(fr, k)
	if pos < n && leafKey(fr, pos) == k {
		putLeafEntry(fr, pos, k, loc)
		return Key{}, invalidPage, true, nil
	}
	if n < maxLeafEntries {
		for i := n; i > pos; i-- {
			putLeafEntry(fr, i, leafKey(fr, i-1), leafLoc(fr, i-1))
		}
		putLeafEntry(fr, pos, k, loc)
		setCount(fr, n+1)
		return Key{}, invalidPage, false, nil
	}
	// Split. Keep the left ~90% full when the new key lands at the very end
	// (bulk loads insert in ascending key order), otherwise split evenly.
	mid := n / 2
	if pos == n {
		mid = n * 9 / 10
	}
	rightFr, err := t.pool.NewPage(t.file)
	if err != nil {
		return Key{}, invalidPage, false, err
	}
	defer t.pool.Unpin(rightFr)
	initNode(rightFr, nodeLeaf)
	for i := mid; i < n; i++ {
		putLeafEntry(rightFr, i-mid, leafKey(fr, i), leafLoc(fr, i))
	}
	setCount(rightFr, n-mid)
	setNext(rightFr, nextLeaf(fr))
	setNext(fr, rightFr.Page())
	setCount(fr, mid)

	// Insert into the proper half.
	if pos <= mid {
		_, _, _, err = t.insertLeaf(fr, k, loc)
	} else {
		_, _, _, err = t.insertLeaf(rightFr, k, loc)
	}
	if err != nil {
		return Key{}, invalidPage, false, err
	}
	return leafKey(rightFr, 0), rightFr.Page(), false, nil
}

// --- bulk load ---------------------------------------------------------------

// BulkEntry is one (key, locator) pair for BulkLoad.
type BulkEntry struct {
	Key Key
	Loc Locator
}

// BulkLoad fills an empty tree from entries sorted by strictly ascending
// key: leaves are written completely full left to right (reusing the initial
// root page as the first leaf, so a single-leaf load allocates nothing) and
// the internal levels are stitched together bottom-up, one node per page
// pass — no per-entry root-to-leaf descent and no splits. Loading the same
// entries always produces the same page image, which the build determinism
// tests rely on.
func (t *BTree) BulkLoad(entries []BulkEntry) error {
	if t.count != 0 || t.height != 1 {
		return fmt.Errorf("storage: bulk load requires an empty btree (count %d, height %d)", t.count, t.height)
	}
	for i := 1; i < len(entries); i++ {
		if !entries[i-1].Key.Less(entries[i].Key) {
			return fmt.Errorf("storage: bulk load keys not strictly ascending at %d: %v then %v",
				i, entries[i-1].Key, entries[i].Key)
		}
	}
	if len(entries) == 0 {
		return nil
	}

	// Level 0: pack the leaves full, chaining the next pointers as we go.
	numLeaves := (len(entries) + maxLeafEntries - 1) / maxLeafEntries
	children := make([]PageID, 0, numLeaves)
	// minKey[i] is the smallest key under children[i]; the internal levels
	// use it as the separator in front of that child.
	minKeys := make([]Key, 0, numLeaves)
	var prev *Frame
	for i := 0; i < len(entries); i += maxLeafEntries {
		var fr *Frame
		var err error
		if len(children) == 0 {
			fr, err = t.pool.Get(t.file, t.root)
		} else {
			fr, err = t.pool.NewPage(t.file)
		}
		if err != nil {
			if prev != nil {
				t.pool.Unpin(prev)
			}
			return err
		}
		initNode(fr, nodeLeaf)
		n := len(entries) - i
		if n > maxLeafEntries {
			n = maxLeafEntries
		}
		for j := 0; j < n; j++ {
			putLeafEntry(fr, j, entries[i+j].Key, entries[i+j].Loc)
		}
		setCount(fr, n)
		setNext(fr, invalidPage)
		if prev != nil {
			setNext(prev, fr.Page())
			t.pool.Unpin(prev)
		}
		prev = fr
		children = append(children, fr.Page())
		minKeys = append(minKeys, entries[i].Key)
	}
	t.pool.Unpin(prev)

	// Stitch internal levels until one node spans everything. An internal
	// node holds up to maxIntEntries+1 children; when packing greedily would
	// strand a single child in the last node (a keyless node), the previous
	// node cedes one.
	height := uint32(1)
	for len(children) > 1 {
		fanout := maxIntEntries + 1
		upChildren := children[:0]
		upKeys := minKeys[:0]
		for s := 0; s < len(children); {
			e := s + fanout
			if e > len(children) {
				e = len(children)
			}
			if len(children)-e == 1 {
				e--
			}
			fr, err := t.pool.NewPage(t.file)
			if err != nil {
				return err
			}
			initNode(fr, nodeInternal)
			setIntChild0(fr, children[s])
			for k := s + 1; k < e; k++ {
				putIntEntry(fr, k-s-1, minKeys[k], children[k])
			}
			setCount(fr, e-s-1)
			upChildren = append(upChildren, fr.Page())
			upKeys = append(upKeys, minKeys[s])
			t.pool.Unpin(fr)
			s = e
		}
		children, minKeys = upChildren, upKeys
		height++
	}
	t.root = children[0]
	t.height = height
	t.count = uint64(len(entries))
	return nil
}

// Validate checks structural invariants (ordering within and across leaves,
// separator consistency) and returns the number of reachable leaf entries.
func (t *BTree) Validate() (int, error) {
	cur, err := t.SeekFirst()
	if err != nil {
		return 0, err
	}
	defer cur.Close()
	n := 0
	var prev Key
	for cur.Valid() {
		k := cur.Key()
		if n > 0 && !prev.Less(k) {
			return n, fmt.Errorf("storage: btree keys out of order: %v then %v", prev, k)
		}
		prev = k
		n++
		if err := cur.Next(); err != nil {
			return n, err
		}
	}
	if uint64(n) != t.count {
		return n, fmt.Errorf("storage: btree count %d but %d reachable entries", t.count, n)
	}
	return n, nil
}

// DebugDump renders the tree structure for tests.
func (t *BTree) DebugDump() (string, error) {
	var buf bytes.Buffer
	var walk func(page PageID, level int) error
	walk = func(page PageID, level int) error {
		fr, err := t.pool.Get(t.file, page)
		if err != nil {
			return err
		}
		defer t.pool.Unpin(fr)
		for i := 0; i < level; i++ {
			buf.WriteString("  ")
		}
		if nodeType(fr) == nodeLeaf {
			fmt.Fprintf(&buf, "leaf %d: %d keys\n", page, nodeCount(fr))
			return nil
		}
		fmt.Fprintf(&buf, "int %d: %d keys\n", page, nodeCount(fr))
		for i := 0; i <= nodeCount(fr); i++ {
			if err := walk(intChild(fr, i), level+1); err != nil {
				return err
			}
		}
		return nil
	}
	err := walk(t.root, 0)
	return buf.String(), err
}
