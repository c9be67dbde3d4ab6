package bench

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"ptldb"
	"ptldb/internal/csa"
	"ptldb/internal/order"
	"ptldb/internal/sqldb"
	"ptldb/internal/sqldb/sqltypes"
	"ptldb/internal/sqldb/storage"
	"ptldb/internal/ttl"
)

// AblationBucket sweeps the knn/otm bucket width (the paper's Section 3.2.1
// tuning discussion: smaller buckets mean more rows, larger buckets mean
// fatter exp columns; one hour was their compromise). The condensed tables
// are stored bucket-first, so the same trade-off shows at the page level: an
// LD query reads one bucket's run of rows and an EA query a suffix of
// buckets, and a run's length grows with the width. The pages and seeks
// columns are exact counts from a second pass on the same handle with the
// buffer pool dropped before every query.
func (w *Workspace) AblationBucket() (*Table, error) {
	city := w.cfg.Cities[0]
	tt, err := ptldb.GenerateCity(city, w.cfg.Scale, w.cfg.Seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "ablation-bucket",
		Title: fmt.Sprintf("knn table bucket width sweep on %s (EA-kNN, k=4, D=0.01, HDD)", city),
		Columns: []string{"bucket", "knn_ea rows", "EA-kNN avg", "LD-kNN avg",
			"EA-kNN pages/query", "EA-kNN random reads/query", "LD-kNN pages/query", "LD-kNN random reads/query"},
		Notes: []string{"The paper argues one-hour buckets balance row count against exp-column width.",
			"pages and random reads per query: exact device reads of a cold query (pool dropped before each), label pages included."},
	}
	for _, width := range []int32{900, 3600, 10800} {
		dir := w.cacheDir(fmt.Sprintf("%s_bucket%d", sanitize(city), width))
		if _, err := os.Stat(filepath.Join(dir, sqldb.ImageName)); err != nil {
			db, err := ptldb.Create(dir, tt, ptldb.Config{Device: "ram", BucketSeconds: width, VectorCacheBytes: -1})
			if err != nil {
				return nil, err
			}
			db.Close()
		}
		ds := &Dataset{TT: tt, Dir: dir}
		set, err := w.EnsureTargetSet(ds, 0.01, 4)
		if err != nil {
			return nil, err
		}
		db, err := w.Open(ds, "hdd")
		if err != nil {
			return nil, err
		}
		defer db.Close()
		wl := w.NewWorkload(ds, w.cfg.Queries)
		row := []string{fmt.Sprintf("%ds", width), "-"}
		if rel, err := db.Store().Raw(fmt.Sprintf("SELECT COUNT(*) FROM knn_ea_%s", set)); err == nil && len(rel.Rows) == 1 {
			row[1] = rel.Rows[0][0].String()
		}
		queries := []func(i int) error{
			func(i int) error { _, err := db.EAKNN(set, wl.Sources[i], wl.Starts[i], 4); return err },
			func(i int) error { _, err := db.LDKNN(set, wl.Sources[i], wl.Ends[i], 4); return err },
		}
		for _, query := range queries {
			avg, err := MeasureQueries(db, w.cfg.Queries, query)
			if err != nil {
				return nil, err
			}
			row = append(row, ms(avg))
		}
		for _, query := range queries {
			c, err := coldReads(db, w.cfg.Queries, query)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.2f", c.pages), fmt.Sprintf("%.2f", c.seeks))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// coldCost is the per-query cost of a workload run cold.
type coldCost struct {
	// pages are the device pages read and seeks the reads charged as random.
	pages, seeks float64
	// perQuery is wall clock plus simulated device time.
	perQuery time.Duration
}

// coldReads runs fn for queries 0..n-1, dropping db's caches before each, and
// returns their cost per query; dropping the caches is not timed. The handle
// must have no vector cache: DropCaches keeps the vectors Open decoded, so a
// table the cache admitted would read nothing and count nothing.
func coldReads(db *ptldb.DB, n int, fn func(i int) error) (coldCost, error) {
	var totalPages, totalSeeks uint64
	var wall time.Duration
	db.ResetIOClock()
	for i := 0; i < n; i++ {
		if err := db.DropCaches(); err != nil {
			return coldCost{}, err
		}
		before := db.Snapshot().Pool
		start := time.Now()
		if err := fn(i); err != nil {
			return coldCost{}, err
		}
		wall += time.Since(start)
		after := db.Snapshot().Pool
		totalPages += after.RandReads + after.SeqReads - before.RandReads - before.SeqReads
		totalSeeks += after.RandReads - before.RandReads
	}
	st, err := db.Stats()
	if err != nil {
		return coldCost{}, err
	}
	return coldCost{
		pages:    float64(totalPages) / float64(n),
		seeks:    float64(totalSeeks) / float64(n),
		perQuery: (wall + st.SimulatedIO) / time.Duration(n),
	}, nil
}

// AblationOrdering compares TTL label size and preprocessing time across
// vertex-ordering strategies (hub labeling is highly order-sensitive; the
// TTL authors ship tuned orders, we derive ours from degree statistics).
func (w *Workspace) AblationOrdering() (*Table, error) {
	city := w.cfg.Cities[0]
	tt, err := ptldb.GenerateCity(city, w.cfg.Scale, w.cfg.Seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "ablation-ordering",
		Title:   fmt.Sprintf("vertex-ordering sweep on %s", city),
		Columns: []string{"ordering", "|HL|/|V|", "label tuples", "build time (s)"},
	}
	for _, o := range []struct {
		name string
		ord  order.Order
	}{
		{"hub-usage", order.ByHubUsage(tt, tt.NumStops()/10+32, w.cfg.Seed)},
		{"neighbor-degree", order.ByNeighborDegree(tt)},
		{"degree", order.ByDegree(tt)},
		{"random", order.Random(tt.NumStops(), w.cfg.Seed)},
	} {
		start := time.Now()
		labels := ttl.Build(tt, o.ord)
		dt := time.Since(start)
		t.Rows = append(t.Rows, []string{
			o.name,
			fmt.Sprintf("%d", labels.TuplesPerStop()),
			fmt.Sprintf("%d", labels.NumTuples()),
			fmt.Sprintf("%.2f", dt.Seconds()),
		})
	}
	return t, nil
}

// AblationLayout justifies the paper's array-per-stop row design (inherited
// from COLD) on the engine's one storage form: it compares fetching one
// stop's full label from a segment keyed (v) whose rows hold three arrays
// (one directory search + one wide row) against a normalized segment keyed
// (v, seq) with one small row per tuple (one search + a walk of the directory
// while the first key component is v), on the simulated HDD with a cold cache
// per batch.
func (w *Workspace) AblationLayout() (*Table, error) {
	city := w.cfg.Cities[0]
	tt, err := ptldb.GenerateCity(city, w.cfg.Scale, w.cfg.Seed)
	if err != nil {
		return nil, err
	}
	labels := ttl.Build(tt, order.ByNeighborDegree(tt)).Augment()

	dir, err := os.MkdirTemp("", "ptldb-layout") // nothing here is worth caching
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// The array rows store hubs as runs, the form lin and lout store them in.
	arrTypes := []sqltypes.Type{sqltypes.Int64, sqltypes.IntRuns, sqltypes.IntArray, sqltypes.IntArray}
	flatTypes := []sqltypes.Type{sqltypes.Int64, sqltypes.Int64, sqltypes.Int64}
	arr := storage.SegmentData{Cols: typeTags(arrTypes), PKLen: 1}
	flat := storage.SegmentData{Cols: typeTags(flatTypes), PKLen: 2}
	add := func(sd *storage.SegmentData, types []sqltypes.Type, key storage.Key, row sqltypes.Row) error {
		start := len(sd.Data)
		data, err := sqltypes.EncodeSegRow(sd.Data, types, row)
		if err != nil {
			return err
		}
		sd.Keys, sd.Lens, sd.Data = append(sd.Keys, key), append(sd.Lens, uint32(len(data)-start)), data
		return nil
	}
	for v := 0; v < labels.NumStops(); v++ {
		lab := labels.Out[v]
		hubs := make([]int32, len(lab))
		tds := make([]int32, len(lab))
		tas := make([]int32, len(lab))
		for i, tup := range lab {
			hubs[i], tds[i], tas[i] = int32(tup.Hub), int32(tup.Dep), int32(tup.Arr)
			small := sqltypes.Row{sqltypes.NewInt(int64(tup.Hub)), sqltypes.NewInt(int64(tup.Dep)), sqltypes.NewInt(int64(tup.Arr))}
			if err := add(&flat, flatTypes, storage.Key{int64(v), int64(i)}, small); err != nil {
				return nil, err
			}
		}
		row := sqltypes.Row{sqltypes.NewInt(int64(v)),
			sqltypes.NewIntArray(hubs), sqltypes.NewIntArray(tds), sqltypes.NewIntArray(tas)}
		if err := add(&arr, arrTypes, storage.Key{int64(v), 0}, row); err != nil {
			return nil, err
		}
	}

	var clock storage.Clock
	pool := storage.NewPool(65536)
	open := func(name string, sd storage.SegmentData) (*storage.Segment, func(), error) {
		f, err := storage.CreatePagedFile(filepath.Join(dir, name), storage.HDD, &clock)
		if err != nil {
			return nil, nil, err
		}
		pool.Register(f)
		err = storage.AppendSegment(f, sd)
		var seg *storage.Segment
		if err == nil {
			seg, _, err = storage.OpenSegment(f, 0, pool, nil)
		}
		if err != nil {
			f.Close()
			return nil, nil, err
		}
		return seg, func() { f.Close() }, nil
	}
	arrSeg, closeArr, err := open("arr.seg", arr)
	if err != nil {
		return nil, err
	}
	defer closeArr()
	flatSeg, closeFlat, err := open("flat.seg", flat)
	if err != nil {
		return nil, err
	}
	defer closeFlat()

	rng := rand.New(rand.NewSource(w.cfg.Seed))
	n := w.cfg.Queries
	stops := make([]int64, n)
	for i := range stops {
		stops[i] = int64(rng.Intn(labels.NumStops()))
	}

	measure := func(fetch func(v int64) error) (time.Duration, error) {
		pool.DropCaches()
		clock.Reset()
		start := time.Now()
		for _, v := range stops {
			if err := fetch(v); err != nil {
				return 0, err
			}
		}
		return (time.Since(start) + clock.Elapsed()) / time.Duration(n), nil
	}
	readRow := func(seg *storage.Segment, i int, types []sqltypes.Type) error {
		data, err := seg.ReadRow(i, nil)
		if err != nil {
			return err
		}
		_, _, err = sqltypes.DecodeSegRowInto(data, types, nil, nil)
		return err
	}

	arrTime, err := measure(func(v int64) error {
		i, ok := storage.FindFrom(arrSeg.Keys(), 0, storage.Key{v, 0})
		if !ok {
			return fmt.Errorf("array row for %d missing", v)
		}
		return readRow(arrSeg, i, arrTypes)
	})
	if err != nil {
		return nil, err
	}
	flatTime, err := measure(func(v int64) error {
		// Every stop has a tuple 0 (augmented labels hold its dummies).
		i, ok := storage.FindFrom(flatSeg.Keys(), 0, storage.Key{v, 0})
		if !ok {
			return fmt.Errorf("first tuple row for %d missing", v)
		}
		for ; i < flatSeg.NumRows() && flatSeg.Key(i)[0] == v; i++ {
			if err := readRow(flatSeg, i, flatTypes); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	avgLabel := labels.NumTuples() / (2 * labels.NumStops())
	return &Table{
		ID:      "ablation-layout",
		Title:   fmt.Sprintf("row layout: array-per-stop vs tuple-per-row on %s (fetch one stop's L_out, HDD, cold)", city),
		Columns: []string{"layout", "avg fetch", "notes"},
		Rows: [][]string{
			{"array (PTLDB/COLD)", ms(arrTime), fmt.Sprintf("1 directory search + 1 wide row; %d KiB of payload", len(arr.Data)>>10)},
			{"tuple-per-row", ms(flatTime), fmt.Sprintf("1 search + ~%d-entry directory walk + %d small rows; %d KiB of payload", avgLabel, avgLabel, len(flat.Data)>>10)},
		},
		Notes: []string{"Both variants are segments, so both keep a stop's tuples contiguous in key order: what the array columns buy is delta compression and hub runs (fewer pages per label) and one row decode per stop.",
			fmt.Sprintf("array layout %s faster on cold HDD.", speedup(flatTime, arrTime))},
	}, nil
}

// AblationEngine prices the database layer (paper Section 4.1.1): PTLDB
// trades a constant-factor slowdown against the TTL labels queried in memory
// (< 30 us in the paper) for running inside a database. One EA, LD and SD
// workload runs on the Connection Scan Algorithm (a pre-TTL main-memory
// baseline), on the labels in memory, and on PTLDB in two regimes timed apart:
// warm, every table resident, after one untimed pass; and cold, no vector
// cache and the caches dropped before every query, on the simulated SSD and
// HDD. A time is wall clock plus simulated device time per query.
func (w *Workspace) AblationEngine() (*Table, error) {
	city := w.cfg.Cities[0]
	ds, err := w.Dataset(city)
	if err != nil {
		return nil, err
	}
	tt := ds.TT
	labels := ttl.BuildParallel(tt, order.ByNeighborDegree(tt), w.cfg.BuildWorkers).Augment()
	wl := w.NewWorkload(ds, w.cfg.Queries)
	// An engine answers workload entry i of kind k: 0 EA, 1 LD, 2 SD.
	type engine struct {
		name  string
		db    *ptldb.DB // nil in memory
		cold  bool
		query func(k, i int) error
	}
	engines := []engine{
		{name: "Connection Scan (memory)", query: func(k, i int) error {
			switch s, g := wl.Sources[i], wl.Goals[i]; k {
			case 0:
				csa.EarliestArrival(tt, s, g, wl.Starts[i])
			case 1:
				csa.LatestDeparture(tt, s, g, wl.Ends[i])
			default:
				csa.ShortestDuration(tt, s, g, wl.Starts[i], wl.Ends[i])
			}
			return nil
		}},
		{name: "TTL labels (memory)", query: func(k, i int) error {
			switch s, g := wl.Sources[i], wl.Goals[i]; k {
			case 0:
				labels.EarliestArrival(s, g, wl.Starts[i])
			case 1:
				labels.LatestDeparture(s, g, wl.Ends[i])
			default:
				labels.ShortestDuration(s, g, wl.Starts[i], wl.Ends[i])
			}
			return nil
		}},
	}
	for _, e := range []struct {
		name string
		cfg  ptldb.Config
	}{
		{"PTLDB warm (every table resident)", ptldb.Config{Device: "ssd"}},
		{"PTLDB cold per query (SSD sim)", ptldb.Config{Device: "ssd", VectorCacheBytes: -1}},
		{"PTLDB cold per query (HDD sim)", ptldb.Config{Device: "hdd", VectorCacheBytes: -1}},
	} {
		db, err := ptldb.Open(ds.Dir, e.cfg)
		if err != nil {
			return nil, err
		}
		defer db.Close()
		cold := e.cfg.VectorCacheBytes < 0
		// The default budget holds every table of a paper-scale city; the
		// cache admits or declines each table at open.
		if vc := db.Snapshot().VCache; !cold && (vc == nil || vc.Declined > 0) {
			return nil, fmt.Errorf("bench: %s: a table did not fit the vector cache", e.name)
		}
		engines = append(engines, engine{e.name, db, cold, func(k, i int) (err error) {
			switch s, g := wl.Sources[i], wl.Goals[i]; k {
			case 0:
				_, _, err = db.EarliestArrival(s, g, wl.Starts[i])
			case 1:
				_, _, err = db.LatestDeparture(s, g, wl.Ends[i])
			default:
				_, _, err = db.ShortestDuration(s, g, wl.Starts[i], wl.Ends[i])
			}
			return err
		}})
	}

	times := make([][3]time.Duration, len(engines))
	for r, e := range engines {
		for k := range times[r] {
			fn := func(i int) error { return e.query(k, i) }
			if e.cold {
				var c coldCost
				c, err = coldReads(e.db, w.cfg.Queries, fn)
				times[r][k] = c.perQuery
			} else {
				times[r][k], err = warmPass(e.db, w.cfg.Queries, fn)
			}
			if err != nil {
				return nil, err
			}
		}
	}
	ttlTimes := times[1]
	t := &Table{
		ID:      "ablation-engine",
		Title:   fmt.Sprintf("v2v engines on %s: main-memory baselines vs PTLDB warm and cold (us per query)", city),
		Columns: []string{"engine", "EA", "LD", "SD", "EA vs TTL", "LD vs TTL", "SD vs TTL"},
		Notes: []string{
			"The paper cites TTL answering in-memory queries in < 30 us and pre-TTL memory solutions needing a few ms;",
			"PTLDB accepts a constant-factor slowdown for database deployability (Section 4.1.1).",
			"memory and warm rows: one untimed pass, then the timed pass; cold rows: no vector cache, caches dropped before every query.",
		},
	}
	for i, e := range engines {
		row := []string{e.name}
		for _, d := range times[i] {
			row = append(row, fmt.Sprintf("%.1f", float64(d)/float64(time.Microsecond)))
		}
		for k, d := range times[i] {
			row = append(row, speedup(d, ttlTimes[k]))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// warmPass runs fn for queries 0..n-1 once untimed, then times a second pass
// and returns its wall clock plus, on a database (nil in memory), the
// simulated device time it charged, per query.
func warmPass(db *ptldb.DB, n int, fn func(i int) error) (time.Duration, error) {
	pass := func() error {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	if err := pass(); err != nil {
		return 0, err
	}
	if db != nil {
		db.ResetIOClock()
	}
	start := time.Now()
	if err := pass(); err != nil {
		return 0, err
	}
	d := time.Since(start)
	if db != nil {
		st, err := db.Stats()
		if err != nil {
			return 0, err
		}
		d += st.SimulatedIO
	}
	return d / time.Duration(n), nil
}

// typeTags renders column types as a segment header's kind tags.
func typeTags(types []sqltypes.Type) []byte {
	tags := make([]byte, len(types))
	for i, t := range types {
		tags[i] = byte(t)
	}
	return tags
}
