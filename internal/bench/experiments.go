package bench

import (
	"fmt"
	"time"

	"ptldb"
)

// ExperimentIDs lists the runnable experiments in paper order.
var ExperimentIDs = []string{
	"table7", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
	"storage", "ablation-bucket", "ablation-ordering", "ablation-layout",
	"ablation-engine",
}

// Run executes one experiment by id.
func (w *Workspace) Run(id string) (*Table, error) {
	switch id {
	case "table7":
		return w.Table7()
	case "fig2":
		return w.FigV2V("hdd", "fig2", "EA, LD and SD vertex-to-vertex queries on HDD (avg per query)")
	case "fig3":
		return w.Fig3()
	case "fig4":
		return w.FigKNN("hdd", "fig4", "optimized EA/LD-kNN queries on HDD, D=0.01, varying k")
	case "fig5":
		return w.Fig5()
	case "fig6":
		return w.Fig6()
	case "fig7":
		return w.Fig7()
	case "fig8":
		return w.FigKNN("ssd", "fig8", "optimized EA/LD-kNN queries on SSD, D=0.01, varying k")
	case "storage":
		return w.Storage()
	case "ablation-bucket":
		return w.AblationBucket()
	case "ablation-ordering":
		return w.AblationOrdering()
	case "ablation-layout":
		return w.AblationLayout()
	case "ablation-engine":
		return w.AblationEngine()
	default:
		return nil, fmt.Errorf("bench: unknown experiment %q (want one of %v)", id, ExperimentIDs)
	}
}

// Table7 reproduces the dataset-statistics table: graph sizes and TTL
// preprocessing time (plus the paper's published values for comparison).
func (w *Workspace) Table7() (*Table, error) {
	t := &Table{
		ID:    "table7",
		Title: fmt.Sprintf("dataset statistics and TTL preprocessing (scale %.3g)", w.cfg.Scale),
		Columns: []string{"Graph", "|V|", "|E|", "Avg degr.", "|HL|/|V|",
			"dummy %", "Preproc (s)", "paper |HL|/|V|", "paper preproc (s)"},
		Notes: []string{
			"Preprocessing time covers vertex ordering + TTL label construction + dummy augmentation + bulk load.",
			"Paper columns are the published full-scale values (Table 7); ours use synthetic data at the configured scale.",
		},
	}
	for _, city := range w.cfg.Cities {
		ds, err := w.Dataset(city)
		if err != nil {
			return nil, err
		}
		pre, hl, dummy := "-", "-", "-"
		if ds.Preproc.LabelTuples > 0 {
			total := ds.Preproc.OrderTime + ds.Preproc.LabelTime + ds.Preproc.AugmentTime + ds.Preproc.LoadTime
			pre = fmt.Sprintf("%.1f", total.Seconds())
			hl = fmt.Sprintf("%d", ds.Preproc.TuplesPerStop)
			dummy = fmt.Sprintf("%.1f", 100*float64(ds.Preproc.DummyTuples)/
				float64(ds.Preproc.LabelTuples+ds.Preproc.DummyTuples))
		}
		t.Rows = append(t.Rows, []string{
			city,
			fmt.Sprintf("%d", ds.TT.NumStops()),
			fmt.Sprintf("%d", ds.TT.NumConnections()),
			fmt.Sprintf("%d", ds.TT.AvgDegree()),
			hl,
			dummy,
			pre,
			fmt.Sprintf("%d", ds.Profile.PaperTuplesPerStop),
			fmt.Sprintf("%.1f", ds.Profile.PaperPreprocSeconds),
		})
	}
	return t, nil
}

// FigV2V measures EA, LD and SD vertex-to-vertex queries on one device
// (Figure 2 on the HDD; the inner part of Figure 7 on the SSD).
func (w *Workspace) FigV2V(device, id, title string) (*Table, error) {
	t := &Table{
		ID: id, Title: title,
		Columns: []string{"Graph", "EA", "LD", "SD"},
		Notes:   []string{fmt.Sprintf("%d queries per type; cold cache per type; times are CPU + simulated %s device time.", w.cfg.Queries, device)},
	}
	for _, city := range w.cfg.Cities {
		ds, err := w.Dataset(city)
		if err != nil {
			return nil, err
		}
		ea, ld, sd, err := w.v2vTimes(ds, device)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{city, ms(ea), ms(ld), ms(sd)})
	}
	return t, nil
}

func (w *Workspace) v2vTimes(ds *Dataset, device string) (ea, ld, sd time.Duration, err error) {
	db, err := w.Open(ds, device)
	if err != nil {
		return 0, 0, 0, err
	}
	defer db.Close()
	wl := w.NewWorkload(ds, w.cfg.Queries)
	ea, err = MeasureQueries(db, w.cfg.Queries, func(i int) error {
		_, _, err := db.EarliestArrival(wl.Sources[i], wl.Goals[i], wl.Starts[i])
		return err
	})
	if err != nil {
		return 0, 0, 0, err
	}
	ld, err = MeasureQueries(db, w.cfg.Queries, func(i int) error {
		_, _, err := db.LatestDeparture(wl.Sources[i], wl.Goals[i], wl.Ends[i])
		return err
	})
	if err != nil {
		return 0, 0, 0, err
	}
	sd, err = MeasureQueries(db, w.cfg.Queries, func(i int) error {
		_, _, err := db.ShortestDuration(wl.Sources[i], wl.Goals[i], wl.Starts[i], wl.Ends[i])
		return err
	})
	return ea, ld, sd, err
}

// Fig3 compares the optimized kNN queries with the naive Code 2 versions
// for D = 0.01 and varying k, reporting the speedup.
func (w *Workspace) Fig3() (*Table, error) {
	t := &Table{
		ID:    "fig3",
		Title: "speedup of optimized vs naive kNN queries, D=0.01, varying k (HDD)",
		Notes: []string{"Cells are naive-time / optimized-time; k <= 4 served by the kmax=4 tables, larger k by kmax=16.",
			"Naive queries are sampled at most 30 times per cell (they are the slow side of the ratio by design)."},
	}
	t.Columns = []string{"Graph", "dir"}
	for _, k := range Ks {
		t.Columns = append(t.Columns, fmt.Sprintf("k=%d", k))
	}
	for _, city := range w.cfg.Cities {
		ds, err := w.Dataset(city)
		if err != nil {
			return nil, err
		}
		for _, kmax := range knnKMaxes {
			if _, err := w.EnsureTargetSet(ds, 0.01, kmax); err != nil {
				return nil, err
			}
		}
		db, err := w.Open(ds, "hdd")
		if err != nil {
			return nil, err
		}
		wl := w.NewWorkload(ds, w.cfg.Queries)
		eaRow := []string{city, "EA"}
		ldRow := []string{city, "LD"}
		for _, k := range Ks {
			set := setName(0.01, knnKMax(k))
			nq := w.cfg.Queries
			if nq > 30 {
				nq = 30
			}
			naiveEA, err := MeasureQueries(db, nq, func(i int) error {
				_, err := db.EAKNNNaive(set, wl.Sources[i], wl.Starts[i], k)
				return err
			})
			if err != nil {
				db.Close()
				return nil, err
			}
			optEA, err := MeasureQueries(db, w.cfg.Queries, func(i int) error {
				_, err := db.EAKNN(set, wl.Sources[i], wl.Starts[i], k)
				return err
			})
			if err != nil {
				db.Close()
				return nil, err
			}
			naiveLD, err := MeasureQueries(db, nq, func(i int) error {
				_, err := db.LDKNNNaive(set, wl.Sources[i], wl.Ends[i], k)
				return err
			})
			if err != nil {
				db.Close()
				return nil, err
			}
			optLD, err := MeasureQueries(db, w.cfg.Queries, func(i int) error {
				_, err := db.LDKNN(set, wl.Sources[i], wl.Ends[i], k)
				return err
			})
			if err != nil {
				db.Close()
				return nil, err
			}
			eaRow = append(eaRow, speedup(naiveEA, optEA))
			ldRow = append(ldRow, speedup(naiveLD, optLD))
		}
		db.Close()
		t.Rows = append(t.Rows, eaRow, ldRow)
	}
	return t, nil
}

// FigKNN measures absolute optimized kNN times for D = 0.01 and varying k
// (Figure 4 on HDD, Figure 8 on SSD).
func (w *Workspace) FigKNN(device, id, title string) (*Table, error) {
	t := &Table{ID: id, Title: title,
		Notes: []string{fmt.Sprintf("avg per query over %d queries, cold cache per series.", w.cfg.Queries)}}
	t.Columns = []string{"Graph", "dir"}
	for _, k := range Ks {
		t.Columns = append(t.Columns, fmt.Sprintf("k=%d", k))
	}
	for _, city := range w.cfg.Cities {
		ds, err := w.Dataset(city)
		if err != nil {
			return nil, err
		}
		for _, kmax := range knnKMaxes {
			if _, err := w.EnsureTargetSet(ds, 0.01, kmax); err != nil {
				return nil, err
			}
		}
		db, err := w.Open(ds, device)
		if err != nil {
			return nil, err
		}
		wl := w.NewWorkload(ds, w.cfg.Queries)
		eaRow := []string{city, "EA"}
		ldRow := []string{city, "LD"}
		for _, k := range Ks {
			set := setName(0.01, knnKMax(k))
			ea, err := MeasureQueries(db, w.cfg.Queries, func(i int) error {
				_, err := db.EAKNN(set, wl.Sources[i], wl.Starts[i], k)
				return err
			})
			if err != nil {
				db.Close()
				return nil, err
			}
			ld, err := MeasureQueries(db, w.cfg.Queries, func(i int) error {
				_, err := db.LDKNN(set, wl.Sources[i], wl.Ends[i], k)
				return err
			})
			if err != nil {
				db.Close()
				return nil, err
			}
			eaRow = append(eaRow, ms(ea))
			ldRow = append(ldRow, ms(ld))
		}
		db.Close()
		t.Rows = append(t.Rows, eaRow, ldRow)
	}
	return t, nil
}

// Fig5 measures kNN queries for k = 4 and varying target density D (HDD).
func (w *Workspace) Fig5() (*Table, error) {
	return w.densitySweep("fig5", "kNN queries for k=4 and varying density D (HDD)", func(db *ptldb.DB, set string, wl Workload, i int, ea bool) error {
		if ea {
			_, err := db.EAKNN(set, wl.Sources[i], wl.Starts[i], 4)
			return err
		}
		_, err := db.LDKNN(set, wl.Sources[i], wl.Ends[i], 4)
		return err
	})
}

// Fig6 measures the one-to-many queries for varying density D (HDD).
func (w *Workspace) Fig6() (*Table, error) {
	return w.densitySweep("fig6", "EA/LD one-to-many queries for varying density D (HDD)", func(db *ptldb.DB, set string, wl Workload, i int, ea bool) error {
		if ea {
			_, err := db.EAOTM(set, wl.Sources[i], wl.Starts[i])
			return err
		}
		_, err := db.LDOTM(set, wl.Sources[i], wl.Ends[i])
		return err
	})
}

func (w *Workspace) densitySweep(id, title string, query func(db *ptldb.DB, set string, wl Workload, i int, ea bool) error) (*Table, error) {
	t := &Table{ID: id, Title: title,
		Notes: []string{fmt.Sprintf("avg per query over %d queries; kmax=4 tables per density.", w.cfg.Queries)}}
	t.Columns = []string{"Graph", "dir"}
	for _, d := range Densities {
		t.Columns = append(t.Columns, fmt.Sprintf("D=%g", d))
	}
	for _, city := range w.cfg.Cities {
		ds, err := w.Dataset(city)
		if err != nil {
			return nil, err
		}
		for _, d := range Densities {
			if _, err := w.EnsureTargetSet(ds, d, 4); err != nil {
				return nil, err
			}
		}
		db, err := w.Open(ds, "hdd")
		if err != nil {
			return nil, err
		}
		wl := w.NewWorkload(ds, w.cfg.Queries)
		eaRow := []string{city, "EA"}
		ldRow := []string{city, "LD"}
		for _, d := range Densities {
			set := setName(d, 4)
			ea, err := MeasureQueries(db, w.cfg.Queries, func(i int) error {
				return query(db, set, wl, i, true)
			})
			if err != nil {
				db.Close()
				return nil, err
			}
			ld, err := MeasureQueries(db, w.cfg.Queries, func(i int) error {
				return query(db, set, wl, i, false)
			})
			if err != nil {
				db.Close()
				return nil, err
			}
			eaRow = append(eaRow, ms(ea))
			ldRow = append(ldRow, ms(ld))
		}
		db.Close()
		t.Rows = append(t.Rows, eaRow, ldRow)
	}
	return t, nil
}

// Fig7 measures vertex-to-vertex queries on the SSD and reports the speedup
// over the HDD times.
func (w *Workspace) Fig7() (*Table, error) {
	t := &Table{
		ID:    "fig7",
		Title: "EA, LD and SD vertex-to-vertex queries on SSD (and speedup over HDD)",
		Columns: []string{"Graph", "EA", "LD", "SD",
			"EA vs HDD", "LD vs HDD", "SD vs HDD"},
		Notes: []string{"The paper reports 3-20x (EA), 6-17x (LD), 3-19x (SD) SSD speedups."},
	}
	for _, city := range w.cfg.Cities {
		ds, err := w.Dataset(city)
		if err != nil {
			return nil, err
		}
		hddEA, hddLD, hddSD, err := w.v2vTimes(ds, "hdd")
		if err != nil {
			return nil, err
		}
		ssdEA, ssdLD, ssdSD, err := w.v2vTimes(ds, "ssd")
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{city,
			ms(ssdEA), ms(ssdLD), ms(ssdSD),
			speedup(hddEA, ssdEA), speedup(hddLD, ssdLD), speedup(hddSD, ssdSD)})
	}
	return t, nil
}

// Storage reports the on-disk footprint per dataset (paper Section 4.3: all
// tables for all densities and kmax values fit in 12 GB). Before it measures
// it builds every target set the figures read — each D of Densities at
// kmax=4, and D=0.01 at each kmax of knnKMaxes — so its bytes do not depend on
// which experiments ran before it.
func (w *Workspace) Storage() (*Table, error) {
	t := &Table{
		ID:      "storage",
		Title:   "database size on disk (labels, stops, every D at kmax=4 and D=0.01 at kmax=16)",
		Columns: []string{"Graph", "bytes", "MiB", "rows lout", "label tuples/stop"},
	}
	var total int64
	for _, city := range w.cfg.Cities {
		ds, err := w.Dataset(city)
		if err != nil {
			return nil, err
		}
		for _, d := range Densities {
			if _, err := w.EnsureTargetSet(ds, d, 4); err != nil {
				return nil, err
			}
		}
		for _, kmax := range knnKMaxes {
			if _, err := w.EnsureTargetSet(ds, 0.01, kmax); err != nil {
				return nil, err
			}
		}
		db, err := w.Open(ds, "ram")
		if err != nil {
			return nil, err
		}
		st, err := db.Stats()
		if err != nil {
			db.Close()
			return nil, err
		}
		tps := "-"
		if ds.Preproc.TuplesPerStop > 0 {
			tps = fmt.Sprintf("%d", ds.Preproc.TuplesPerStop)
		}
		t.Rows = append(t.Rows, []string{city,
			fmt.Sprintf("%d", st.SizeOnDisk),
			fmt.Sprintf("%.1f", float64(st.SizeOnDisk)/(1<<20)),
			fmt.Sprintf("%d", ds.TT.NumStops()),
			tps,
		})
		total += st.SizeOnDisk
		db.Close()
	}
	t.Notes = append(t.Notes, fmt.Sprintf("Total across datasets: %.1f MiB.", float64(total)/(1<<20)))
	return t, nil
}
