package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"ptldb/internal/core"
	"ptldb/internal/order"
	"ptldb/internal/sqldb"
	"ptldb/internal/synth"
	"ptldb/internal/timetable"
	"ptldb/internal/ttl"
)

// datasetSeed fixes the synthetic networks, their target sets and their hot
// stations. The workload seed varies the requests, never the data: a latency
// must not move because a different city was generated.
const datasetSeed = 1

const (
	targetDensity = 0.1
	hotStations   = 8
)

// citySpec names one dataset: a Table 7 profile at a scale.
type citySpec struct {
	Key   string  `json:"key"` // tenant name and directory
	City  string  `json:"city"`
	Scale float64 `json:"scale"`
}

// buildTimes are the spans around the calls of the build pipeline.
type buildTimes struct {
	Generate, Order, Labels, Augment, Load, TargetSet time.Duration
}

func (b *buildTimes) add(o buildTimes) {
	b.Generate += o.Generate
	b.Order += o.Order
	b.Labels += o.Labels
	b.Augment += o.Augment
	b.Load += o.Load
	b.TargetSet += o.TargetSet
}

// dataset is one built city.
type dataset struct {
	Spec          citySpec `json:"spec"`
	Stops         int      `json:"stops"`
	Connections   int      `json:"connections"`
	TuplesPerStop int      `json:"tuples_per_stop"`
	LabelTuples   int      `json:"label_tuples"`
	DummyTuples   int      `json:"dummy_tuples"`
	Targets       int      `json:"targets"`
	// DiskBytes is the database directory's size by file extension.
	DiskBytes map[string]int64 `json:"disk_bytes"`

	dir     string
	tt      *timetable.Timetable
	targets []timetable.StopID
	info    cityInfo
	times   buildTimes
}

// plan generates the network and chooses the target set and hot stations, the
// part of a dataset that request generation and the oracle need.
func plan(spec citySpec) (*dataset, error) {
	p, err := synth.ProfileByName(spec.City)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	tt := synth.Generate(p, synth.Options{Scale: spec.Scale, Seed: datasetSeed})
	ds := &dataset{Spec: spec, Stops: tt.NumStops(), Connections: tt.NumConnections(), tt: tt}
	ds.times.Generate = time.Since(start)

	n := tt.NumStops()
	count := int(targetDensity * float64(n))
	if count < knnK {
		count = knnK
	}
	perm := rand.New(rand.NewSource(datasetSeed)).Perm(n)
	isTarget := make([]bool, n)
	for _, v := range perm[:count] {
		ds.targets = append(ds.targets, timetable.StopID(v))
		isTarget[v] = true
	}
	ds.Targets = count
	ds.info = cityInfo{stops: n, minTime: tt.MinTime(), span: tt.Span()}
	for v := 0; v < n; v++ {
		if !isTarget[v] {
			ds.info.sources = append(ds.info.sources, timetable.StopID(v))
		}
	}
	for _, v := range perm[count:] {
		if len(ds.info.hot) < hotStations {
			ds.info.hot = append(ds.info.hot, timetable.StopID(v))
		}
	}
	return ds, nil
}

// build runs the preprocessing pipeline into dir — vertex order, TTL labels,
// dummy-tuple augmentation, table load, target set — and closes the database,
// timing each call from outside.
func (ds *dataset) build(dir string) error {
	ds.dir = dir
	start := time.Now()
	ord := order.ByNeighborDegree(ds.tt)
	ds.times.Order = time.Since(start)

	start = time.Now()
	labels := ttl.BuildParallel(ds.tt, ord, 0)
	ds.times.Labels = time.Since(start)
	ds.LabelTuples = labels.NumTuples()
	ds.TuplesPerStop = labels.TuplesPerStop()

	start = time.Now()
	labels.Augment()
	ds.times.Augment = time.Since(start)
	ds.DummyTuples = labels.NumDummies()

	start = time.Now()
	sdb, err := sqldb.Open(dir, sqldb.Options{})
	if err != nil {
		return err
	}
	store, err := core.Build(sdb, labels, core.BuildOptions{Stops: ds.tt.Stops()})
	if err == nil {
		err = sdb.Flush()
	}
	ds.times.Load = time.Since(start)
	if err == nil {
		start = time.Now()
		if err = store.AddTargetSet(targetSet, ds.targets, knnK); err == nil {
			err = sdb.Flush()
		}
		ds.times.TargetSet = time.Since(start)
	}
	if cerr := sdb.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("build %s: %w", ds.Spec.Key, err)
	}
	ds.DiskBytes, err = dirBytes(dir)
	return err
}

// dirBytes sums a directory's regular files by extension ("heap", "idx",
// "seg", ...; "other" for the rest).
func dirBytes(dir string) (map[string]int64, error) {
	out := map[string]int64{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			return nil, err
		}
		if !fi.Mode().IsRegular() {
			continue
		}
		ext := filepath.Ext(e.Name())
		if ext == "" {
			ext = ".other"
		}
		out[ext[1:]] += fi.Size()
		out["total"] += fi.Size()
	}
	return out, nil
}
