package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"
)

const (
	// windows is how many measurement windows a run is cut into; a timing
	// metric is the median of the per-window statistic.
	windows = 5
	// oraclePerKind is how many requests of each query type and dataset are
	// checked against the CSA oracle.
	oraclePerKind = 100
)

// params are the knobs of one invocation.
type params struct {
	seed    int64
	seconds int
	// window is the length of one measurement window: seconds / windows.
	window time.Duration
	// setups is how often the set-up is repeated for the setup_s median.
	setups int
	// colds is how many cold starts make the cold_start_ms median.
	colds int
	tmp   string
	spans string // file the traced run writes its spans to
}

// repeatedSetup sets the workload up p.setups times into fresh directories
// and keeps the last; the calibrated times of all are returned.
func repeatedSetup(def *workloadDef, reqs []request, p params, tr *tracer, hook hookFunc) (*env, []float64, error) {
	var times []float64
	for i := 0; ; i++ {
		dir, err := os.MkdirTemp(p.tmp, def.Name+"-")
		if err != nil {
			return nil, nil, err
		}
		var e *env
		speed := calibrated(func() { e, err = setup(def, reqs, dir, tr, hook) })
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w (%v)", err, os.RemoveAll(dir))
		}
		times = append(times, e.setupNs.Seconds()*speed)
		if i == p.setups-1 {
			return e, times, nil
		}
		if err := e.close(); err != nil {
			return nil, nil, err
		}
		if err := e.removeData(); err != nil {
			return nil, nil, err
		}
	}
}

// checkOracle compares the warm-up answers of the first oraclePerKind
// requests of every kind and city with the CSA oracle. Every later occurrence
// of a request is compared with its warm-up answer, so a request that passes
// here is oracle-checked each time it is sent. Where the workload's list has
// fewer than oraclePerKind requests of a kind, extra ones are drawn from the
// seed and checked once on the direct handle.
func (e *env) checkOracle(rec *record, seed int64) {
	check := func(o *oracle, r request, got answer) {
		rec.Attempted++
		rec.OracleChecked[e.def.Cities[r.City].Key+"."+kindNames[r.Kind]]++
		if err := o.check(r, got); err != nil {
			rec.fail("oracle: %s %+v: %v", kindNames[r.Kind], r, err)
		}
	}
	oracles := make([]*oracle, len(e.data))
	seen := make([][numKinds]int, len(e.data))
	for c, ds := range e.data {
		oracles[c] = newOracle(ds)
	}
	for i, r := range e.reqs {
		if seen[r.City][r.Kind] < oraclePerKind {
			seen[r.City][r.Kind]++
			check(oracles[r.City], r, e.want[i])
		}
	}
	for c, ds := range e.data {
		d := newDrawer(rand.New(rand.NewSource(seed^int64(c+1)<<40)), ds.info, uint8(c))
		for k := kind(0); k < numKinds; k++ {
			for ; seen[c][k] < oraclePerKind; seen[c][k]++ {
				r := d.draw(k)
				got, err := ask(e.stores[c], r)
				if err != nil {
					rec.fail("oracle: %s %+v: %v", kindNames[k], r, err)
				}
				check(oracles[c], r, got)
			}
		}
	}
	// The timetables served the oracle; letting them go keeps them out of
	// heap_live_mb.
	for _, ds := range e.data {
		ds.tt = nil
	}
}

// summarizeWindows turns samples into per-window statistics. The machine
// speed of a window comes from the reference timings taken inside it; a cold
// run's latencies are simulated device time and stay as measured.
func summarizeWindows(out runOut, cold bool) []windowRecord {
	recs := make([]windowRecord, len(out.windows))
	for w := range out.windows {
		win := &out.windows[w]
		recs[w] = windowRecord{Classes: map[string]classStat{}, OK: win.ok, QPS: float64(win.ok) / win.busy.Seconds(),
			RefUs: usMedian(win.ref), Speed: 1}
		if !cold {
			recs[w].Speed = speedOf(win.ref)
		}
		for c, name := range classNames {
			recs[w].Classes[name] = summarize(win.lat[c])
		}
	}
	return recs
}

// calibratedSpreads reduces the windows to the median, minimum and maximum of
// each class's calibrated midmean and of the throughput. A closed loop's
// throughput follows the machine's speed and is calibrated too; an open
// loop's is the arrival rate.
func calibratedSpreads(recs []windowRecord, openLoop bool) (mid [numClasses]spread, qps spread) {
	var q []float64
	for c, name := range classNames {
		var a []float64
		for _, r := range recs {
			if st := r.Classes[name]; st.N > 0 {
				a = append(a, st.MidUs*r.Speed)
			}
		}
		mid[c] = spreadOf(a)
	}
	for _, r := range recs {
		if openLoop {
			q = append(q, r.QPS)
		} else {
			q = append(q, r.QPS/r.Speed)
		}
	}
	return mid, spreadOf(q)
}

func (rec *record) absorb(out runOut) {
	rec.Attempted += out.attempted
	rec.Failed += out.failed
	if rec.FirstFailure == "" {
		rec.FirstFailure = out.firstFail
	}
}

// phaseLog returns a function that reports on standard error how long the
// phase just ended took.
func phaseLog(workload string) func(name string) {
	last := time.Now()
	return func(name string) {
		fmt.Fprintf(os.Stderr, "# %s: %s took %.1f s\n", workload, name, time.Since(last).Seconds())
		last = time.Now()
	}
}

// heapLiveMiB is the heap in use after a forced collection, without the
// reference kernel's data.
func heapLiveMiB() float64 {
	dropRefData()
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}

// endToEndRun measures the workload with tracing off and fills every
// end-to-end metric.
func endToEndRun(def *workloadDef, p params) (*record, error) {
	rec := newRecord(def, p.seed, p.seconds, false)
	reqs, err := def.generate(p.seed)
	if err != nil {
		return nil, err
	}
	phase := phaseLog(def.Name)
	e, setups, err := repeatedSetup(def, reqs, p, nil, nil)
	if err != nil {
		return nil, err
	}
	defer e.discard()
	phase("set-up")
	rec.Datasets, rec.SetupSeconds = e.data, setups
	rec.set(endToEnd, "setup_s", spreadOf(setups))
	rec.set(endToEnd, "disk_bytes_per_tuple", one(e.diskBytesPerTuple()))
	e.checkOracle(rec, p.seed)
	phase("oracle")

	out := e.run(p.seed, windows, p.window)
	phase("run")
	rec.absorb(out)
	rec.Windows = summarizeWindows(out, def.Driver == drvDiskCold)
	mid, qps := calibratedSpreads(rec.Windows, out.offered > 0)
	out = runOut{}
	for c, name := range classNames {
		rec.set(endToEnd, name+"_mid_us", mid[c])
	}
	rec.set(endToEnd, "throughput_qps", qps)
	rec.set(endToEnd, "heap_live_mb", one(heapLiveMiB()))

	if err := e.close(); err != nil {
		return nil, err
	}
	for i := 0; i < p.colds; i++ {
		var wall, sim time.Duration
		speed := calibrated(func() { wall, sim, err = e.coldStart() })
		rec.Attempted++
		if err != nil {
			rec.fail("%v", err)
		}
		rec.ColdStartMs = append(rec.ColdStartMs, (float64(wall)*speed+float64(sim))/1e6)
	}
	rec.set(endToEnd, "cold_start_ms", spreadOf(rec.ColdStartMs))
	phase("cold starts")
	rec.Correct = rec.Failed == 0
	return rec, nil
}
