package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5, 0.5}, {19, 0.5}, {20, 0.5}, {100, 0.9}, {400, 0.975}, {1000, 0.99}, {100000, 0.99},
	} {
		got := tailPercentile(tc.n)
		if math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
		if tc.n >= 20 {
			if beyond := float64(tc.n) * (1 - got); beyond < 10-1e-9 {
				t.Errorf("tailPercentile(%d) = %v leaves %.2f samples beyond it, want at least 10", tc.n, got, beyond)
			}
		}
	}
}

func TestPercentileAndSpread(t *testing.T) {
	sorted := []int64{10, 20, 30, 40, 50}
	for p, want := range map[float64]float64{0: 10, 0.5: 30, 0.25: 20, 0.875: 45, 1: 50} {
		if got := percentile(sorted, p); got != want {
			t.Errorf("percentile(%v) = %v, want %v", p, got, want)
		}
	}
	// The quartiles of 1..10 under Python's statistics.quantiles(n=4).
	s := spreadOf([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	want := spread{Median: 5.5, Min: 1, Max: 10, Q1: 2.75, Q3: 8.25}
	if s != want {
		t.Errorf("spreadOf(1..10) = %+v, want %+v", s, want)
	}
	st := summarize([]int64{3000, 1000, 2000})
	if st.N != 3 || st.P50us != 2 || st.TailPct != 50 {
		t.Errorf("summarize = %+v", st)
	}
}

// The midmean must move smoothly where the median jumps between two clusters,
// and calibration must scale wall-clock statistics by the machine's speed —
// but not an open loop's throughput, which is the arrival rate.
func TestMidmeanAndCalibration(t *testing.T) {
	sample := func(low int) []int64 {
		var ns []int64
		for i := 0; i < 100; i++ {
			v := int64(50000)
			if i < low {
				v = 38000
			}
			ns = append(ns, v)
		}
		return ns
	}
	a, b := summarize(sample(49)), summarize(sample(51))
	if a.P50us == b.P50us {
		t.Fatalf("the median was expected to flip: %v %v", a.P50us, b.P50us)
	}
	if d := a.MidUs - b.MidUs; d < 0 || d > 0.5 {
		t.Errorf("midmean moved by %v us between 49 and 51 fast samples of 100, want a small step", d)
	}
	if got := speedOf([]int64{25000, 25000, 25000}); math.Abs(got-0.8) > 1e-9 {
		t.Errorf("speedOf(25 us) = %v, want 0.8", got)
	}
	recs := []windowRecord{{Classes: map[string]classStat{"v2v": {N: 100, MidUs: 50}}, QPS: 800, Speed: 0.8}}
	mid, qps := calibratedSpreads(recs, false)
	if mid[cV2V].Median != 40 || qps.Median != 1000 {
		t.Errorf("closed loop: calibrated midmean %v and throughput %v, want 40 and 1000", mid[cV2V].Median, qps.Median)
	}
	if _, qps := calibratedSpreads(recs, true); qps.Median != 800 {
		t.Errorf("open loop: throughput %v, want 800 as measured", qps.Median)
	}
}

func TestRequestsFollowSeed(t *testing.T) {
	for _, def := range workloadDefs {
		small, _ := smokeOf(&def, params{})
		a, err := small.generate(1)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := small.generate(1)
		c, _ := small.generate(2)
		enc := func(reqs []request) []byte {
			blob, err := json.Marshal(reqs)
			if err != nil {
				t.Fatal(err)
			}
			return blob
		}
		if !bytes.Equal(enc(a), enc(b)) {
			t.Errorf("%s: the same seed gave two request lists", def.Name)
		}
		if bytes.Equal(enc(a), enc(c)) {
			t.Errorf("%s: seeds 1 and 2 gave the same request list", def.Name)
		}
		counts := map[class]int{}
		for _, r := range a {
			counts[r.Kind.class()]++
			if r.Kind.class() == cV2V && r.From == r.To {
				t.Errorf("%s: v2v request from a stop to itself: %+v", def.Name, r)
			}
		}
		wantV2V := len(a) * 6 / 10
		if def.Boards {
			wantV2V = len(a) * 2 / 10
		}
		if d := counts[cV2V] - wantV2V; d < -1 || d > 1 {
			t.Errorf("%s: %d of %d requests are v2v, want %d", def.Name, counts[cV2V], len(a), wantV2V)
		}
	}
	if reflect.DeepEqual(schedule(1, 500, time.Second), schedule(2, 500, time.Second)) {
		t.Error("seeds 1 and 2 gave the same arrival schedule")
	}
	if n := len(schedule(1, 500, 10*time.Second)); n < 4500 || n > 5500 {
		t.Errorf("500 req/s for 10 s scheduled %d requests", n)
	}
}

// A slow first request must be charged to the requests that fell due while
// it ran: their latency counts from the due time, and their late send is not
// blamed on the generator because no connection was free.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const slow = 30 * time.Millisecond
	due := []time.Duration{5 * time.Millisecond, 10 * time.Millisecond, 15 * time.Millisecond}
	sent, done, free := openLoop(time.Now(), due, 1, func(_, n int) {
		if n == 0 {
			time.Sleep(slow)
		}
	})
	if !free[0] || free[1] || free[2] {
		t.Errorf("free = %v, want only the first request to find the connection free", free)
	}
	if late := sent[0] - due[0]; late < 0 || late > 5*time.Millisecond {
		t.Errorf("first request sent %v after its due time", late)
	}
	for n := 1; n < len(due); n++ {
		if sent[n] < due[0]+slow {
			t.Errorf("request %d sent at %v, before the slow one finished", n, sent[n])
		}
		if lat := done[n] - due[n]; lat < due[0]+slow-due[n] {
			t.Errorf("request %d latency from due time is %v, want at least %v", n, lat, due[0]+slow-due[n])
		}
	}
}

func TestRecordRoundTrip(t *testing.T) {
	def := &workloadDefs[0]
	rec := newRecord(def, 7, 15, false)
	rec.Datasets = []*dataset{{Spec: def.Cities[0], Stops: 300, DiskBytes: map[string]int64{"seg": 1}}}
	rec.Windows = []windowRecord{{Classes: map[string]classStat{"v2v": {N: 1200, P50us: 20.5, TailUs: 88.25, TailPct: 99}}, OK: 1200, QPS: 400.5}}
	for _, m := range endToEnd {
		rec.set(endToEnd, m.Name, spreadOf([]float64{1.5, 2.5, 4}))
	}
	rec.Attempted, rec.Correct = 1200, true
	blob, err := json.Marshal([]*record{rec})
	if err != nil {
		t.Fatal(err)
	}
	var back []*record
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back[0], rec) {
		t.Errorf("record changed in a JSON round trip:\n got %+v\nwant %+v", back[0], rec)
	}
	if !bytes.Contains(blob, []byte(`"claim":null`)) {
		t.Error(`record lacks "claim":null`)
	}
	var generic map[string]any
	if err := json.Unmarshal(blob[1:len(blob)-1], &generic); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"schema", "workload", "seed", "git_sha", "go_version", "nproc", "gomaxprocs", "config", "datasets", "windows", "metrics", "attempted", "failed", "correct"} {
		if _, ok := generic[key]; !ok {
			t.Errorf("record lacks %q", key)
		}
	}
}

func TestVerdict(t *testing.T) {
	timing := func(v, q1, q3 float64) metricValue {
		return metricValue{Value: v, Q1: q1, Q3: q3, Better: "lower", Bound: 0.10}
	}
	for _, tc := range []struct {
		a, b metricValue
		want string
	}{
		{timing(100, 99, 101), timing(105, 104, 106), "same"},
		{timing(100, 99, 101), timing(115, 114, 116), "worse"},
		{timing(100, 99, 101), timing(85, 84, 86), "better"},
		{timing(100, 90, 105), timing(130, 129, 131), "unresolved"},
		{metricValue{Value: 400, Better: "higher", Bound: 0.1}, metricValue{Value: 300, Better: "higher", Bound: 0.1}, "worse"},
		{metricValue{Value: 16.5, Better: "lower", Exact: true}, metricValue{Value: 16.5, Better: "lower", Exact: true}, "same"},
		{metricValue{Value: 16.5, Better: "lower", Exact: true}, metricValue{Value: 16.6, Better: "lower", Exact: true}, "worse"},
	} {
		if got := verdict(tc.a, tc.b); got != tc.want {
			t.Errorf("verdict(%v, %v) = %s, want %s", tc.a.Value, tc.b.Value, got, tc.want)
		}
	}
}

// The smoke path: every workload end to end and traced on a few dozen stops,
// with the oracle check, the warm-up body check and the per-layer predictions.
func TestSmoke(t *testing.T) {
	tmp := t.TempDir()
	var all []*record
	for i := range workloadDefs {
		def, p := smokeOf(&workloadDefs[i], params{seed: 1, tmp: tmp, spans: filepath.Join(tmp, "spans.json")})
		p.window = 100 * time.Millisecond
		rec, err := endToEndRun(def, p)
		if err != nil {
			t.Fatalf("%s: %v", def.Name, err)
		}
		all = append(all, rec)
		if !rec.Correct || rec.Failed != 0 {
			t.Errorf("%s: %d of %d failed: %s", def.Name, rec.Failed, rec.Attempted, rec.FirstFailure)
		}
		if len(rec.OracleChecked) != len(def.Cities)*int(numKinds) {
			t.Errorf("%s: oracle checked %v", def.Name, rec.OracleChecked)
		}
		for _, n := range rec.OracleChecked {
			if n < oraclePerKind {
				t.Errorf("%s: oracle checked %v", def.Name, rec.OracleChecked)
				break
			}
		}
		for _, m := range endToEnd {
			if v, ok := rec.Metrics[m.Name]; !ok || v.Value <= 0 || v.Unit != m.Unit {
				t.Errorf("%s: end-to-end metric %s = %+v", def.Name, m.Name, v)
			}
		}

		tr, err := tracedRun(def, p)
		if err != nil {
			t.Fatalf("%s traced: %v", def.Name, err)
		}
		if !tr.Correct {
			t.Errorf("%s traced: %d failed: %s", def.Name, tr.Failed, tr.FirstFailure)
		}
		for _, m := range perLayer {
			if _, ok := tr.Metrics[m.Name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", def.Name, m.Name)
			}
		}
		if v := tr.Metrics["exec.fused_bailouts"].Value; v != 0 {
			t.Errorf("%s: %v fused bailouts", def.Name, v)
		}
		warm := def.Driver != drvDiskCold
		if pages := tr.Metrics["storage.pages_per_query_v2v"].Value; warm != (pages == 0) {
			t.Errorf("%s: %v pages per v2v query", def.Name, pages)
		}
		if hit := tr.Metrics["vcache.hit_ratio"].Value; warm != (hit == 1) {
			t.Errorf("%s: vcache hit ratio %v", def.Name, hit)
		}
		if self := tr.Metrics["serve.handler_self_us_v2v"].Value; (self > 0) != (def.Clients > 0) {
			t.Errorf("%s: handler self time %v", def.Name, self)
		}
		if blob, err := os.ReadFile(p.spans); err != nil || !bytes.Contains(blob, []byte(spanQuery)) {
			t.Errorf("%s: spans file: %v", def.Name, err)
		}
	}
	path := filepath.Join(tmp, "all.json")
	blob, _ := json.Marshal(all)
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	var table bytes.Buffer
	worse, err := compareFiles(&table, path, path)
	if err != nil || worse {
		t.Errorf("comparing a run with itself: worse=%v err=%v", worse, err)
	}
	if rows := strings.Count(table.String(), "\n"); rows != 1+len(workloadDefs)*len(endToEnd) {
		t.Errorf("compare printed %d lines:\n%s", rows, table.String())
	}
}

// The benchmark must keep working when the ablation knobs and the old
// experiment harness are deleted: it neither imports internal/bench nor sets
// a Disable* option.
func TestStaysOffAblationKnobs(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	banned := regexp.MustCompile(`"ptldb/internal/bench"|\bDisable(FusedExec|Segments|VectorCache|Coalescing)\b`)
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if m := banned.Find(src); m != nil {
			t.Errorf("%s uses %s", f, m)
		}
	}
}

// BENCHMARK.json at the root of the repository must be what -manifest prints:
// exactly the workloads and metrics the program reports.
func TestManifestMatchesProgram(t *testing.T) {
	have, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip(err)
	}
	var want bytes.Buffer
	if err := writeManifest(&want, 15); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(have, want.Bytes()) {
		t.Error("BENCHMARK.json differs from `go run . -manifest`; regenerate it")
	}
}
