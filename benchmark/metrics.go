package main

import (
	"fmt"
	"os/exec"
	"runtime"
	"strings"
)

// metricDef declares one metric: its unit, which direction is better, and
// for an end-to-end metric the share of the baseline by which it may worsen
// before a change counts as a regression. Exact metrics come from
// single-goroutine passes and must repeat bit for bit.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Exact  bool
}

// endToEnd are the metrics a caller of the system sees. Every workload
// reports all of them; BENCHMARK.json carries the same list. The wall-clock
// metrics carry the widest bound the benchmark contract allows: on the 2-vCPU
// sandbox this was written on, the same binary runs a quarter slower for
// minutes at a time (README.md, "Steadiness"), and a tighter bound would
// reject changes for the weather.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "v2v_mid_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "knn_mid_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "otm_mid_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "throughput_qps", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cold_start_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "heap_live_mb", Unit: "MiB", Better: "lower", Bound: 0.15},
	{Name: "disk_bytes_per_tuple", Unit: "B", Better: "lower", Bound: 0.01, Exact: true},
}

// perLayer are the single-layer metrics of the traced run, named
// "<module>.<what>".
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(unit, better string, exact bool, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: unit, Better: better, Exact: exact})
		}
	}
	perClass := func(format string) []string {
		var names []string
		for _, c := range classNames {
			names = append(names, fmt.Sprintf(format, c))
		}
		return names
	}
	add("s", "lower", false, "synth.generate_s", "order.order_s", "ttl.build_s", "ttl.augment_s", "core.load_s", "core.targetset_s")
	add("count", "lower", true, "ttl.tuples_per_stop", "ttl.dummy_tuples")
	add("B", "lower", true, "storage.disk_bytes_heap", "storage.disk_bytes_idx", "storage.disk_bytes_seg")
	add("us", "lower", false, perClass("core.query_us_%s")...)
	add("us", "lower", false, "sqldb.lookup_us_lout", "sqldb.scan_us_knn")
	add("ratio", "higher", false, "sqldb.stmt_cache_hit_ratio")
	add("count", "lower", true, perClass("exec.rows_scanned_per_query_%s")...)
	add("count", "lower", true, perClass("exec.tuples_merged_per_query_%s")...)
	add("ratio", "higher", true, "exec.fused_ratio")
	add("count", "lower", true, "exec.fused_bailouts")
	add("count", "lower", false, perClass("exec.allocs_per_query_%s")...)
	add("B", "lower", false, perClass("exec.alloc_bytes_per_query_%s")...)
	add("ratio", "higher", false, "vcache.hit_ratio")
	add("MiB", "lower", false, "vcache.resident_mb")
	add("count", "lower", false, "vcache.materializations")
	add("ms", "lower", false, "vcache.materialize_ms")
	add("count", "lower", false, "vcache.evictions")
	add("count", "lower", true, perClass("storage.pages_per_query_%s")...)
	add("B", "lower", true, perClass("storage.segment_bytes_per_query_%s")...)
	add("us", "lower", true, perClass("storage.sim_us_per_query_%s_hdd")...)
	add("us", "lower", true, perClass("storage.sim_us_per_query_%s_ssd")...)
	add("us", "lower", false, perClass("storage.wall_us_per_query_%s")...)
	add("ratio", "lower", false, perClass("storage.hdd_over_ssd_%s")...)
	add("ratio", "higher", false, "storage.pool_hit_ratio")
	add("us", "lower", false, perClass("serve.handler_self_us_%s")...)
	add("us", "lower", false, perClass("serve.wire_us_%s")...)
	add("B", "lower", true, perClass("serve.resp_bytes_%s")...)
	add("ratio", "lower", false, "serve.executions_per_request")
	add("ratio", "higher", false, "serve.coalesced_ratio")
	add("count", "lower", false, "serve.rejected", "serve.timeouts")
	add("us", "lower", false, "tenant.acquire_us")
	add("ms", "lower", false, "tenant.open_ms")
	add("count", "lower", false, "tenant.opens", "tenant.closes")
	add("us", "lower", false, perClass("loadgen.%s_p99_us")...)
	add("us", "lower", false, "loadgen.ref_us", "loadgen.late_p99_us")
	add("1/s", "higher", false, "loadgen.offered_qps")
	add("ratio", "lower", false, "loadgen.trace_overhead_ratio")
	return out
}

// metricValue is one reported metric: the median over the windows (or the
// single exact value) with the per-window extremes beside it.
type metricValue struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	Exact  bool    `json:"exact,omitempty"`
}

// windowRecord is one window's sample counts and statistics as measured,
// with the reference kernel's median and the machine speed it implies beside
// them (1 on disk_cold, whose latencies are simulated time).
type windowRecord struct {
	Classes map[string]classStat `json:"classes"`
	OK      int                  `json:"ok"`
	QPS     float64              `json:"qps"`
	RefUs   float64              `json:"ref_us"`
	Speed   float64              `json:"speed"`
}

// record is the result of one run of one workload: what ran, where, on what
// data, with which effective configuration, and every metric by name.
type record struct {
	Schema     int          `json:"schema"`
	Workload   string       `json:"workload"`
	Seed       int64        `json:"seed"`
	Seconds    int          `json:"seconds"`
	Trace      bool         `json:"trace"`
	GitSHA     string       `json:"git_sha"`
	GoVersion  string       `json:"go_version"`
	NumCPU     int          `json:"nproc"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	Config     *workloadDef `json:"config"`
	Datasets   []*dataset   `json:"datasets"`

	Windows      []windowRecord         `json:"windows,omitempty"`
	SetupSeconds []float64              `json:"setup_seconds,omitempty"`
	ColdStartMs  []float64              `json:"cold_start_ms,omitempty"`
	Metrics      map[string]metricValue `json:"metrics"`
	// HookWallUs is the median Config.TraceHook wall time per class in the
	// traced run's direct pass, the cross-check of core.query_us_*.
	HookWallUs map[string]float64 `json:"hook_wall_us,omitempty"`

	Attempted     int            `json:"attempted"`
	Failed        int            `json:"failed"`
	Correct       bool           `json:"correct"`
	FirstFailure  string         `json:"first_failure,omitempty"`
	OracleChecked map[string]int `json:"oracle_checked"`
	// Claim is null: the benchmark's own change claims no gain.
	Claim *string `json:"claim"`
}

func newRecord(def *workloadDef, seed int64, seconds int, trace bool) *record {
	return &record{
		Schema: 1, Workload: def.Name, Seed: seed, Seconds: seconds, Trace: trace,
		GitSHA: gitSHA(), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Config: def, Metrics: map[string]metricValue{}, OracleChecked: map[string]int{},
	}
}

func (r *record) set(defs []metricDef, name string, s spread) {
	for _, d := range defs {
		if d.Name == name {
			r.Metrics[name] = metricValue{Value: s.Median, Unit: d.Unit, Min: s.Min, Max: s.Max, Q1: s.Q1, Q3: s.Q3, Better: d.Better, Bound: d.Bound, Exact: d.Exact}
			return
		}
	}
	panic("benchmark: undeclared metric " + name)
}

// fail counts one failed operation and keeps the first one's description.
func (rec *record) fail(format string, a ...any) {
	rec.Failed++
	if rec.FirstFailure == "" {
		rec.FirstFailure = fmt.Sprintf(format, a...)
	}
}

func one(v float64) spread { return spread{Median: v, Min: v, Max: v, Q1: v, Q3: v} }

// gitSHA names the commit when the benchmark runs inside a git checkout.
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
