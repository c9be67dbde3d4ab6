// Command benchmark is the one harness the repository's performance claims
// rest on: four workloads over the whole PTLDB stack, the same end-to-end
// metrics from each, and a traced run that splits them by layer. See
// README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: embedded_warm, http_closed, http_tenants_open, disk_cold or all")
		seed     = flag.Int64("seed", 1, "seed of the generated requests and arrival schedule")
		seconds  = flag.Int("seconds", 15, "measured seconds per run, cut into five windows")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: the traced run's per-layer metrics")
		spans    = flag.String("spans", "", "with -trace 1: write the spans and counter snapshots to this file")
		out      = flag.String("out", "", "write the result records to this file as JSON")
		tmp      = flag.String("tmp", ".bench_build/tmp", "directory the databases are built under")
		smoke    = flag.Bool("smoke", false, "tiny datasets and half-second windows: exercises every workload and the oracle check")
		compare  = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json as the program's workload and metric tables define it")
	)
	flag.Parse()
	if *manifest {
		if err := writeManifest(os.Stdout, *seconds); err != nil {
			fatal(err)
		}
		return
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if err := os.MkdirAll(*tmp, 0o755); err != nil {
		fatal(err)
	}
	p := params{seed: *seed, seconds: *seconds, setups: 3, colds: 5, tmp: *tmp, spans: *spans}
	p.window = time.Duration(*seconds) * time.Second / windows
	names := []string{*workload}
	if *workload == "all" || (*smoke && *workload == "") {
		names = nil
		for _, d := range workloadDefs {
			names = append(names, d.Name)
		}
	}
	var recs []*record
	correct := true
	for _, name := range names {
		def, err := workloadByName(name)
		if err != nil {
			fatal(err)
		}
		if *smoke {
			def, p = smokeOf(def, p)
		}
		var rec *record
		if *trace == 1 {
			rec, err = tracedRun(def, p)
		} else {
			rec, err = endToEndRun(def, p)
		}
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		recs = append(recs, rec)
		correct = correct && rec.Correct
		printRecord(rec)
	}
	if *out != "" {
		blob, err := json.MarshalIndent(recs, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, append(blob, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	if !correct {
		os.Exit(1)
	}
}

// smokeOf shrinks a workload to a few dozen stops and half-second windows.
func smokeOf(def *workloadDef, p params) (*workloadDef, params) {
	d := *def
	d.Cities = append([]citySpec(nil), def.Cities...)
	for i := range d.Cities {
		d.Cities[i].Scale = 0.02
	}
	d.Requests = 512
	p.seconds, p.window, p.setups, p.colds = 1, 200*time.Millisecond, 1, 1
	return &d, p
}

// printRecord lists every metric by name with its unit, then the one-line
// JSON object the driver reads.
func printRecord(rec *record) {
	names := make([]string, 0, len(rec.Metrics))
	for name := range rec.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("# %s seed=%d trace=%v attempted=%d failed=%d\n", rec.Workload, rec.Seed, rec.Trace, rec.Attempted, rec.Failed)
	if rec.FirstFailure != "" {
		fmt.Printf("# first failure: %s\n", rec.FirstFailure)
	}
	for _, name := range classNames {
		if len(rec.Windows) == 0 {
			break
		}
		fmt.Printf("# %s per window, as measured: tail (p%.1f)", name, rec.Windows[0].Classes[name].TailPct)
		for _, w := range rec.Windows {
			fmt.Printf(" %.1f", w.Classes[name].TailUs)
		}
		fmt.Printf(" us; machine speed")
		for _, w := range rec.Windows {
			fmt.Printf(" %.3f", w.Speed)
		}
		fmt.Println()
	}
	type lineMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]lineMetric `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, map[string]lineMetric{}}
	for _, name := range names {
		m := rec.Metrics[name]
		fmt.Printf("%-42s %16.4f %-6s [%.4f .. %.4f]\n", name, m.Value, m.Unit, m.Min, m.Max)
		line.Metrics[name] = lineMetric{m.Value, m.Unit}
	}
	blob, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", blob)
}

// writeManifest renders the repository's BENCHMARK.json from the tables this
// program reports from, so the two cannot drift apart.
func writeManifest(w io.Writer, runSeconds int) error {
	type entry map[string]any
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []entry  `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
	}{Command: []string{"sh", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds}
	for _, d := range workloadDefs {
		doc.Workloads = append(doc.Workloads, entry{"name": d.Name, "why": d.Why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, entry{"name": m.Name, "unit": m.Unit, "better": m.Better, "bound": m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, entry{"name": m.Name, "unit": m.Unit, "better": m.Better})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}
