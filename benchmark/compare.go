package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// verdict compares one metric of two runs. Exact metrics compare exactly.
// A timing is unresolved when the distance between the quartiles of either
// run's own windows exceeds the bound: the run cannot tell a change of that
// size from its own noise. Otherwise b is worse or better when it differs
// from a by more than the bound, and the same when it does not.
func verdict(a, b metricValue) string {
	worse := b.Value > a.Value
	if a.Better == "higher" {
		worse = b.Value < a.Value
	}
	if a.Exact {
		switch {
		case a.Value == b.Value:
			return "same"
		case worse:
			return "worse"
		}
		return "better"
	}
	for _, m := range []metricValue{a, b} {
		if m.Value != 0 && (m.Q3-m.Q1)/m.Value > a.Bound {
			return "unresolved"
		}
	}
	delta := (b.Value - a.Value) / a.Value
	if delta < 0 {
		delta = -delta
	}
	switch {
	case delta <= a.Bound:
		return "same"
	case worse:
		return "worse"
	}
	return "better"
}

func readRecords(path string) (map[string]*record, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []*record
	if err := json.Unmarshal(blob, &recs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]*record{}
	for _, r := range recs {
		out[r.Workload] = r
	}
	return out, nil
}

// compareFiles prints one row per end-to-end metric and workload present in
// both result files — both medians, the ratio with its base, the bound and
// the verdict — and reports whether any row is worse.
func compareFiles(w io.Writer, pathA, pathB string) (anyWorse bool, err error) {
	a, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tunit\ta\tb\tb/a (base a)\tbound\tverdict\n")
	for _, def := range workloadDefs {
		ra, rb := a[def.Name], b[def.Name]
		if ra == nil || rb == nil {
			continue
		}
		for _, m := range endToEnd {
			ma, okA := ra.Metrics[m.Name]
			mb, okB := rb.Metrics[m.Name]
			if !okA || !okB {
				continue
			}
			v := verdict(ma, mb)
			anyWorse = anyWorse || v == "worse"
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4f\t%.4f\t%.4f\t%+.0f%%\t%s\n",
				def.Name, m.Name, m.Unit, ma.Value, mb.Value, mb.Value/ma.Value, ma.Bound*100, v)
		}
	}
	return anyWorse, tw.Flush()
}
