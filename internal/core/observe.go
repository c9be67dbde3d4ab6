package core

// observe.go is the store-level half of the observability layer: every public
// query method funnels through observe(), which feeds the per-Code counters
// and latency histograms of the database's obs.Registry and, when a trace
// hook is installed, emits one obs.Trace per successful query. ExplainPrepared
// renders the operator tree a prepared paper query will execute with.

import (
	"sort"
	"strings"
	"time"

	"ptldb/internal/obs"
	"ptldb/internal/sqldb"
	"ptldb/internal/sqldb/exec"
	"ptldb/internal/sqldb/sqltypes"
)

// SetTraceHook installs fn to receive one obs.Trace per successful query
// method call (the paper Codes plus Raw). A nil fn disables tracing. The hook
// runs synchronously on the querying goroutine, so it must be cheap and
// must not call back into the store; fan-out or buffering belongs in the
// hook itself (see obs.SlowQueryLogger and obs.Aggregator).
//
// Version views share the hook installed at the time Version was called;
// installing a hook afterwards only affects the receiver.
func (s *Store) SetTraceHook(fn func(obs.Trace)) { s.traceHook = fn }

// ioMark is the registry's device and cache counters at the start of a traced
// query; since fills a trace with their movement.
type ioMark struct {
	misses, randReads, seqReads, vhits uint64
}

func markIO(reg *obs.Registry) ioMark {
	m := ioMark{
		misses:    reg.Pool.Misses.Load(),
		randReads: reg.Pool.RandReads.Load(),
		seqReads:  reg.Pool.SeqReads.Load(),
	}
	if reg.VCache != nil {
		m.vhits = reg.VCache.Hits.Load()
	}
	return m
}

func (m ioMark) since(reg *obs.Registry, tr *obs.Trace) {
	tr.PagesRead = reg.Pool.Misses.Load() - m.misses
	tr.RandReads = reg.Pool.RandReads.Load() - m.randReads
	tr.SeqReads = reg.Pool.SeqReads.Load() - m.seqReads
	if reg.VCache != nil {
		tr.VCacheHits = reg.VCache.Hits.Load() - m.vhits
	}
}

// observe runs st and feeds the registry: the Code's call count and latency
// histogram always, and — only when a trace hook is installed — one
// obs.Trace carrying the execution path and the device-read deltas (pages
// fetched from disk on behalf of this query, split into seeks and sequential
// reads; concurrent queries on the same DB inflate them, which is fine for
// the single-stream serving loops it is meant for).
func (s *Store) observe(code obs.Code, st *sqldb.Stmt, params ...sqltypes.Value) (*exec.Relation, error) {
	reg := s.DB.Registry()
	var before ioMark
	if s.traceHook != nil {
		before = markIO(reg)
	}
	start := time.Now()
	rel, info, err := st.QueryInfo(params...)
	wall := time.Since(start)
	q := &reg.Query[code]
	q.Count.Add(1)
	q.Latency.Observe(wall)
	if err != nil {
		return nil, err
	}
	if s.traceHook != nil {
		tr := obs.Trace{
			Code:  code.String(),
			Fused: info.Fused,
			Rows:  len(rel.Rows),
			Wall:  wall,
		}
		before.since(reg, &tr)
		s.traceHook(tr)
	}
	return rel, nil
}

// observeRaw is observe for ad-hoc SQL running outside the prepared-statement
// path (Raw/RawTraced): same counters under obs.CodeRaw, never fused.
func (s *Store) observeRaw(run func() (*exec.Relation, error)) (*exec.Relation, error) {
	reg := s.DB.Registry()
	var before ioMark
	if s.traceHook != nil {
		before = markIO(reg)
	}
	start := time.Now()
	rel, err := run()
	wall := time.Since(start)
	q := &reg.Query[obs.CodeRaw]
	q.Count.Add(1)
	q.Latency.Observe(wall)
	if err != nil {
		return nil, err
	}
	if s.traceHook != nil {
		tr := obs.Trace{Code: obs.CodeRaw.String(), Rows: len(rel.Rows), Wall: wall}
		before.since(reg, &tr)
		s.traceHook(tr)
	}
	return rel, nil
}

// ExplainNames lists the query names ExplainPrepared accepts under the bound
// version: the four v2v kinds plus "<kind>:<set>" for every registered
// target set.
func (s *Store) ExplainNames() []string {
	out := []string{"v2v-ea", "v2v-ld", "v2v-sd", "v2v-ea-witness"}
	for _, set := range s.targetSetNames() {
		for _, kind := range setKinds {
			out = append(out, kind+":"+set)
		}
	}
	return out
}

// ExplainPrepared renders the plan of one of the paper's prepared queries,
// named "<kind>" for the v2v Codes ("v2v-ea", "v2v-ld", "v2v-sd",
// "v2v-ea-witness") or "<kind>:<set>" for the per-target-set Codes
// (setKinds). The statement comes from setStmt, as the query method's does,
// so the rendered tree is the tree that method executes.
func (s *Store) ExplainPrepared(name string) (string, error) {
	kind, set := name, ""
	if i := strings.IndexByte(name, ':'); i >= 0 {
		kind, set = name[:i], name[i+1:]
	}
	switch kind {
	case "v2v-ea":
		return s.v2vEA.Explain()
	case "v2v-ld":
		return s.v2vLD.Explain()
	case "v2v-sd":
		return s.v2vSD.Explain()
	case "v2v-ea-witness":
		return s.v2vWitness.Explain()
	}
	if set == "" {
		return "", invalidf("explain %q: kind %q needs a target set (\"%s:<set>\")", name, kind, kind)
	}
	if _, ok := s.vm().TargetSets[set]; !ok {
		return "", invalidf("explain %q: unknown target set %q", name, set)
	}
	st, err := s.setStmt(kind, set)
	if err != nil {
		return "", err
	}
	return st.Explain()
}

// targetSetNames returns the bound version's target-set names, sorted.
func (s *Store) targetSetNames() []string {
	sets := s.vm().TargetSets
	out := make([]string, 0, len(sets))
	for name := range sets {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
