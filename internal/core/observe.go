package core

// observe.go is the store-level half of the observability layer: every public
// query method funnels through observe(), which feeds the per-Code counters
// and latency histograms of the database's obs.Registry and, when a trace
// hook is installed, emits one obs.Trace per successful query. ExplainPrepared
// renders the operator tree a prepared paper query will execute with.

import (
	"slices"
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
// hook itself (see obs.SlowQueryLogger).
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
// target set, sets sorted.
func (s *Store) ExplainNames() []string {
	sets := make([]string, 0, len(s.ver.sets))
	for set := range s.ver.sets {
		sets = append(sets, set)
	}
	sort.Strings(sets)
	out := append([]string(nil), v2vKindNames[:]...)
	for _, set := range sets {
		for _, kind := range setKindNames {
			out = append(out, kind+":"+set)
		}
	}
	return out
}

// ExplainPrepared renders the plan of one of the paper's prepared queries,
// named "<kind>" for the v2v Codes (v2vKindNames) or "<kind>:<set>" for the
// per-target-set Codes (setKindNames). The statement is the query method's
// own entry in the statement table, so the rendered tree is the tree that
// method executes.
func (s *Store) ExplainPrepared(name string) (string, error) {
	kind, set, _ := strings.Cut(name, ":")
	if k := slices.Index(v2vKindNames[:], kind); k >= 0 {
		return s.ver.v2v[k].Explain()
	}
	if set == "" {
		return "", invalidf("explain %q: kind %q needs a target set (\"%s:<set>\")", name, kind, kind)
	}
	e, ok := s.ver.sets[set]
	if !ok {
		return "", invalidf("explain %q: unknown target set %q", name, set)
	}
	k := slices.Index(setKindNames[:], kind)
	if k < 0 {
		return "", invalidf("unknown query kind %q", kind)
	}
	return e.stmts[k].Explain()
}
