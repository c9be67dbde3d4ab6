package core

// observe.go is the store-level half of the observability layer: every public
// query method records through begin and record, which feed the per-Code
// counters and latency histograms of the database's obs.Registry and, when
// Open was given a trace hook, emit one obs.Trace per successful query.
// ExplainPrepared renders the operator tree a prepared paper query will
// execute with.

import (
	"sort"
	"strings"
	"time"

	"ptldb/internal/obs"
	"ptldb/internal/sqldb/exec"
	"ptldb/internal/sqldb/sqltypes"
)

// mark is the start of one observed query: its wall clock and, when a trace
// hook is installed, the registry's device-read counters.
type mark struct {
	start                       time.Time
	misses, randReads, seqReads uint64
}

// begin marks the start of a query.
func (s *Store) begin() mark {
	var m mark
	if s.hook != nil {
		p := s.DB.Registry().Pool
		m.misses, m.randReads, m.seqReads = p.Misses.Load(), p.RandReads.Load(), p.SeqReads.Load()
	}
	m.start = time.Now()
	return m
}

// record ends the query begun at m, which produced rel and err, and feeds the
// registry: the Code's call count and latency histogram always, and — only
// when a trace hook is installed and the query succeeded — one obs.Trace
// carrying the execution path and the device-read deltas (pages fetched from
// disk on behalf of this query, split into seeks and sequential reads;
// concurrent queries on the same DB inflate them, which is fine for the
// single-stream serving loops it is meant for).
func (s *Store) record(m mark, code obs.Code, fused bool, rel *exec.Relation, err error) (*exec.Relation, error) {
	wall := time.Since(m.start)
	reg := s.DB.Registry()
	q := &reg.Query[code]
	q.Count.Add(1)
	q.Latency.Observe(wall)
	if err != nil {
		return nil, err
	}
	if s.hook != nil {
		s.hook(obs.Trace{
			Code:      code.String(),
			Fused:     fused,
			Rows:      len(rel.Rows),
			Wall:      wall,
			PagesRead: reg.Pool.Misses.Load() - m.misses,
			RandReads: reg.Pool.RandReads.Load() - m.randReads,
			SeqReads:  reg.Pool.SeqReads.Load() - m.seqReads,
		})
	}
	return rel, nil
}

// observe runs the statement of t prepared for code, recorded under code; the
// trace's execution path is the one it compiled to at Prepare.
func (s *Store) observe(t *stmtTable, code obs.Code, params ...sqltypes.Value) (*exec.Relation, error) {
	st := t[code]
	m := s.begin()
	rel, err := st.Query(params...)
	return s.record(m, code, st.Fused(), rel, err)
}

// ExplainNames lists the query names ExplainPrepared accepts under the bound
// version: the names of the four v2v codes plus "<code>:<set>" for each of
// the six codes of every registered target set, sets sorted.
func (s *Store) ExplainNames() []string {
	sets := make([]string, 0, len(s.ver.sets))
	for set := range s.ver.sets {
		sets = append(sets, set)
	}
	sort.Strings(sets)
	out := s.ver.stmts.names(nil, "")
	for _, set := range sets {
		out = s.ver.sets[set].stmts.names(out, ":"+set)
	}
	return out
}

// ExplainPrepared renders the plan of one of the paper's prepared queries,
// named by its code: "<code>" for the v2v codes or "<code>:<set>" for the
// per-target-set codes (ExplainNames lists them). The statement is the query
// method's own entry in the statement table, so the rendered tree is the tree
// that method executes.
func (s *Store) ExplainPrepared(name string) (string, error) {
	kind, set, _ := strings.Cut(name, ":")
	if st := s.ver.stmts.named(kind); st != nil {
		return st.Explain()
	}
	// Ad-hoc SQL has a code but no statement to explain.
	known := false
	for c := obs.Code(0); c < obs.NumCodes; c++ {
		known = known || (c != obs.CodeRaw && c.String() == kind)
	}
	if !known {
		return "", invalidf("explain %q: unknown query kind %q", name, kind)
	}
	if set == "" {
		return "", invalidf("explain %q: kind %q needs a target set (\"%s:<set>\")", name, kind, kind)
	}
	e, ok := s.ver.sets[set]
	if !ok {
		return "", invalidf("explain %q: unknown target set %q", name, set)
	}
	st := e.stmts.named(kind)
	if st == nil {
		return "", invalidf("explain %q: unknown query kind %q", name, kind)
	}
	return st.Explain()
}
