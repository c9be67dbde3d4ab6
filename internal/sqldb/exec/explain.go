package exec

// explain.go renders a FusedPlan as a human-readable operator tree — the
// EXPLAIN counterpart of fused_exec.go. The output is deterministic (plans
// are immutable after Fuse; the catalog adds only what the label tables
// declare), so tests pin it with golden strings.

import (
	"fmt"
	"strings"

	"ptldb/internal/sqldb/sql"
)

// Explain renders the fused operator tree: one line per operator, children
// indented under their parent, parameters shown as $n exactly as they were
// bound in the recognized SQL. The rendering reflects how fused_exec.go
// evaluates the plan against cat, not the SQL's syntactic join order.
func (p *FusedPlan) Explain(cat Catalog) string {
	var b strings.Builder
	fmt.Fprintf(&b, "FusedPlan %s\n", p.kind)
	switch {
	case p.v2v != nil:
		p.explainV2V(&b, cat)
	case p.knn != nil:
		p.explainKNNNaive(&b)
	case p.cond != nil:
		p.explainCondensed(&b)
	}
	return b.String()
}

// Access-path operator names: label tables are columnar segments (directory
// binary search + payload pages), served from resident decoded column
// vectors on handles with a vector cache. The operator semantics are
// identical; the name records which tier serves the rows (the Vector* names
// describe the warm steady state — a cold or evicted table still falls
// through to the segment at runtime).
func (p *FusedPlan) tier() string {
	if p.vectors {
		return "Vector"
	}
	return "Segment"
}

func (p *FusedPlan) lookupOp() string { return p.tier() + "Lookup" }
func (p *FusedPlan) scanOp() string   { return p.tier() + "Scan" }
func (p *FusedPlan) probeOp() string  { return p.tier() + "Probe" }

func (p *FusedPlan) explainV2V(b *strings.Builder, cat Catalog) {
	f := p.v2v
	switch f.op {
	case 'E':
		fmt.Fprintf(b, "└─ Aggregate MIN(in.ta)\n")
	case 'L':
		fmt.Fprintf(b, "└─ Aggregate MAX(out.td)\n")
	case 'S':
		fmt.Fprintf(b, "└─ Aggregate MIN(in.ta - out.td)\n")
	}
	// The join runV2V takes, read from the layouts it reads it from.
	join := "RunJoin"
	for i := range p.tables {
		if lay, err := p.tables[i].resolve(cat); err != nil || !lay.ordered {
			join = "HashJoin"
		}
	}
	fmt.Fprintf(b, "   └─ %s out.hub = in.hub, reach out.ta <= in.td\n", join)
	outFilter, inFilter := "", ""
	switch f.op {
	case 'E':
		outFilter = fmt.Sprintf(", td >= $%d", f.tParam)
	case 'L':
		inFilter = fmt.Sprintf(", ta <= $%d", f.tParam)
	case 'S':
		outFilter = fmt.Sprintf(", td >= $%d", f.tParam)
		inFilter = fmt.Sprintf(", ta <= $%d", f.tEndParam)
	}
	fmt.Fprintf(b, "      ├─ %s %s [v = $%d%s]\n", p.lookupOp(), f.outTable, f.outVParam, outFilter)
	fmt.Fprintf(b, "      └─ %s %s [v = $%d%s]\n", p.lookupOp(), f.inTable, f.inVParam, inFilter)
}

func (p *FusedPlan) explainKNNNaive(b *strings.Builder) {
	f := p.knn
	agg, order := "MIN(n2.ta)", "asc"
	if !f.ea {
		agg, order = "MAX(n1.td)", "desc"
	}
	fmt.Fprintf(b, "└─ TopK k = $%d by %s %s, v2\n", f.kParam, agg, order)
	fmt.Fprintf(b, "   └─ GroupFold %s per target\n", agg)
	fmt.Fprintf(b, "      └─ HashJoin n1.hub = n2.hub, reach n1.ta <= n2.td\n")
	labFilter := ""
	scanFilter := ""
	if f.ea {
		labFilter = fmt.Sprintf(", td >= $%d", f.tParam)
	} else {
		scanFilter = fmt.Sprintf(", ta <= $%d", f.tParam)
	}
	fmt.Fprintf(b, "         ├─ %s %s [v = $%d%s]\n", p.lookupOp(), f.lout, f.qParam, labFilter)
	fmt.Fprintf(b, "         └─ %s %s [vs[1:$%d], tas[1:$%d]%s]\n",
		p.scanOp(), f.naive, f.kParam, f.kParam, scanFilter)
}

func (p *FusedPlan) explainCondensed(b *strings.Builder) {
	f := p.cond
	agg, order := "MIN(ta)", "asc"
	if !f.ea {
		agg, order = "MAX(td)", "desc"
	}
	if f.kParam > 0 {
		fmt.Fprintf(b, "└─ TopK k = $%d by %s %s, v2\n", f.kParam, agg, order)
	} else {
		fmt.Fprintf(b, "└─ Sort by %s %s, v2\n", agg, order)
	}
	fmt.Fprintf(b, "   └─ GroupFold %s per target\n", agg)
	bucketSrc := "n1.ta"
	if !f.ea {
		bucketSrc = fmt.Sprintf("$%d", f.tParam)
	}
	fmt.Fprintf(b, "      └─ %s %s [hub = n1.hub, %s = FLOOR(%s / %d)]\n",
		p.probeOp(), f.aux, f.bucketCol, bucketSrc, f.width)
	slice := ""
	if f.kParam > 0 {
		slice = fmt.Sprintf("[1:$%d]", f.kParam)
	}
	if f.ea {
		fmt.Fprintf(b, "         ├─ Arm top-k: fold %s%s/%s%s\n", f.topV, slice, f.topVal, slice)
		fmt.Fprintf(b, "         ├─ Arm expanded: fold %s/%s where n1.ta <= %s\n",
			f.expV, f.expTa, f.expTd)
	} else {
		fmt.Fprintf(b, "         ├─ Arm top-k: fold %s%s where %s%s >= n1.ta\n",
			f.topV, slice, f.topVal, slice)
		fmt.Fprintf(b, "         ├─ Arm expanded: fold %s where %s >= n1.ta and %s <= $%d\n",
			f.expV, f.expTd, f.expTa, f.tParam)
	}
	labFilter := ""
	if f.ea {
		labFilter = fmt.Sprintf(", td >= $%d", f.tParam)
	}
	fmt.Fprintf(b, "         └─ %s %s [v = $%d%s]\n", p.lookupOp(), f.lout, f.qParam, labFilter)
}

// ExplainSelect renders the structural shape of a statement the general
// executor will run: the CTE chain, compound arms, source tables, and the
// grouping/ordering clauses. It does not execute anything — the runtime
// access-path decisions (point lookup vs. scan) appear in RunTraced instead.
func ExplainSelect(sel *sql.Select) string {
	var b strings.Builder
	b.WriteString("GeneralPlan\n")
	explainSelect(&b, sel, "")
	return b.String()
}

func explainSelect(b *strings.Builder, sel *sql.Select, indent string) {
	if sel == nil {
		return
	}
	for _, cte := range sel.With {
		fmt.Fprintf(b, "%s├─ CTE %s\n", indent, cte.Name)
		explainSelect(b, cte.Query, indent+"│  ")
	}
	if sel.Core == nil {
		fmt.Fprintf(b, "%s└─ Union of %d arms\n", indent, len(sel.Arms))
		for _, arm := range sel.Arms {
			explainSelect(b, arm, indent+"   ")
		}
		explainTail(b, sel, indent+"   ")
		return
	}
	c := sel.Core
	var from []string
	for _, fi := range c.From {
		switch {
		case fi.Subquery != nil && fi.Alias != "":
			from = append(from, "("+"subquery"+") "+fi.Alias)
		case fi.Alias != "":
			from = append(from, fi.Table+" "+fi.Alias)
		default:
			from = append(from, fi.Table)
		}
	}
	clauses := []string{fmt.Sprintf("items=%d", len(c.Items))}
	if c.Where != nil {
		clauses = append(clauses, "where")
	}
	if len(c.GroupBy) > 0 {
		clauses = append(clauses, fmt.Sprintf("group=%d", len(c.GroupBy)))
	}
	if c.Having != nil {
		clauses = append(clauses, "having")
	}
	fmt.Fprintf(b, "%s└─ Select [%s] from %s\n", indent, strings.Join(clauses, " "), strings.Join(from, ", "))
	for _, fi := range c.From {
		if fi.Subquery != nil {
			explainSelect(b, fi.Subquery, indent+"   ")
		}
	}
	explainTail(b, sel, indent+"   ")
}

// explainTail renders the statement-level ORDER BY / LIMIT markers.
func explainTail(b *strings.Builder, sel *sql.Select, indent string) {
	if len(sel.OrderBy) > 0 {
		fmt.Fprintf(b, "%s└─ OrderBy %d keys\n", indent, len(sel.OrderBy))
	}
	if sel.Limit != nil {
		fmt.Fprintf(b, "%s└─ Limit\n", indent)
	}
}
