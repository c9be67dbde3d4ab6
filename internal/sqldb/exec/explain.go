package exec

// explain.go renders a FusedPlan as a human-readable operator tree — the
// EXPLAIN counterpart of fused_exec.go. The output is deterministic (plans
// are immutable after Fuse), so tests pin it with golden strings.

import (
	"fmt"
	"strings"
)

// Explain renders the fused operator tree: one line per operator, children
// indented under their parent, parameters shown as $n exactly as they were
// bound in the recognized SQL. The rendering reflects how fused_exec.go
// evaluates the plan, not the SQL's syntactic join order.
func (p *FusedPlan) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "FusedPlan %s\n", p.code)
	switch {
	case p.v2v != nil:
		p.explainV2V(&b)
	case p.knn != nil:
		p.explainKNNNaive(&b)
	case p.cond != nil:
		p.explainCondensed(&b)
	}
	return b.String()
}

// op names the access-path operator that reads the plan's i-th table
// (access is "Lookup", "Scan" or "Probe") after the tier serving its rows
// when Explain runs: Vector when the table's decoded vectors are resident,
// Segment when its rows are read from the columnar segment (directory binary
// search + payload pages). The operator semantics are identical.
func (p *FusedPlan) op(i int, access string) string {
	if p.tables[i].tb.Resident() {
		return "Vector" + access
	}
	return "Segment" + access
}

func (p *FusedPlan) explainV2V(b *strings.Builder) {
	f := p.v2v
	outFilter, inFilter := fmt.Sprintf(", td >= $%d", f.tParam), ""
	switch f.op {
	case 'E':
		fmt.Fprintf(b, "└─ Aggregate MIN(in.ta)\n")
	case 'L':
		fmt.Fprintf(b, "└─ Aggregate MAX(out.td)\n")
		outFilter, inFilter = "", fmt.Sprintf(", ta <= $%d", f.tParam)
	case 'S':
		fmt.Fprintf(b, "└─ Aggregate MIN(in.ta - out.td)\n")
		inFilter = fmt.Sprintf(", ta <= $%d", f.tEndParam)
	case 'W':
		fmt.Fprintf(b, "└─ First by in.ta, out.td desc, out.hub, out.ta, in.td\n")
	}
	fmt.Fprintf(b, "   └─ RunJoin out.hub = in.hub, reach out.ta <= in.td\n")
	fmt.Fprintf(b, "      ├─ %s %s [v = $%d%s]\n", p.op(0, "Lookup"), p.tables[0].name, f.outVParam, outFilter)
	fmt.Fprintf(b, "      └─ %s %s [v = $%d%s]\n", p.op(1, "Lookup"), p.tables[1].name, f.inVParam, inFilter)
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
	fmt.Fprintf(b, "         ├─ %s %s [v = $%d%s]\n", p.op(0, "Lookup"), p.tables[0].name, f.qParam, labFilter)
	fmt.Fprintf(b, "         └─ %s %s [vs[1:$%d], tas[1:$%d]%s]\n",
		p.op(1, "Scan"), p.tables[1].name, f.kParam, f.kParam, scanFilter)
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
		p.op(1, "Probe"), p.tables[1].name, f.bucketCol, bucketSrc, p.width)
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
	fmt.Fprintf(b, "         └─ %s %s [v = $%d%s]\n", p.op(0, "Lookup"), p.tables[0].name, f.qParam, labFilter)
}
