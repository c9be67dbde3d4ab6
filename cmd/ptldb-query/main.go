// Command ptldb-query answers route-planning queries against a built PTLDB
// database, either by opening the database directory or by talking to a
// running ptldb-serve instance.
//
// Usage:
//
//	ptldb-query -db DIR [-device ssd] ea  SRC DST TIME
//	ptldb-query -db DIR ld  SRC DST TIME
//	ptldb-query -db DIR sd  SRC DST FROM TO
//	ptldb-query -db DIR eaknn SET SRC TIME K
//	ptldb-query -db DIR ldknn SET SRC TIME K
//	ptldb-query -db DIR eaotm SET SRC TIME
//	ptldb-query -db DIR ldotm SET SRC TIME
//	ptldb-query -db DIR sql 'SELECT ... $1 ...' [BIGINT ...]
//	ptldb-query -db DIR explain 'SELECT ... $1 ...' [BIGINT ...]
//	ptldb-query -db DIR plan NAME     (NAME from 'ptldb-query -db DIR plan')
//	ptldb-query -db DIR sets
//
// With -url http://HOST:PORT instead of -db, the query commands (plus plan
// and -obs) run against the server's HTTP API with identical output; the
// sql, explain and sets commands need the open store and refuse -url.
// Against a multi-tenant server (ptldb-serve -tenants), add -tenant CITY to
// pick the city; paths gain the /t/{city} prefix.
//
// TIME accepts either seconds after midnight or HH:MM:SS. With SRC = DST, ea,
// ld and sd answer from the event times at SRC that the labels record (its
// dummy tuples), not TIME itself: ea gives the earliest at or after TIME, ld
// the latest at or before it, and sd gives 0 when one lies in [FROM, TO]. If
// there is none, the answer is no journey. sql and explain take
// a statement of the dialect of Codes 1–4 (DESIGN.md §3.4) and, after it, the
// values of its parameters $1, $2, … as integers:
//
//	ptldb-query -db DIR sql 'SELECT hubs FROM lout WHERE v=$1' 4
//
// -slow DURATION logs every query slower than the threshold to stderr;
// -obs prints the observability snapshot (JSON) to stderr on exit.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"

	"ptldb"
	"ptldb/internal/gtfs"
	"ptldb/internal/obs"
	"ptldb/internal/serve"
	"ptldb/internal/sqldb/sqltypes"
	"ptldb/internal/timetable"
)

// backend is the query surface shared by the local path (*ptldb.DB) and the
// client path (*serve.Client): both answer the seven query types with the
// same signatures, so the command dispatch and output formatting below are
// written once.
type backend interface {
	EarliestArrival(s, g ptldb.StopID, t ptldb.Time) (ptldb.Time, bool, error)
	LatestDeparture(s, g ptldb.StopID, t ptldb.Time) (ptldb.Time, bool, error)
	ShortestDuration(s, g ptldb.StopID, t, tEnd ptldb.Time) (ptldb.Time, bool, error)
	EAKNN(set string, q ptldb.StopID, t ptldb.Time, k int) ([]ptldb.Result, error)
	LDKNN(set string, q ptldb.StopID, t ptldb.Time, k int) ([]ptldb.Result, error)
	EAOTM(set string, q ptldb.StopID, t ptldb.Time) ([]ptldb.Result, error)
	LDOTM(set string, q ptldb.StopID, t ptldb.Time) ([]ptldb.Result, error)
	ExplainPrepared(name string) (string, error)
}

func main() {
	var (
		dbDir   = flag.String("db", "", "database directory (required unless -url)")
		urlFlag = flag.String("url", "", "ptldb-serve base URL (e.g. http://127.0.0.1:8080); replaces -db")
		tenantF = flag.String("tenant", "", "city key on a multi-tenant server (requires -url)")
		device  = flag.String("device", "ssd", "simulated device: hdd, ssd, ram")
		vcBytes = flag.Int64("vcache-bytes", 0, "vector-cache budget in bytes (0 = default, negative = no cache)")
		slow    = flag.Duration("slow", 0, "log queries slower than this to stderr (0 = off)")
		obsDump = flag.Bool("obs", false, "print the observability snapshot (JSON) to stderr on exit")
	)
	flag.Parse()
	if (*dbDir == "") == (*urlFlag == "") || flag.NArg() == 0 {
		fatal(fmt.Errorf("usage: ptldb-query {-db DIR | -url URL} CMD ARGS... (see source header)"))
	}
	if *tenantF != "" && *urlFlag == "" {
		fatal(fmt.Errorf("-tenant selects a city on a server; it requires -url"))
	}
	args := flag.Args()

	if *urlFlag != "" {
		client := &serve.Client{BaseURL: *urlFlag, Tenant: *tenantF}
		if *obsDump {
			defer func() {
				snap, err := client.Obs()
				check(err)
				blob, err := json.MarshalIndent(snap, "", "  ")
				check(err)
				fmt.Fprintln(os.Stderr, string(blob))
			}()
		}
		switch args[0] {
		case "sql", "explain", "sets":
			fatal(fmt.Errorf("%s needs the open store; use -db instead of -url", args[0]))
		case "plan":
			if len(args) == 1 {
				names, err := client.ExplainNames()
				check(err)
				for _, name := range names {
					fmt.Println(name)
				}
				return
			}
		}
		run(client, args)
		return
	}

	cfg := ptldb.Config{Device: *device, VectorCacheBytes: *vcBytes}
	if *slow > 0 {
		cfg.TraceHook = obs.NewSlowQueryLogger(os.Stderr, *slow).Observe
	}
	db, err := ptldb.Open(*dbDir, cfg)
	if err != nil {
		fatal(err)
	}
	defer db.Close()
	if *obsDump {
		defer func() {
			blob, err := json.MarshalIndent(db.Snapshot(), "", "  ")
			check(err)
			fmt.Fprintln(os.Stderr, string(blob))
		}()
	}

	switch args[0] {
	case "sql":
		q, params := sqlArgs(args)
		rel, err := db.Store().Raw(q, params...)
		check(err)
		for _, c := range rel.Columns() {
			fmt.Printf("%s\t", c)
		}
		fmt.Println()
		for _, row := range rel.Rows {
			for _, v := range row {
				fmt.Printf("%s\t", v.String())
			}
			fmt.Println()
		}
		fmt.Printf("(%d rows)\n", len(rel.Rows))
	case "explain":
		q, params := sqlArgs(args)
		rel, trace, err := db.Store().RawTraced(q, params...)
		check(err)
		for _, line := range trace {
			fmt.Println("  ->", line)
		}
		fmt.Printf("(%d rows)\n", len(rel.Rows))
	case "sets":
		for name, ts := range db.TargetSets() {
			fmt.Printf("%s: %d targets, kmax %d\n", name, len(ts.Targets), ts.KMax)
		}
	case "plan":
		if len(args) == 1 {
			for _, name := range db.ExplainNames() {
				fmt.Println(name)
			}
			return
		}
		run(db, args)
	default:
		run(db, args)
	}
}

// run dispatches the query commands shared by the local and -url paths.
func run(b backend, args []string) {
	switch args[0] {
	case "ea", "ld":
		need(args, 4)
		s, g := stop(args[1]), stop(args[2])
		t := when(args[3])
		var v ptldb.Time
		var ok bool
		var err error
		if args[0] == "ea" {
			v, ok, err = b.EarliestArrival(s, g, t)
		} else {
			v, ok, err = b.LatestDeparture(s, g, t)
		}
		check(err)
		if !ok {
			fmt.Println("no journey")
			return
		}
		fmt.Printf("%s (%d)\n", gtfs.FormatTime(v), v)
	case "sd":
		need(args, 5)
		v, ok, err := b.ShortestDuration(stop(args[1]), stop(args[2]), when(args[3]), when(args[4]))
		check(err)
		if !ok {
			fmt.Println("no journey")
			return
		}
		fmt.Printf("%s (%d s)\n", gtfs.FormatTime(v), v)
	case "eaknn", "ldknn":
		need(args, 5)
		k, err := strconv.Atoi(args[4])
		check(err)
		var rs []ptldb.Result
		if args[0] == "eaknn" {
			rs, err = b.EAKNN(args[1], stop(args[2]), when(args[3]), k)
		} else {
			rs, err = b.LDKNN(args[1], stop(args[2]), when(args[3]), k)
		}
		check(err)
		printResults(rs)
	case "eaotm", "ldotm":
		need(args, 4)
		var rs []ptldb.Result
		var err error
		if args[0] == "eaotm" {
			rs, err = b.EAOTM(args[1], stop(args[2]), when(args[3]))
		} else {
			rs, err = b.LDOTM(args[1], stop(args[2]), when(args[3]))
		}
		check(err)
		printResults(rs)
	case "plan":
		need(args, 2)
		plan, err := b.ExplainPrepared(args[1])
		check(err)
		fmt.Print(plan)
	default:
		fatal(fmt.Errorf("unknown command %q", args[0]))
	}
}

func printResults(rs []ptldb.Result) {
	for _, r := range rs {
		fmt.Printf("stop %-6d %s (%d)\n", r.Stop, gtfs.FormatTime(r.When), r.When)
	}
	if len(rs) == 0 {
		fmt.Println("no results")
	}
}

func need(args []string, n int) {
	if len(args) != n {
		fatal(fmt.Errorf("%s takes %d arguments", args[0], n-1))
	}
}

// sqlArgs splits the arguments of sql and explain into the statement and the
// BIGINT values of its parameters $1, $2, ….
func sqlArgs(args []string) (string, []sqltypes.Value) {
	if len(args) < 2 {
		fatal(fmt.Errorf("usage: %s 'SELECT ... $1 ...' [BIGINT ...]", args[0]))
	}
	params := make([]sqltypes.Value, len(args)-2)
	for i, a := range args[2:] {
		v, err := strconv.ParseInt(a, 10, 64)
		if err != nil {
			fatal(fmt.Errorf("usage: %s 'SELECT ... $1 ...' [BIGINT ...]: parameter $%d is %q, not an integer", args[0], i+1, a))
		}
		params[i] = sqltypes.NewInt(v)
	}
	return args[1], params
}

// stop parses a stop id: an integer that fits ptldb.StopID's 32 bits.
func stop(s string) ptldb.StopID {
	v, err := strconv.ParseInt(s, 10, 32)
	if err != nil {
		fatal(fmt.Errorf("usage: stop %q is not a 32-bit integer", s))
	}
	return ptldb.StopID(v)
}

// when parses a TIME: HH:MM:SS, or seconds that fit ptldb.Time's 32 bits.
func when(s string) ptldb.Time {
	if t, err := gtfs.ParseTime(s); err == nil {
		return t
	}
	v, err := strconv.ParseInt(s, 10, 32)
	if err != nil {
		fatal(fmt.Errorf("usage: time %q is neither 32-bit seconds nor HH:MM:SS", s))
	}
	return timetable.Time(v)
}

func check(err error) {
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ptldb-query:", err)
	os.Exit(1)
}
