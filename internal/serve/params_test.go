package serve

import (
	"net/url"
	"strconv"
	"strings"
	"testing"

	"ptldb/internal/timetable"
)

// TestTimeParam pins both spellings of a time parameter and the exact text of
// every rejection: the 400 bodies are part of the wire contract.
func TestTimeParam(t *testing.T) {
	const neither = " is neither seconds nor HH:MM:SS"
	cases := []struct {
		raw  string
		want timetable.Time
		err  string
	}{
		{raw: "28800", want: 28800},
		{raw: "0", want: 0},
		{raw: "-60", want: -60},
		{raw: "+7", want: 7},
		{raw: "08:00:00", want: 28800},
		{raw: "8:0:0", want: 28800},
		{raw: " 08:00:30 ", want: 28830},
		{raw: "25:10:00", want: 90600}, // GTFS times run past midnight
		{raw: "", err: `serve: missing parameter "t"`},
		{raw: "noon", err: `serve: parameter t="noon"` + neither},
		{raw: "12.5", err: `serve: parameter t="12.5"` + neither},
		{raw: " 28800", err: `serve: parameter t=" 28800"` + neither},
		{raw: "0x10", err: `serve: parameter t="0x10"` + neither},
		{raw: "99999999999999999999", err: `serve: parameter t="99999999999999999999"` + neither},
		{raw: "08:00", err: `serve: parameter t="08:00"` + neither},
		{raw: "08:60:00", err: `serve: parameter t="08:60:00"` + neither},
		{raw: "-1:00:00", err: `serve: parameter t="-1:00:00"` + neither},
		{raw: "08:00:00:00", err: `serve: parameter t="08:00:00:00"` + neither},
		{raw: ":", err: `serve: parameter t=":"` + neither},
		{raw: "a:b:c", err: `serve: parameter t="a:b:c"` + neither},
		// timetable.Time is 32 bits: its bounds parse, one past them does not.
		{raw: "2147483647", want: 2147483647},
		{raw: "-2147483648", want: -2147483648},
		{raw: "596523:14:07", want: 2147483647},
		{raw: "2147483648", err: `serve: parameter t="2147483648"` + neither},
		{raw: "-2147483649", err: `serve: parameter t="-2147483649"` + neither},
		{raw: "4294996096", err: `serve: parameter t="4294996096"` + neither},
		{raw: "596523:14:08", err: `serve: parameter t="596523:14:08"` + neither},
		{raw: "600000:00:00", err: `serve: parameter t="600000:00:00"` + neither},
	}
	for _, c := range cases {
		got, err := timeParam(url.Values{"t": {c.raw}}, "t")
		switch {
		case c.err == "" && (err != nil || got != c.want):
			t.Errorf("timeParam(%q) = %d, %v; want %d", c.raw, got, err, c.want)
		case c.err != "" && (err == nil || err.Error() != c.err):
			t.Errorf("timeParam(%q) error = %v; want %s", c.raw, err, c.err)
		}
	}
}

// TestStopParam pins the stop-id parameter: any integer of timetable.StopID's
// 32 bits passes (the store refuses one outside its stops), and one past them
// is a 400, never a stop of the low 32 bits.
func TestStopParam(t *testing.T) {
	cases := []struct {
		raw  string
		want timetable.StopID
		err  string
	}{
		{raw: "1", want: 1},
		{raw: "-1", want: -1},
		{raw: "2147483647", want: 2147483647},
		{raw: "-2147483648", want: -2147483648},
		{raw: "", err: `serve: missing parameter "from"`},
		{raw: "one", err: `serve: parameter from="one" is not an integer`},
		{raw: "4294967297", err: `serve: parameter from=4294967297 is not a 32-bit stop id`},
		{raw: "2147483648", err: `serve: parameter from=2147483648 is not a 32-bit stop id`},
		{raw: "-2147483649", err: `serve: parameter from=-2147483649 is not a 32-bit stop id`},
	}
	for _, c := range cases {
		got, err := stopParam(url.Values{"from": {c.raw}}, "from")
		switch {
		case c.err == "" && (err != nil || got != c.want):
			t.Errorf("stopParam(%q) = %d, %v; want %d", c.raw, got, err, c.want)
		case c.err != "" && (err == nil || err.Error() != c.err):
			t.Errorf("stopParam(%q) error = %v; want %s", c.raw, err, c.err)
		}
	}
}

// FuzzTimeParam: every value timeParam accepts is one of its two spellings of
// a time within timetable.Time's 32 bits, and reads back as that time — plain
// seconds as the same integer, a clock time as the seconds of its fields.
func FuzzTimeParam(f *testing.F) {
	for _, s := range []string{"28800", "-60", "+7", "08:00:00", " 8:0:0 ", "25:10:00", "2147483647",
		"2147483648", "4294967297", "596523:14:07", "596523:14:08", "600000:00:00", "99999999999999999999", "a:b:c"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		got, err := timeParam(url.Values{"t": {raw}}, "t")
		if err != nil {
			return
		}
		if !strings.Contains(raw, ":") {
			if v, perr := strconv.ParseInt(raw, 10, 64); perr != nil || v != int64(got) {
				t.Fatalf("timeParam(%q) = %d, which is not the integer it spells (%d, %v)", raw, got, v, perr)
			}
			return
		}
		parts := strings.Split(strings.TrimSpace(raw), ":")
		var secs int64
		for _, p := range parts {
			v, perr := strconv.ParseInt(p, 10, 64)
			if perr != nil || len(parts) != 3 {
				t.Fatalf("timeParam(%q) = %d from fields %q", raw, got, parts)
			}
			secs = secs*60 + v
		}
		if secs != int64(got) {
			t.Fatalf("timeParam(%q) = %d, want %d seconds", raw, got, secs)
		}
	})
}
