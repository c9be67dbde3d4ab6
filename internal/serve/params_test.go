package serve

import (
	"net/url"
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
