package serve

// golden_test.go pins the JSON API's response bodies byte-for-byte, the same
// way internal/core's observe_test.go pins the prepared-plan renderings:
// the wire shapes are a public contract (ptldb-query -url, curl users,
// dashboards scraping /obs), so any drift — a renamed field, a dropped
// trailing newline, indentation flipping — must show up as a test diff, not
// as a surprise in someone's parser. The fake store keeps every value
// deterministic; the /obs golden is taken with zero query traffic because
// latency means are wall-clock-dependent the moment a request runs.

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

const obsGolden = `{
  "pool": {
    "hits": 0,
    "misses": 0,
    "evictions": 0,
    "rand_reads": 0,
    "seq_reads": 0
  },
  "vcache": {
    "hits": 0,
    "misses": 0,
    "evictions": 0,
    "materializations": 0,
    "declined": 0,
    "resident_bytes": 0,
    "materialize": {
      "count": 0,
      "mean_us": 0
    }
  },
  "exec": {
    "fused_runs": 0,
    "fused_bailouts": 0,
    "general_runs": 0,
    "rows_scanned": 0,
    "tuples_merged": 0
  },
  "segment": {
    "hits": 0,
    "columns_decoded": 0,
    "bytes_read": 0
  },
  "query": null,
  "serve": {
    "requests": 0,
    "executions": 0,
    "coalesced": 0,
    "rejected": 0,
    "timeouts": 0,
    "bad_requests": 0,
    "errors": 0,
    "in_flight": 0,
    "latency": {
      "count": 0,
      "mean_us": 0
    },
    "rejected_latency": {
      "count": 0,
      "mean_us": 0
    }
  }
}
`

var responseGoldens = []struct {
	path   string
	status int
	body   string
}{
	{"/plan", http.StatusOK, "{\n  \"names\": [\n    \"v2v-ea\"\n  ]\n}\n"},
	{"/plan?name=v2v-ea", http.StatusOK, "{\n  \"name\": \"v2v-ea\",\n  \"plan\": \"FakePlan v2v-ea\\n\"\n}\n"},
	{"/query/ea?from=1&to=2&t=28800", http.StatusOK,
		"{\"found\":true,\"value\":28860,\"hms\":\"08:01:00\"}\n"},
	{"/query/ea?from=1&to=2&t=08:00:00", http.StatusOK, // HH:MM:SS spelling, same answer
		"{\"found\":true,\"value\":28860,\"hms\":\"08:01:00\"}\n"},
	{"/query/ea?from=3&to=3&t=28800", http.StatusOK, // no journey: all fields still present
		"{\"found\":false,\"value\":0,\"hms\":\"\"}\n"},
	{"/query/eaknn?set=poi&from=4&t=28800&k=2", http.StatusOK,
		"{\"results\":[{\"stop\":5,\"when\":28860,\"hms\":\"08:01:00\"},{\"stop\":6,\"when\":28920,\"hms\":\"08:02:00\"}]}\n"},
	{"/query/ea?from=1&to=2", http.StatusBadRequest,
		"{\"error\":\"serve: missing parameter \\\"t\\\"\"}\n"},
	{"/plan?name=nope", http.StatusBadRequest,
		"{\"error\":\"fake: no prepared query \\\"nope\\\": invalid argument\"}\n"},
	{"/healthz", http.StatusOK, "{\"status\":\"ok\"}\n"},
}

// TestObsGolden pins the /obs shape on a zero-traffic server: the store
// registry's sections in order, then the serving counters under "serve".
func TestObsGolden(t *testing.T) {
	srv := New(&fakeStore{}, Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	code, body := get(t, ts.URL+"/obs")
	if code != http.StatusOK {
		t.Fatalf("/obs status %d", code)
	}
	if body != obsGolden {
		t.Errorf("/obs drifted:\n got: %q\nwant: %q", body, obsGolden)
	}
}

// TestResponseGoldens pins every endpoint family's body byte-for-byte,
// including the error shapes and the trailing newline.
func TestResponseGoldens(t *testing.T) {
	srv := New(&fakeStore{}, Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	for _, g := range responseGoldens {
		code, body := get(t, ts.URL+g.path)
		if code != g.status {
			t.Errorf("GET %s: status %d, want %d", g.path, code, g.status)
		}
		if body != g.body {
			t.Errorf("GET %s drifted:\n got: %q\nwant: %q", g.path, body, g.body)
		}
	}
}
