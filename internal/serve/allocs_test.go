//go:build !race

package serve

// allocs_test.go is serve's allocation ratchet, the counterpart of the root
// package's TestFusedAllocsBudget: a query's allocations in the serving layer
// do not grow with the rows of its answer. It is built without the race
// detector only, which perturbs allocation counts.

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// v2vAllocBudget is the measured allocations of one /query/ea request through
// ServeHTTP on the fake store: URL query parsing, the deadline context, the
// detached execution and its result channel, the header and the one body
// buffer. A rise means something on the request path started escaping to
// the heap — fix the escape, don't raise the budget.
const v2vAllocBudget = 18

// discardWriter is a ResponseWriter that allocates nothing per byte written,
// so the count is the handler's own.
type discardWriter struct {
	header http.Header
	status int
	n      int
}

func (w *discardWriter) Header() http.Header { return w.header }

func (w *discardWriter) WriteHeader(status int) { w.status = status }

func (w *discardWriter) Write(b []byte) (int, error) {
	w.n += len(b)
	return len(b), nil
}

// allocsPerRequest is the mean allocations of serving path with srv.
func allocsPerRequest(t *testing.T, srv *Server, path string) float64 {
	t.Helper()
	r := httptest.NewRequest(http.MethodGet, path, nil)
	w := &discardWriter{header: http.Header{}}
	allocs := testing.AllocsPerRun(200, func() {
		w.status, w.n = 0, 0
		srv.ServeHTTP(w, r)
	})
	if w.status != http.StatusOK || w.n == 0 {
		t.Fatalf("GET %s: status %d, %d body bytes", path, w.status, w.n)
	}
	return allocs
}

func TestQueryAllocsIndependentOfRows(t *testing.T) {
	const otm = "/query/eaotm?set=poi&from=4&t=28800"
	one := allocsPerRequest(t, New(&fakeStore{otmRows: 1}, Options{}), otm)
	thirty := allocsPerRequest(t, New(&fakeStore{otmRows: 30}, Options{}), otm)
	t.Logf("one-to-many: %.0f allocs/request with 1 row, %.0f with 30", one, thirty)
	if thirty > one {
		t.Errorf("a 30-row one-to-many allocates %.0f times per request, a 1-row one %.0f: the body must not allocate per row", thirty, one)
	}
	v2v := allocsPerRequest(t, New(&fakeStore{}, Options{}), "/query/ea?from=1&to=2&t=28800")
	t.Logf("v2v: %.0f allocs/request", v2v)
	if v2v > v2vAllocBudget {
		t.Errorf("v2v: %.0f allocs/request, budget %d", v2v, v2vAllocBudget)
	}
}
