package serve

// client.go is the typed HTTP client over the JSON API: ptldb-query -url
// runs every query command through it, the end-to-end tests compare its
// answers against direct store calls, and the benchmark reuses its URL
// construction. Method signatures mirror the Store interface so CLI code is
// identical for the local and remote paths.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"

	"ptldb/internal/core"
	"ptldb/internal/obs"
	"ptldb/internal/timetable"
)

// Client talks to a running ptldb-serve instance.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Tenant, when non-empty, targets one city of a multi-tenant (-tenants)
	// server: the query, plan and obs paths gain the /t/{city} prefix.
	// Health stays unprefixed — liveness is per-process, not per-city.
	Tenant string
	// HTTP is the underlying client (http.DefaultClient when nil).
	HTTP *http.Client
}

// prefix is the path prefix Tenant selects ("" in single-database mode).
func (c *Client) prefix() string {
	if c.Tenant == "" {
		return ""
	}
	return "/t/" + url.PathEscape(c.Tenant)
}

// HTTPError is a non-200 response: the status code plus the server's error
// message, so callers can distinguish rejection (503) and timeout (504) from
// argument (400) and internal (500) failures.
type HTTPError struct {
	Status int
	Msg    string
}

func (e *HTTPError) Error() string {
	return fmt.Sprintf("serve: %s (HTTP %d)", e.Msg, e.Status)
}

// get fetches path and decodes the JSON body into out.
func (c *Client) get(path string, out any) error {
	httpc := c.HTTP
	if httpc == nil {
		httpc = http.DefaultClient
	}
	resp, err := httpc.Get(strings.TrimSuffix(c.BaseURL, "/") + path)
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		var e ErrorResponse
		msg := strings.TrimSpace(string(body))
		if json.Unmarshal(body, &e) == nil && e.Error != "" {
			msg = e.Error
		}
		return &HTTPError{Status: resp.StatusCode, Msg: msg}
	}
	return json.Unmarshal(body, out)
}

// point runs one ea/ld/sd request.
func (c *Client) point(path string) (timetable.Time, bool, error) {
	var pr PointResponse
	if err := c.get(c.prefix()+path, &pr); err != nil {
		return 0, false, err
	}
	return timetable.Time(pr.Value), pr.Found, nil
}

// results runs one kNN/OTM request.
func (c *Client) results(path string) ([]core.Result, error) {
	var rr ResultsResponse
	if err := c.get(c.prefix()+path, &rr); err != nil {
		return nil, err
	}
	out := make([]core.Result, len(rr.Results))
	for i, r := range rr.Results {
		out[i] = core.Result{Stop: timetable.StopID(r.Stop), When: timetable.Time(r.When)}
	}
	return out, nil
}

// V2VPath renders the /query/{ea,ld} request path.
func V2VPath(kind string, s, g timetable.StopID, t timetable.Time) string {
	return fmt.Sprintf("/query/%s?from=%d&to=%d&t=%d", kind, s, g, t)
}

// SDPath renders the /query/sd request path.
func SDPath(s, g timetable.StopID, t, tEnd timetable.Time) string {
	return fmt.Sprintf("/query/sd?from=%d&to=%d&start=%d&end=%d", s, g, t, tEnd)
}

// KNNPath renders the /query/{eaknn,ldknn} request path.
func KNNPath(kind, set string, q timetable.StopID, t timetable.Time, k int) string {
	return fmt.Sprintf("/query/%s?set=%s&from=%d&t=%d&k=%d", kind, url.QueryEscape(set), q, t, k)
}

// OTMPath renders the /query/{eaotm,ldotm} request path.
func OTMPath(kind, set string, q timetable.StopID, t timetable.Time) string {
	return fmt.Sprintf("/query/%s?set=%s&from=%d&t=%d", kind, url.QueryEscape(set), q, t)
}

// EarliestArrival mirrors DB.EarliestArrival over the wire.
func (c *Client) EarliestArrival(s, g timetable.StopID, t timetable.Time) (timetable.Time, bool, error) {
	return c.point(V2VPath("ea", s, g, t))
}

// LatestDeparture mirrors DB.LatestDeparture.
func (c *Client) LatestDeparture(s, g timetable.StopID, t timetable.Time) (timetable.Time, bool, error) {
	return c.point(V2VPath("ld", s, g, t))
}

// ShortestDuration mirrors DB.ShortestDuration.
func (c *Client) ShortestDuration(s, g timetable.StopID, t, tEnd timetable.Time) (timetable.Time, bool, error) {
	return c.point(SDPath(s, g, t, tEnd))
}

// EAKNN mirrors DB.EAKNN.
func (c *Client) EAKNN(set string, q timetable.StopID, t timetable.Time, k int) ([]core.Result, error) {
	return c.results(KNNPath("eaknn", set, q, t, k))
}

// LDKNN mirrors DB.LDKNN.
func (c *Client) LDKNN(set string, q timetable.StopID, t timetable.Time, k int) ([]core.Result, error) {
	return c.results(KNNPath("ldknn", set, q, t, k))
}

// EAOTM mirrors DB.EAOTM.
func (c *Client) EAOTM(set string, q timetable.StopID, t timetable.Time) ([]core.Result, error) {
	return c.results(OTMPath("eaotm", set, q, t))
}

// LDOTM mirrors DB.LDOTM.
func (c *Client) LDOTM(set string, q timetable.StopID, t timetable.Time) ([]core.Result, error) {
	return c.results(OTMPath("ldotm", set, q, t))
}

// ExplainPrepared mirrors DB.ExplainPrepared.
func (c *Client) ExplainPrepared(name string) (string, error) {
	var pr PlanResponse
	if err := c.get(c.prefix()+"/plan?name="+url.QueryEscape(name), &pr); err != nil {
		return "", err
	}
	return pr.Plan, nil
}

// ExplainNames mirrors DB.ExplainNames.
func (c *Client) ExplainNames() ([]string, error) {
	var pl PlanListResponse
	if err := c.get(c.prefix()+"/plan", &pl); err != nil {
		return nil, err
	}
	return pl.Names, nil
}

// Obs fetches the server's observability snapshot (store registry plus the
// serving counters in Snapshot.Serve).
func (c *Client) Obs() (obs.Snapshot, error) {
	var snap obs.Snapshot
	err := c.get(c.prefix()+"/obs", &snap)
	return snap, err
}

// Get fetches an arbitrary server path (ignoring Tenant) and decodes the
// JSON body into out — the escape hatch for endpoints without a typed
// wrapper, like a multi-tenant server's /tenants listing and rollup /obs.
func (c *Client) Get(path string, out any) error {
	return c.get(path, out)
}

// Health probes /healthz; useful to wait for a just-started server.
func (c *Client) Health() error {
	var h HealthResponse
	if err := c.get("/healthz", &h); err != nil {
		return err
	}
	if h.Status != "ok" {
		return fmt.Errorf("serve: health status %q", h.Status)
	}
	return nil
}
