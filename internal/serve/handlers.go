package serve

// handlers.go routes and renders the JSON API. One endpoint per query type,
// named after the CLI commands:
//
//	GET /query/ea?from=S&to=G&t=T        earliest arrival
//	GET /query/ld?from=S&to=G&t=T        latest departure
//	GET /query/sd?from=S&to=G&start=T&end=T  shortest duration
//	GET /query/eaknn?set=NAME&from=S&t=T&k=K
//	GET /query/ldknn?set=NAME&from=S&t=T&k=K
//	GET /query/eaotm?set=NAME&from=S&t=T
//	GET /query/ldotm?set=NAME&from=S&t=T
//	GET /plan[?name=NAME]                prepared plan(s)
//	GET /obs                             observability snapshot
//	GET /healthz                         liveness
//
// A multi-tenant server (NewMulti) serves the same families per city —
// /t/{city}/query/..., /t/{city}/plan, /t/{city}/obs — plus the /tenants
// listing, while /obs becomes the cross-tenant rollup. Unknown cities are
// 404 before admission.
//
// Time parameters accept seconds after midnight or HH:MM:SS; either spelling
// reaches the store as the same time. Malformed parameters are 400
// before admission; store errors map through statusFor (400 caller mistakes,
// 500 internal); 503 carries Retry-After; an expired deadline is 504. The
// /plan and /obs families run through the same deadline and
// Requests/Latency accounting as /query/* (without admission — see
// await).
//
// A /query/* 200 body is rendered by appendPoint or appendResults on the
// handler goroutine, after await returns: the detached execution makes only
// the store call. encoding/json renders the error bodies and the system
// endpoints.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"ptldb/internal/core"
	"ptldb/internal/gtfs"
	"ptldb/internal/obs"
	"ptldb/internal/timetable"
)

// PointResponse is the /query/{ea,ld,sd} payload as clients decode it
// (Client, the benchmark); the server renders it with appendPoint, which
// FuzzQueryBody holds to this type's encoding/json rendering. Value is
// seconds (a timestamp for ea/ld, a duration for sd) and HMS its clock
// rendering; both are zero when Found is false. Every field is always
// present so the shape is golden-stable.
type PointResponse struct {
	Found bool   `json:"found"`
	Value int64  `json:"value"`
	HMS   string `json:"hms"`
}

// StopTime is one kNN / one-to-many answer row.
type StopTime struct {
	Stop int64  `json:"stop"`
	When int64  `json:"when"`
	HMS  string `json:"hms"`
}

// ResultsResponse is the /query/{eaknn,ldknn,eaotm,ldotm} payload as clients
// decode it; the server renders it with appendResults. An empty answer is
// an empty array, never null.
type ResultsResponse struct {
	Results []StopTime `json:"results"`
}

// PlanResponse is the /plan?name=... payload.
type PlanResponse struct {
	Name string `json:"name"`
	Plan string `json:"plan"`
}

// PlanListResponse is the bare /plan payload.
type PlanListResponse struct {
	Names []string `json:"names"`
}

// ErrorResponse is every non-200 body.
type ErrorResponse struct {
	Error string `json:"error"`
}

// HealthResponse is the /healthz payload.
type HealthResponse struct {
	Status string `json:"status"`
}

// TenantInfo is one city's row in the /tenants listing.
type TenantInfo struct {
	City          string `json:"city"`
	Open          bool   `json:"open"`
	Requests      uint64 `json:"requests"`
	Opens         uint64 `json:"opens"`
	Closes        uint64 `json:"closes"`
	ResidentBytes int64  `json:"resident_bytes"`
}

// TenantListResponse is the /tenants payload, sorted by city.
type TenantListResponse struct {
	Tenants []TenantInfo `json:"tenants"`
}

// TenantTotals sums the per-tenant counters in the rollup /obs — the
// invariant scripts/check.sh asserts: totals equal the sum of the tenants
// section.
type TenantTotals struct {
	Requests      uint64 `json:"requests"`
	Opens         uint64 `json:"opens"`
	Closes        uint64 `json:"closes"`
	OpenTenants   int    `json:"open_tenants"`
	ResidentBytes int64  `json:"resident_bytes"`
}

// MultiObsResponse is the multi-tenant rollup /obs payload: the process-wide
// serving counters, every tenant's own counters, and their totals.
type MultiObsResponse struct {
	Serve   obs.ServeSnapshot             `json:"serve"`
	Tenants map[string]obs.TenantSnapshot `json:"tenants"`
	Totals  TenantTotals                  `json:"totals"`
}

// parseFunc validates one endpoint's parameters, returning the execution
// closure. The closure receives the store at execution time, so the same
// parsers serve the single-database mux and the per-tenant mux (where the
// store is acquired inside the execution). It returns the store's answer
// unrendered.
type parseFunc func(q url.Values) (run func(Store) (answer, error), err error)

// answer is one query's result as the store returned it: the point (t,
// found) of an ea/ld/sd, or the rows of a kNN / one-to-many (list set; rows
// may be nil).
type answer struct {
	t     timetable.Time
	found bool
	list  bool
	rows  []core.Result
}

// body renders a as its 200 body into one buffer that holds the longest
// rendering of its shape, so appending never grows it.
func (a answer) body() []byte {
	if !a.list {
		return appendPoint(make([]byte, 0, maxPointBody), a.t, a.found)
	}
	return appendResults(make([]byte, 0, len(resultsOpen)+len(a.rows)*maxResultRow+len(resultsClose)), a.rows)
}

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	if s.tenants != nil {
		s.mux.HandleFunc("GET /t/{city}/query/ea", s.tenantQuery(parseV2V("ea")))
		s.mux.HandleFunc("GET /t/{city}/query/ld", s.tenantQuery(parseV2V("ld")))
		s.mux.HandleFunc("GET /t/{city}/query/sd", s.tenantQuery(parseSD))
		s.mux.HandleFunc("GET /t/{city}/query/eaknn", s.tenantQuery(parseKNN("eaknn")))
		s.mux.HandleFunc("GET /t/{city}/query/ldknn", s.tenantQuery(parseKNN("ldknn")))
		s.mux.HandleFunc("GET /t/{city}/query/eaotm", s.tenantQuery(parseOTM("eaotm")))
		s.mux.HandleFunc("GET /t/{city}/query/ldotm", s.tenantQuery(parseOTM("ldotm")))
		s.mux.HandleFunc("GET /t/{city}/plan", s.handleTenantPlan)
		s.mux.HandleFunc("GET /t/{city}/obs", s.handleTenantObs)
		s.mux.HandleFunc("GET /tenants", s.handleTenants)
		s.mux.HandleFunc("GET /obs", s.handleRollupObs)
		return
	}
	s.mux.HandleFunc("GET /query/ea", s.query(parseV2V("ea")))
	s.mux.HandleFunc("GET /query/ld", s.query(parseV2V("ld")))
	s.mux.HandleFunc("GET /query/sd", s.query(parseSD))
	s.mux.HandleFunc("GET /query/eaknn", s.query(parseKNN("eaknn")))
	s.mux.HandleFunc("GET /query/ldknn", s.query(parseKNN("ldknn")))
	s.mux.HandleFunc("GET /query/eaotm", s.query(parseOTM("eaotm")))
	s.mux.HandleFunc("GET /query/ldotm", s.query(parseOTM("ldotm")))
	s.mux.HandleFunc("GET /plan", s.handlePlan)
	s.mux.HandleFunc("GET /obs", s.handleObs)
}

// query wraps a parseFunc with the single-database request pipeline.
func (s *Server) query(parse parseFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.serveQuery(w, r, parse, "", nil)
	}
}

// tenantQuery wraps a parseFunc with the per-city pipeline: unknown cities
// are 404 before anything is admitted, known ones flow through serveQuery
// with their metrics attached.
func (s *Server) tenantQuery(parse parseFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		city := r.PathValue("city")
		tm := s.tenants.Metrics(city)
		if tm == nil {
			s.unknownTenant(w, city)
			return
		}
		s.serveQuery(w, r, parse, city, tm)
	}
}

// unknownTenant rejects a request for a city the router does not know:
// a caller mistake like a parse failure, so it counts as a BadRequest and
// never enters admission.
func (s *Server) unknownTenant(w http.ResponseWriter, city string) {
	s.metrics.BadRequests.Add(1)
	writeJSON(w, http.StatusNotFound, ErrorResponse{Error: fmt.Sprintf("serve: unknown tenant %q", city)})
}

// serveQuery is the shared request pipeline: parse, admit, run detached
// under the deadline, map errors, record latency. In tenant mode (tm
// non-nil) the execution acquires the tenant itself, folding a cold open
// into the admission/deadline envelope.
func (s *Server) serveQuery(w http.ResponseWriter, r *http.Request, parse parseFunc, city string, tm *obs.TenantMetrics) {
	run, err := parse(r.URL.Query())
	if err != nil {
		s.metrics.BadRequests.Add(1)
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	exec := func() (answer, error) { return run(s.store) }
	if tm != nil {
		exec = func() (answer, error) {
			t, err := s.tenants.Acquire(city)
			if err != nil {
				return answer{}, err
			}
			return run(t.DB())
		}
		tm.Requests.Add(1)
	}
	start := time.Now()
	ctx, cancel := context.WithTimeout(r.Context(), s.opts.Timeout)
	defer cancel()
	a, status, err := s.do(ctx, exec)
	elapsed := time.Since(start)
	if status == http.StatusServiceUnavailable {
		// An admission reject answers in microseconds by design; keeping it
		// out of Latency stops overload from dragging the percentiles down
		// (see obs.ServeMetrics).
		s.metrics.RejectedLatency.Observe(elapsed)
	} else {
		s.metrics.Latency.Observe(elapsed)
		if tm != nil {
			tm.Latency.Observe(elapsed)
		}
	}
	if err != nil {
		switch status {
		case http.StatusBadRequest:
			s.metrics.BadRequests.Add(1)
		case http.StatusInternalServerError:
			s.metrics.Errors.Add(1)
		case http.StatusServiceUnavailable:
			w.Header().Set("Retry-After", strconv.Itoa(int(retryAfter/time.Second)))
		}
		writeJSON(w, status, ErrorResponse{Error: err.Error()})
		return
	}
	writeBody(w, http.StatusOK, a.body())
}

func parseV2V(kind string) parseFunc {
	return func(q url.Values) (func(Store) (answer, error), error) {
		from, err := stopParam(q, "from")
		if err != nil {
			return nil, err
		}
		to, err := stopParam(q, "to")
		if err != nil {
			return nil, err
		}
		t, err := timeParam(q, "t")
		if err != nil {
			return nil, err
		}
		return func(st Store) (answer, error) {
			var a answer
			var err error
			if kind == "ea" {
				a.t, a.found, err = st.EarliestArrival(from, to, t)
			} else {
				a.t, a.found, err = st.LatestDeparture(from, to, t)
			}
			return a, err
		}, nil
	}
}

func parseSD(q url.Values) (func(Store) (answer, error), error) {
	from, err := stopParam(q, "from")
	if err != nil {
		return nil, err
	}
	to, err := stopParam(q, "to")
	if err != nil {
		return nil, err
	}
	start, err := timeParam(q, "start")
	if err != nil {
		return nil, err
	}
	end, err := timeParam(q, "end")
	if err != nil {
		return nil, err
	}
	return func(st Store) (answer, error) {
		v, ok, err := st.ShortestDuration(from, to, start, end)
		return answer{t: v, found: ok}, err
	}, nil
}

func parseKNN(kind string) parseFunc {
	return func(q url.Values) (func(Store) (answer, error), error) {
		set, from, t, err := setParams(q)
		if err != nil {
			return nil, err
		}
		k, err := intParam(q, "k")
		if err != nil {
			return nil, err
		}
		return func(st Store) (answer, error) {
			a := answer{list: true}
			var err error
			if kind == "eaknn" {
				a.rows, err = st.EAKNN(set, from, t, int(k))
			} else {
				a.rows, err = st.LDKNN(set, from, t, int(k))
			}
			return a, err
		}, nil
	}
}

func parseOTM(kind string) parseFunc {
	return func(q url.Values) (func(Store) (answer, error), error) {
		set, from, t, err := setParams(q)
		if err != nil {
			return nil, err
		}
		return func(st Store) (answer, error) {
			a := answer{list: true}
			var err error
			if kind == "eaotm" {
				a.rows, err = st.EAOTM(set, from, t)
			} else {
				a.rows, err = st.LDOTM(set, from, t)
			}
			return a, err
		}, nil
	}
}

// system wraps a run closure with the system-endpoint half of the pipeline:
// the same deadline and Requests/Latency accounting as /query/*, without
// admission (await). Metering lands after the run completes
// so an /obs snapshot taken inside run never counts the request carrying it
// — which keeps the zero-traffic /obs golden byte-stable.
func (s *Server) system(w http.ResponseWriter, r *http.Request, run func() (any, error)) {
	start := time.Now()
	ctx, cancel := context.WithTimeout(r.Context(), s.opts.Timeout)
	defer cancel()
	v, status, err := await(s, ctx, run)
	s.metrics.Requests.Add(1)
	s.metrics.Latency.Observe(time.Since(start))
	if err != nil {
		switch status {
		case http.StatusBadRequest:
			s.metrics.BadRequests.Add(1)
		case http.StatusInternalServerError:
			s.metrics.Errors.Add(1)
		}
		writeJSON(w, status, ErrorResponse{Error: err.Error()})
		return
	}
	writeJSONIndent(w, http.StatusOK, v)
}

// planRun builds the /plan execution over an acquired store: the name
// listing when name is empty, one rendered plan otherwise.
func planRun(name string, acquire func() (Store, error)) func() (any, error) {
	return func() (any, error) {
		st, err := acquire()
		if err != nil {
			return nil, err
		}
		if name == "" {
			return PlanListResponse{Names: st.ExplainNames()}, nil
		}
		plan, err := st.ExplainPrepared(name)
		if err != nil {
			return nil, err
		}
		return PlanResponse{Name: name, Plan: plan}, nil
	}
}

// acquireSingle hands out the single-database store.
func (s *Server) acquireSingle() (Store, error) {
	return s.store, nil
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	s.system(w, r, planRun(r.URL.Query().Get("name"), s.acquireSingle))
}

func (s *Server) handleObs(w http.ResponseWriter, r *http.Request) {
	s.system(w, r, func() (any, error) {
		snap := s.store.Snapshot()
		sv := s.metrics.Snapshot()
		snap.Serve = &sv
		return snap, nil
	})
}

func (s *Server) handleTenantPlan(w http.ResponseWriter, r *http.Request) {
	city := r.PathValue("city")
	if s.tenants.Metrics(city) == nil {
		s.unknownTenant(w, city)
		return
	}
	s.system(w, r, planRun(r.URL.Query().Get("name"), func() (Store, error) {
		t, err := s.tenants.Acquire(city)
		if err != nil {
			return nil, err
		}
		return t.DB(), nil
	}))
}

// handleTenantObs serves one city's registry snapshot with its routing
// counters grafted in under "tenant". Asking for a cold tenant's registry
// opens it — the registry lives on the database handle.
func (s *Server) handleTenantObs(w http.ResponseWriter, r *http.Request) {
	city := r.PathValue("city")
	if s.tenants.Metrics(city) == nil {
		s.unknownTenant(w, city)
		return
	}
	s.system(w, r, func() (any, error) {
		t, err := s.tenants.Acquire(city)
		if err != nil {
			return nil, err
		}
		snap := t.DB().Snapshot()
		var resident int64
		if snap.VCache != nil {
			resident = snap.VCache.ResidentBytes
		}
		ts := t.Metrics().Snapshot(true, resident)
		snap.Tenant = &ts
		return snap, nil
	})
}

func (s *Server) handleTenants(w http.ResponseWriter, r *http.Request) {
	s.system(w, r, func() (any, error) {
		snaps := s.tenants.Snapshot()
		names := s.tenants.Names()
		out := TenantListResponse{Tenants: make([]TenantInfo, 0, len(names))}
		for _, name := range names {
			ts := snaps[name]
			out.Tenants = append(out.Tenants, TenantInfo{
				City:          name,
				Open:          ts.Open,
				Requests:      ts.Requests,
				Opens:         ts.Opens,
				Closes:        ts.Closes,
				ResidentBytes: ts.ResidentBytes,
			})
		}
		return out, nil
	})
}

func (s *Server) handleRollupObs(w http.ResponseWriter, r *http.Request) {
	s.system(w, r, func() (any, error) {
		out := MultiObsResponse{Serve: s.metrics.Snapshot(), Tenants: s.tenants.Snapshot()}
		for _, ts := range out.Tenants {
			out.Totals.Requests += ts.Requests
			out.Totals.Opens += ts.Opens
			out.Totals.Closes += ts.Closes
			out.Totals.ResidentBytes += ts.ResidentBytes
			if ts.Open {
				out.Totals.OpenTenants++
			}
		}
		return out, nil
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, HealthResponse{Status: "ok"})
}

// The longest renderings: a 32-bit integer, an HH:MM:SS of one (gtfs.AppendTime),
// a found point, and one result row with its separating comma.
const (
	maxInt32Len  = len("-2147483648")
	maxHMSLen    = len("-596523:-59:-59")
	maxPointBody = len(`{"found":true,"value":`) + maxInt32Len + len(`,"hms":"`) + maxHMSLen + len("\"}\n")
	maxResultRow = len(`{"stop":`) + maxInt32Len + len(`,"when":`) + maxInt32Len + len(`,"hms":"`) + maxHMSLen + len(`"},`)
	resultsOpen  = `{"results":[`
	resultsClose = "]}\n"
)

// appendPoint appends the /query/{ea,ld,sd} body: what encoding/json makes of
// PointResponse, and a newline. A point not found has every field zero.
func appendPoint(dst []byte, t timetable.Time, found bool) []byte {
	if !found {
		return append(dst, `{"found":false,"value":0,"hms":""}`+"\n"...)
	}
	dst = append(dst, `{"found":true,"value":`...)
	dst = strconv.AppendInt(dst, int64(t), 10)
	dst = append(dst, `,"hms":"`...)
	dst = gtfs.AppendTime(dst, t)
	return append(dst, "\"}\n"...)
}

// appendResults appends the kNN / one-to-many body: what encoding/json makes
// of ResultsResponse, and a newline. Nothing in a row needs escaping: its
// fields are integers and an HH:MM:SS of digits, colons and minus signs.
func appendResults(dst []byte, rs []core.Result) []byte {
	dst = append(dst, resultsOpen...)
	for i, r := range rs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"stop":`...)
		dst = strconv.AppendInt(dst, int64(r.Stop), 10)
		dst = append(dst, `,"when":`...)
		dst = strconv.AppendInt(dst, int64(r.When), 10)
		dst = append(dst, `,"hms":"`...)
		dst = gtfs.AppendTime(dst, r.When)
		dst = append(dst, `"}`...)
	}
	return append(dst, resultsClose...)
}

// stopParam accepts a stop id: an integer that fits timetable.StopID's 32
// bits. One that does not is refused, never wrapped onto another stop.
func stopParam(q url.Values, name string) (timetable.StopID, error) {
	v, err := intParam(q, name)
	if err == nil && v != int64(timetable.StopID(v)) {
		return 0, fmt.Errorf("serve: parameter %s=%d is not a 32-bit stop id", name, v)
	}
	return timetable.StopID(v), err
}

func intParam(q url.Values, name string) (int64, error) {
	raw := q.Get(name)
	if raw == "" {
		return 0, fmt.Errorf("serve: missing parameter %q", name)
	}
	v, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("serve: parameter %s=%q is not an integer", name, raw)
	}
	return v, nil
}

// timeParam accepts seconds after midnight or HH:MM:SS, like the query CLI,
// either one within timetable.Time's 32 bits. The two spellings are disjoint —
// only a clock time holds a colon — so each value goes to one parser; plain
// seconds, the spelling every URL the client builds uses, never pay for a
// failed clock parse.
func timeParam(q url.Values, name string) (timetable.Time, error) {
	raw := q.Get(name)
	if raw == "" {
		return 0, fmt.Errorf("serve: missing parameter %q", name)
	}
	if strings.Contains(raw, ":") {
		if t, err := gtfs.ParseTime(raw); err == nil {
			return t, nil
		}
	} else if v, err := strconv.ParseInt(raw, 10, 32); err == nil {
		return timetable.Time(v), nil
	}
	return 0, fmt.Errorf("serve: parameter %s=%q is neither seconds nor HH:MM:SS", name, raw)
}

// setParams pulls the shared set/from/t triple of the kNN and OTM endpoints.
func setParams(q url.Values) (string, timetable.StopID, timetable.Time, error) {
	set := q.Get("set")
	if set == "" {
		return "", 0, 0, fmt.Errorf("serve: missing parameter %q", "set")
	}
	from, err := stopParam(q, "from")
	if err != nil {
		return "", 0, 0, err
	}
	t, err := timeParam(q, "t")
	if err != nil {
		return "", 0, 0, err
	}
	return set, from, t, nil
}

// encodeFailBody is the fallback body when response encoding fails. It is
// itself valid JSON and must be written with the application/json header —
// http.Error would stamp text/plain over a JSON payload.
const encodeFailBody = `{"error":"serve: encoding response failed"}` + "\n"

// writeEncodeFailure answers an encoding failure with a JSON 500: same
// Content-Type contract as every other body, so clients parsing errors never
// see text/plain.
func writeEncodeFailure(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Content-Type-Options", "nosniff")
	w.WriteHeader(http.StatusInternalServerError)
	_, _ = io.WriteString(w, encodeFailBody)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	blob, err := json.Marshal(v)
	if err != nil {
		writeEncodeFailure(w)
		return
	}
	writeBody(w, status, append(blob, '\n'))
}

// writeJSONIndent is writeJSON with indentation, for the endpoints meant to
// be read by humans over curl (/plan, /obs, /tenants).
func writeJSONIndent(w http.ResponseWriter, status int, v any) {
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		writeEncodeFailure(w)
		return
	}
	writeBody(w, status, append(blob, '\n'))
}

// writeBody sends a rendered JSON body.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Best-effort write: the client may be gone already.
	_, _ = w.Write(body)
}
