package fleet

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
)

// FleetView is the admin API's fleet-wide summary.
type FleetView struct {
	Rounds   int            `json:"rounds"`
	Active   int            `json:"active"`
	Tenants  []TenantStatus `json:"tenants"`
	Policies []string       `json:"policies,omitempty"`
}

// TenantPage is one page of the paginated tenant listing.
type TenantPage struct {
	// Tenants are the page's statuses, in fleet admission order.
	Tenants []TenantStatus `json:"tenants"`
	// Offset and Limit echo the effective pagination window.
	Offset int `json:"offset"`
	Limit  int `json:"limit"`
	// Total is the fleet's tenant count at snapshot time.
	Total int `json:"total"`
}

// AdmitResult is one entry of a bulk-admission response, in request order.
type AdmitResult struct {
	// Name echoes the spec's tenant name ("" when the spec had none).
	Name string `json:"name"`
	// Error and Code are set when this spec's admission failed; the other
	// specs are unaffected.
	Error string `json:"error,omitempty"`
	Code  string `json:"code,omitempty"`
}

// apiError is the admin API's structured error body.
type apiError struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// defaultPageLimit is the tenant listing page size when ?limit= is absent.
const defaultPageLimit = 100

// maxPageLimit bounds ?limit= so one request cannot serialize a 10k-tenant
// fleet in a single page.
const maxPageLimit = 1000

// maxAdmitBody bounds a bulk-admission body. The largest the tree sends is
// racd's scale smoke's batch of 500 analytic specs, 33 001 bytes; the cap is
// about 30 times that.
const maxAdmitBody = 1 << 20

// Handler returns the versioned admin HTTP API, intended to be mounted at /
// next to the live server's /metrics and /admin/trace endpoints:
//
//	GET  /admin/v1/fleet                       fleet summary with every tenant
//	GET  /admin/v1/tenants?offset=&limit=      paginated tenant listing
//	POST /admin/v1/tenants                     bulk admit (JSON array of TenantSpec)
//	GET  /admin/v1/tenants/{name}              one tenant's status
//	POST /admin/v1/tenants/{name}/pause        running → paused
//	POST /admin/v1/tenants/{name}/resume       paused → running
//	POST /admin/v1/tenants/{name}/drain        finish interval, checkpoint, stop
//	POST /admin/v1/tenants/{name}/checkpoint   snapshot immediately
//	POST /admin/v1/tenants/{name}/policy?key=K force-switch to the policy for
//	                                           context key K
//	GET  /admin/v1/shards                      per-shard scheduling status
//
// Errors are structured JSON bodies {"error": ..., "code": ...}; the code is
// a stable machine-readable slug mapped from the fleet's error sentinels.
func (f *Fleet) Handler() http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("GET /admin/v1/fleet", f.handleFleet)
	mux.HandleFunc("GET /admin/v1/tenants", f.handleTenantPage)
	mux.HandleFunc("POST /admin/v1/tenants", f.handleBulkAdmit)
	mux.HandleFunc("GET /admin/v1/tenants/{name}", f.handleStatus)
	mux.HandleFunc("POST /admin/v1/tenants/{name}/pause", f.lifecycleHandler(f.Pause))
	mux.HandleFunc("POST /admin/v1/tenants/{name}/resume", f.lifecycleHandler(f.Resume))
	mux.HandleFunc("POST /admin/v1/tenants/{name}/drain", f.lifecycleHandler(f.Drain))
	mux.HandleFunc("POST /admin/v1/tenants/{name}/checkpoint", f.lifecycleHandler(f.CheckpointNow))
	mux.HandleFunc("POST /admin/v1/tenants/{name}/policy", f.handlePolicy)
	mux.HandleFunc("GET /admin/v1/shards", f.handleShards)

	return mux
}

// handleFleet serves the fleet summary.
func (f *Fleet) handleFleet(w http.ResponseWriter, r *http.Request) {
	view := FleetView{
		Rounds:  f.Rounds(),
		Active:  f.Active(),
		Tenants: f.Statuses(),
	}
	if f.registry != nil {
		view.Policies = f.registry.Keys()
	}
	writeJSON(w, view)
}

// handleTenantPage serves one page of tenant statuses. ?offset= past the end
// yields an empty page with the true total, so clients detect the end without
// a sentinel.
func (f *Fleet) handleTenantPage(w http.ResponseWriter, r *http.Request) {
	offset, err := queryInt(r, "offset", 0)
	if err != nil || offset < 0 {
		writeAPIError(w, http.StatusBadRequest, "bad_request", "invalid ?offset=: want a non-negative integer")
		return
	}
	limit, err := queryInt(r, "limit", defaultPageLimit)
	if err != nil || limit <= 0 {
		writeAPIError(w, http.StatusBadRequest, "bad_request", "invalid ?limit=: want a positive integer")
		return
	}
	if limit > maxPageLimit {
		limit = maxPageLimit
	}
	all := f.Tenants()
	page := TenantPage{Offset: offset, Limit: limit, Total: len(all), Tenants: []TenantStatus{}}
	for i := offset; i < len(all) && i < offset+limit; i++ {
		page.Tenants = append(page.Tenants, all[i].Status())
	}
	writeJSON(w, page)
}

// handleBulkAdmit admits a JSON array of TenantSpec in order. Each spec
// succeeds or fails independently; the response mirrors the request order.
// 201 when every spec was admitted, 207 when some failed, 400 when the body
// is not a spec array, 413 when it is longer than maxAdmitBody, and then no
// spec is admitted.
func (f *Fleet) handleBulkAdmit(w http.ResponseWriter, r *http.Request) {
	var specs []TenantSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxAdmitBody))
	if err := dec.Decode(&specs); err != nil {
		refuseBody(w, err, "invalid body: want a JSON array of tenant specs: "+err.Error())
		return
	}
	if _, err := dec.Token(); err != io.EOF {
		refuseBody(w, err, "invalid body: data after the spec array")
		return
	}
	results := make([]AdmitResult, len(specs))
	failed := 0
	for i, spec := range specs {
		results[i].Name = spec.Name
		if _, err := f.Admit(spec); err != nil {
			_, code := errorStatus(err)
			results[i].Error = err.Error()
			results[i].Code = code
			failed++
		}
	}
	status := http.StatusCreated
	if failed > 0 {
		status = http.StatusMultiStatus
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(results)
}

// handleStatus serves one tenant's status.
func (f *Fleet) handleStatus(w http.ResponseWriter, r *http.Request) {
	t := f.Tenant(r.PathValue("name"))
	if t == nil {
		writeOpError(w, ErrUnknownTenant)
		return
	}
	writeJSON(w, t.Status())
}

// handleShards serves the per-shard scheduling status.
func (f *Fleet) handleShards(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, f.ShardStatuses())
}

// lifecycleHandler adapts a by-name fleet operation to an HTTP endpoint.
func (f *Fleet) lifecycleHandler(op func(name string) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		if err := op(name); err != nil {
			writeOpError(w, err)
			return
		}
		if t := f.Tenant(name); t != nil {
			writeJSON(w, t.Status())
			return
		}
		w.WriteHeader(http.StatusNoContent)
	}
}

// handlePolicy force-switches a tenant to the policy stored for ?key=.
func (f *Fleet) handlePolicy(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	key := r.URL.Query().Get("key")
	if key == "" {
		writeAPIError(w, http.StatusBadRequest, "bad_request", "missing ?key= context key")
		return
	}
	if err := f.ForcePolicy(name, key); err != nil {
		writeOpError(w, err)
		return
	}
	if t := f.Tenant(name); t != nil {
		writeJSON(w, t.Status())
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// errorStatus maps a fleet error onto its HTTP status and stable code slug
// by sentinel identity (errors.Is), never by message matching.
func errorStatus(err error) (int, string) {
	switch {
	case errors.Is(err, ErrUnknownTenant):
		return http.StatusNotFound, "unknown_tenant"
	case errors.Is(err, ErrNoPolicy):
		return http.StatusNotFound, "no_policy"
	case errors.Is(err, ErrBadTransition):
		return http.StatusConflict, "bad_transition"
	case errors.Is(err, ErrDuplicateTenant):
		return http.StatusConflict, "duplicate_tenant"
	case errors.Is(err, ErrCheckpointsDisabled):
		return http.StatusConflict, "checkpoints_disabled"
	case errors.Is(err, ErrBadSpec):
		return http.StatusBadRequest, "bad_spec"
	default:
		return http.StatusInternalServerError, "internal"
	}
}

// writeOpError serves a fleet operation error as a structured body.
func writeOpError(w http.ResponseWriter, err error) {
	status, code := errorStatus(err)
	writeAPIError(w, status, code, err.Error())
}

// writeAPIError serves one structured error body.
func writeAPIError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(apiError{Error: msg, Code: code})
}

// refuseBody answers a request whose body did not read as one document: 413
// when reading it hit the body's cap (err), else 400 with msg.
func refuseBody(w http.ResponseWriter, err error, msg string) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeAPIError(w, http.StatusRequestEntityTooLarge, "body_too_large",
			"invalid body: longer than "+strconv.FormatInt(tooLarge.Limit, 10)+" bytes")
		return
	}
	writeAPIError(w, http.StatusBadRequest, "bad_request", msg)
}

// queryInt parses an optional integer query parameter.
func queryInt(r *http.Request, name string, def int) (int, error) {
	s := r.URL.Query().Get(name)
	if s == "" {
		return def, nil
	}
	return strconv.Atoi(s)
}

// writeJSON serves v with the standard headers.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
