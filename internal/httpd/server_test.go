package httpd

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/rac-project/rac/internal/vmenv"
	"github.com/rac-project/rac/internal/webtier"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := NewServer(webtier.DefaultParams(), vmenv.Level1)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestNewServerValidation(t *testing.T) {
	bad := webtier.DefaultParams()
	bad.MaxClients = 0
	if _, err := NewServer(bad, vmenv.Level1); err == nil {
		t.Fatal("invalid params accepted")
	}
	if _, err := NewServer(webtier.DefaultParams(), vmenv.Level{}); err == nil {
		t.Fatal("invalid level accepted")
	}
}

func TestPagesServe(t *testing.T) {
	_, ts := newTestServer(t)
	for _, path := range []string{"/home", "/detail?q=x", "/search?q=systems", "/cart", "/buy", "/admin-task", "/healthz"} {
		code, body := get(t, ts.URL+path)
		if code != http.StatusOK {
			t.Errorf("%s: status %d: %s", path, code, body)
		}
	}
}

func TestSearchFindsCatalogue(t *testing.T) {
	_, ts := newTestServer(t)
	code, body := get(t, ts.URL+"/search?q=systems")
	if code != http.StatusOK || !strings.Contains(body, "hits=") {
		t.Fatalf("search response %d %q", code, body)
	}
	if strings.Contains(body, "hits=0") {
		t.Fatal("search found nothing for a known subject")
	}
}

func TestBuyPlacesOrders(t *testing.T) {
	srv, ts := newTestServer(t)
	for i := 0; i < 3; i++ {
		code, body := get(t, ts.URL+"/buy")
		if code != http.StatusOK || !strings.Contains(body, "order=") {
			t.Fatalf("buy response %d %q", code, body)
		}
	}
	if srv.Stats().Served < 3 {
		t.Fatalf("stats %+v", srv.Stats())
	}
}

func TestSessionsPersistViaCookies(t *testing.T) {
	_, ts := newTestServer(t)
	jar, err := cookiejar.New(nil)
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Jar: jar, Timeout: 5 * time.Second}

	fetch := func() string {
		resp, err := client.Get(ts.URL + "/home")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return sessionField(string(body))
	}
	s1 := fetch()
	s2 := fetch()
	if s1 == "" || s1 != s2 {
		t.Fatalf("session not sticky: %q vs %q", s1, s2)
	}

	// Without a jar each request gets a fresh session.
	bare := &http.Client{Timeout: 5 * time.Second}
	resp, err := bare.Get(ts.URL + "/home")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if sessionField(string(body)) == s1 {
		t.Fatal("jarless client reused a session")
	}
}

func sessionField(body string) string {
	for _, f := range strings.Fields(body) {
		if strings.HasPrefix(f, "session=") {
			return f
		}
	}
	return ""
}

func TestReconfigureLive(t *testing.T) {
	srv, ts := newTestServer(t)
	p := srv.Params()
	p.MaxClients = 77
	p.SessionTimeoutMin = 5
	if err := srv.Reconfigure(p); err != nil {
		t.Fatal(err)
	}
	if srv.Params().MaxClients != 77 {
		t.Fatal("reconfigure did not take")
	}
	// The server still serves afterwards.
	code, _ := get(t, ts.URL+"/home")
	if code != http.StatusOK {
		t.Fatalf("status %d after reconfigure", code)
	}
	bad := p
	bad.MaxThreads = 0
	if err := srv.Reconfigure(bad); err == nil {
		t.Fatal("invalid reconfigure accepted")
	}
}

func TestAdminConfigEndpoint(t *testing.T) {
	srv, ts := newTestServer(t)
	// GET returns the current config.
	code, body := get(t, ts.URL+"/admin/config")
	if code != http.StatusOK {
		t.Fatalf("GET config: %d", code)
	}
	var got webtier.Params
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatal(err)
	}
	if got.MaxClients != srv.Params().MaxClients {
		t.Fatalf("config mismatch: %+v", got)
	}
	// POST applies a new one.
	got.MaxThreads = 123
	buf, _ := json.Marshal(got)
	resp, err := http.Post(ts.URL+"/admin/config", "application/json", strings.NewReader(string(buf)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("POST config: %d", resp.StatusCode)
	}
	if srv.Params().MaxThreads != 123 {
		t.Fatal("POSTed config not applied")
	}
	// Garbage rejected.
	resp, err = http.Post(ts.URL+"/admin/config", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage POST: %d", resp.StatusCode)
	}
}

// FuzzAdminConfig posts arbitrary bodies to /admin/config through the
// server's handler. No body may panic it or draw a 5xx; after a 204, GET
// returns the posted params and the live session TTL and keep-alive are
// theirs (checkLiveTimeouts), and after a 400 GET returns the params from
// before the POST. The seeds are the default params as JSON, alone,
// followed by junk, and with a session timeout of 1e300 minutes.
func FuzzAdminConfig(f *testing.F) {
	seed, err := json.Marshal(webtier.DefaultParams())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(append(bytes.Clone(seed), " junk"...))
	f.Add(bytes.Replace(seed, []byte(`"SessionTimeoutMin":30`), []byte(`"SessionTimeoutMin":1e300`), 1))
	srv, err := NewServer(webtier.DefaultParams(), vmenv.Level1)
	if err != nil {
		f.Fatal(err)
	}
	h := srv.Handler()
	serve := func(method string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, "/admin/config", bytes.NewReader(body)))
		return rec
	}
	current := func(t *testing.T) webtier.Params {
		t.Helper()
		rec := serve(http.MethodGet, nil)
		var p webtier.Params
		if rec.Code != http.StatusOK {
			t.Fatalf("GET config: %d %s", rec.Code, rec.Body)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &p); err != nil {
			t.Fatalf("GET config: %v", err)
		}
		return p
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		before := current(t)
		rec := serve(http.MethodPost, body)
		after := current(t)
		switch rec.Code {
		case http.StatusNoContent:
			var posted webtier.Params
			if err := json.Unmarshal(body, &posted); err != nil {
				t.Fatalf("accepted a body that is not one params document: %v", err)
			}
			if after != posted {
				t.Fatalf("after a 204, GET returns %+v, posted %+v", after, posted)
			}
			checkLiveTimeouts(t, srv, posted)
		case http.StatusBadRequest:
			if after != before {
				t.Fatalf("after a 400, GET returns %+v, was %+v", after, before)
			}
		case http.StatusRequestEntityTooLarge:
			if len(body) <= maxConfigBody || after != before {
				t.Fatalf("a 413 for a body of %d bytes (cap %d), GET returns %+v, was %+v",
					len(body), maxConfigBody, after, before)
			}
		default:
			t.Fatalf("POST config: status %d %s", rec.Code, rec.Body)
		}
	})
}

// TestAdminConfigBodyCap: POST /admin/config reads at most maxConfigBody
// bytes. A params document padded to the cap is applied; one byte more is
// refused with 413 and changes nothing.
func TestAdminConfigBodyCap(t *testing.T) {
	srv, err := NewServer(webtier.DefaultParams(), vmenv.Level1)
	if err != nil {
		t.Fatal(err)
	}
	posted := webtier.DefaultParams()
	posted.MaxClients = 250
	doc, err := json.Marshal(posted)
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{maxConfigBody + 1, maxConfigBody} {
		body := append(bytes.Clone(doc), bytes.Repeat([]byte(" "), size-len(doc))...)
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/admin/config", bytes.NewReader(body)))
		want, applied := http.StatusNoContent, posted
		if size > maxConfigBody {
			want, applied = http.StatusRequestEntityTooLarge, webtier.DefaultParams()
		}
		if rec.Code != want {
			t.Fatalf("a %d-byte body: status %d %s, want %d", size, rec.Code, rec.Body, want)
		}
		if got := srv.Params(); got != applied {
			t.Fatalf("after a %d-byte body the server runs %+v, want %+v", size, got, applied)
		}
	}
}

// checkLiveTimeouts fails unless the server's session TTL and connection
// keep-alive are the ones p sets, compressed by TimeScale, to the
// nanosecond (a session lives at least one).
func checkLiveTimeouts(t *testing.T, srv *Server, p webtier.Params) {
	t.Helper()
	srv.sessions.mu.Lock()
	ttl := srv.sessions.ttl
	srv.sessions.mu.Unlock()
	if want := p.SessionTimeoutMin * float64(time.Minute) / TimeScale; ttl < 1 || math.Abs(float64(ttl)-want) > 1 {
		t.Fatalf("session timeout %v min: live TTL %v, want %v ns", p.SessionTimeoutMin, ttl, want)
	}
	keep := srv.keepAliveLocked()
	if want := p.KeepAliveTimeoutSec * float64(time.Second) / TimeScale; keep < 0 || math.Abs(float64(keep)-want) > 1 {
		t.Fatalf("keep-alive %v s: live timeout %v, want %v ns", p.KeepAliveTimeoutSec, keep, want)
	}
}

// TestAdminConfigRejectsHugeTimeouts: a timeout too large for a
// time.Duration is refused with a 400, leaving the configuration and the
// live timeouts as they were; a day-long one, the largest allowed, is live
// as posted.
func TestAdminConfigRejectsHugeTimeouts(t *testing.T) {
	srv, err := NewServer(webtier.DefaultParams(), vmenv.Level1)
	if err != nil {
		t.Fatal(err)
	}
	post := func(p webtier.Params) int {
		body, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/admin/config", bytes.NewReader(body)))
		return rec.Code
	}
	before := srv.Params()
	for _, set := range []func(*webtier.Params){
		func(p *webtier.Params) { p.SessionTimeoutMin = 1e300 },
		func(p *webtier.Params) { p.KeepAliveTimeoutSec = 1e300 },
	} {
		p := before
		set(&p)
		if code := post(p); code != http.StatusBadRequest {
			t.Fatalf("POST %+v: status %d, want 400", p, code)
		}
		if srv.Params() != before {
			t.Fatalf("a refused POST changed the configuration to %+v", srv.Params())
		}
		checkLiveTimeouts(t, srv, before)
	}
	day := before
	day.SessionTimeoutMin, day.KeepAliveTimeoutSec = 24*60, 24*60*60
	if code := post(day); code != http.StatusNoContent {
		t.Fatalf("POST day-long timeouts: status %d, want 204", code)
	}
	checkLiveTimeouts(t, srv, day)
}

func TestAdminConfigRejectsTrailingData(t *testing.T) {
	srv, ts := newTestServer(t)
	p := srv.Params()
	p.MaxThreads = 123
	buf, _ := json.Marshal(p)
	resp, err := http.Post(ts.URL+"/admin/config", "application/json", strings.NewReader(string(buf)+" junk"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("config followed by junk: status %d, want 400", resp.StatusCode)
	}
	if srv.Params().MaxThreads == 123 {
		t.Fatal("config followed by junk was applied")
	}
}

func TestAdminLevelEndpoint(t *testing.T) {
	srv, ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/admin/level?name=Level-3", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("POST level: %d", resp.StatusCode)
	}
	if srv.Level() != vmenv.Level3 {
		t.Fatal("level not applied")
	}
	code, body := get(t, ts.URL+"/admin/level")
	if code != http.StatusOK || !strings.Contains(body, "Level-3") {
		t.Fatalf("GET level: %d %q", code, body)
	}
	resp, err = http.Post(ts.URL+"/admin/level?name=Level-9", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad level POST: %d", resp.StatusCode)
	}
}

func TestMaxClientsRejectsWhenSaturated(t *testing.T) {
	srv, err := NewServer(webtier.DefaultParams(), vmenv.Level1)
	if err != nil {
		t.Fatal(err)
	}
	p := srv.Params()
	p.MaxClients = 1
	if err := srv.Reconfigure(p); err != nil {
		t.Fatal(err)
	}
	// Hold the only slot.
	if !srv.webSlots.tryAcquire(time.Second) {
		t.Fatal("could not take the only slot")
	}
	defer srv.webSlots.release()

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/home")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated server returned %d", resp.StatusCode)
	}
	if srv.Stats().Rejected == 0 {
		t.Fatal("rejection not counted")
	}
}

func TestStartShutdown(t *testing.T) {
	srv, err := NewServer(webtier.DefaultParams(), vmenv.Level1)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	code, _ := get(t, "http://"+addr+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz %d", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	// The serve goroutine has exited (Shutdown waits on done).
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Fatal("server still serving after shutdown")
	}
}

func TestShutdownBoundedByDeadline(t *testing.T) {
	srv, err := NewServer(webtier.DefaultParams(), vmenv.Level1)
	if err != nil {
		t.Fatal(err)
	}
	// A handler that never finishes within the shutdown deadline.
	stuck := make(chan struct{})
	t.Cleanup(func() { close(stuck) })
	srv.Mount("/stuck", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-stuck:
		case <-time.After(30 * time.Second):
		}
	}))
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	go func() {
		close(started)
		http.Get("http://" + addr + "/stuck") //nolint:errcheck — cut by shutdown
	}()
	<-started
	time.Sleep(50 * time.Millisecond) // let the request reach the handler

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	begin := time.Now()
	err = srv.Shutdown(ctx)
	if elapsed := time.Since(begin); elapsed > 5*time.Second {
		t.Fatalf("Shutdown took %v despite the 200ms deadline", elapsed)
	}
	if err == nil {
		t.Fatal("Shutdown reported a clean drain with a stuck in-flight request")
	}
}

func TestMountServesExtraRoutes(t *testing.T) {
	srv, err := NewServer(webtier.DefaultParams(), vmenv.Level1)
	if err != nil {
		t.Fatal(err)
	}
	srv.Mount("/admin/fleet", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "fleet here") //nolint:errcheck
	}))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	if code, body := get(t, ts.URL+"/admin/fleet"); code != http.StatusOK || body != "fleet here" {
		t.Fatalf("mounted route: %d %q", code, body)
	}
	// The built-in routes are untouched.
	if code, _ := get(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz broken by Mount: %d", code)
	}
}

func TestSemaphoreResize(t *testing.T) {
	s := newSemaphore(1)
	if !s.tryAcquire(time.Millisecond) {
		t.Fatal("fresh semaphore empty")
	}
	if s.tryAcquire(5 * time.Millisecond) {
		t.Fatal("over-acquired")
	}
	s.resize(2)
	if !s.tryAcquire(100 * time.Millisecond) {
		t.Fatal("resize did not free capacity")
	}
	s.release()
	s.release()
}

func TestSessionStoreTTL(t *testing.T) {
	st := newSessionStore(20 * time.Millisecond)
	id := st.create()
	if !st.touch(id) {
		t.Fatal("fresh session dead")
	}
	time.Sleep(40 * time.Millisecond)
	if st.touch(id) {
		t.Fatal("expired session alive")
	}
	if st.touch("nope") {
		t.Fatal("unknown session alive")
	}
}

// TestSessionStoreBoundedWithoutCookies streams 20 000 cookie-less requests,
// one session each, through a store whose clock moves 1 ms per request
// against a 200 ms TTL: the table must stay within twice the live sessions,
// and len must equal a recount of them, also after the TTL is lowered.
func TestSessionStoreBoundedWithoutCookies(t *testing.T) {
	now := time.Unix(0, 0)
	st := newSessionStore(200 * time.Millisecond)
	st.now = func() time.Time { return now }
	live := func() int {
		n := 0
		for _, expiry := range st.data {
			if !now.After(expiry) {
				n++
			}
		}
		return n
	}
	for i := 0; i < 20000; i++ {
		now = now.Add(time.Millisecond)
		st.create()
		if n, l := len(st.data), live(); n > 2*l {
			t.Fatalf("request %d: table holds %d sessions, %d live", i, n, l)
		}
	}
	if got, want := st.len(), live(); got != want || got != 201 {
		t.Fatalf("len() = %d, recount %d, want 201", got, want)
	}
	st.setTTL(50 * time.Millisecond)
	for i := 0; i < 100; i++ {
		now = now.Add(time.Millisecond)
		st.create()
	}
	if got, want := st.len(), live(); got != want {
		t.Fatalf("after lowering the TTL: len() = %d, recount %d", got, want)
	}
	now = now.Add(150 * time.Millisecond)
	if got, want := st.len(), live(); got != want || got != 0 {
		t.Fatalf("after every session expired: len() = %d, recount %d", got, want)
	}
}

func TestScaled(t *testing.T) {
	if got := scaled(1.0); got != time.Duration(float64(time.Second)/TimeScale) {
		t.Fatalf("scaled(1s) = %v", got)
	}
}
