package service

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"fpgadbg/internal/obs"
)

func TestHTTPRoundTrip(t *testing.T) {
	svc := New(Config{Workers: 2})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	cl := &Client{Base: srv.URL, HTTP: srv.Client()}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	if err := cl.Healthz(ctx); err != nil {
		t.Fatal(err)
	}

	st, err := cl.Submit(ctx, fastSpec("9sym", 1))
	if err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.State.Terminal() {
		t.Fatalf("submit status = %+v", st)
	}

	// Stream events until the campaign completes; the stream must replay
	// the past and end at "done".
	var stages []string
	if err := cl.Events(ctx, st.ID, func(ev Event) {
		stages = append(stages, ev.Stage)
	}); err != nil {
		t.Fatal(err)
	}
	if len(stages) == 0 || stages[0] != "queue" || stages[len(stages)-1] != "done" {
		t.Fatalf("event stages = %v", stages)
	}

	res, err := cl.Wait(ctx, st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean || res.Digest == "" {
		t.Fatalf("result = %+v", res)
	}

	list, err := cl.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != st.ID {
		t.Fatalf("list = %+v", list)
	}
}

func TestHTTPErrors(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	cl := &Client{Base: srv.URL, HTTP: srv.Client()}
	ctx := context.Background()

	// Unknown design: 400 with the valid names in the message.
	if _, err := cl.Submit(ctx, Spec{Design: "bogus"}); err == nil {
		t.Fatal("bogus design accepted over HTTP")
	} else if !strings.Contains(err.Error(), "9sym") {
		t.Fatalf("error does not list valid designs: %v", err)
	}

	// Unknown campaign: 404.
	if _, err := cl.Status(ctx, "c999999"); err == nil {
		t.Fatal("unknown campaign id accepted")
	}
	resp, err := srv.Client().Get(srv.URL + "/campaigns/c999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}

	// Malformed JSON: 400.
	resp, err = srv.Client().Post(srv.URL+"/campaigns", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

func TestHTTPCancelAndMetrics(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	cl := &Client{Base: srv.URL, HTTP: srv.Client()}
	ctx := context.Background()

	blocker, err := cl.Submit(ctx, fastSpec("styr", 3))
	if err != nil {
		t.Fatal(err)
	}
	victim, err := cl.Submit(ctx, fastSpec("c880", 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Cancel(ctx, victim.ID); err != nil {
		t.Fatal(err)
	}
	st, err := cl.Status(ctx, victim.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCanceled {
		t.Fatalf("state = %s, want canceled", st.State)
	}
	if _, err := cl.Wait(ctx, blocker.ID, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), "fpgadbgd") {
		t.Fatal("expvar output missing fpgadbgd service stats")
	}
	// The service's key carries stats plus the telemetry registry with
	// per-stage latency histograms.
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatalf("/metrics is not a JSON object: %v", err)
	}
	var own struct {
		Stats
		Telemetry obs.RegistrySnapshot `json:"telemetry"`
	}
	if err := json.Unmarshal(doc["fpgadbgd"], &own); err != nil {
		t.Fatal(err)
	}
	if own.Done != 1 || own.Canceled != 1 {
		t.Fatalf("metrics stats = %+v", own.Stats)
	}
	hist, ok := own.Telemetry.Histograms["stage."+obs.StageDetect]
	if !ok || hist.Count == 0 {
		t.Fatalf("detect stage histogram missing from /metrics: %v", own.Telemetry.Histograms)
	}
}

// TestHTTPTraceEndpoint pins GET /campaigns/{id}/trace: 404 before the
// campaign finishes (and for unknown IDs), the full StageTrace after.
func TestHTTPTraceEndpoint(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	cl := &Client{Base: srv.URL, HTTP: srv.Client()}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	if _, err := cl.Trace(ctx, "c999999"); err == nil {
		t.Fatal("trace of unknown campaign should 404")
	}
	st, err := cl.Submit(ctx, fastSpec("9sym", 1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Wait(ctx, st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := cl.Trace(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Campaign != st.ID || len(tr.Stages) == 0 || tr.WallUs <= 0 {
		t.Fatalf("trace = %+v", tr)
	}
	if res.Trace == nil || len(res.Trace.Stages) != len(tr.Stages) {
		t.Fatalf("trace endpoint (%d stages) disagrees with result (%+v)",
			len(tr.Stages), res.Trace)
	}
	if tr.Stage(obs.StageDetect) == nil || tr.Stage(obs.StageQueue) == nil {
		t.Fatalf("trace missing core stages: %+v", tr.Stages)
	}
}

// TestHTTPErrorPathsStayHealthy drives every documented error path in
// one session — malformed submissions, unknown IDs on each routed
// endpoint, a cancel racing completion — asserting the status codes and
// that the daemon keeps serving real work afterwards.
func TestHTTPErrorPathsStayHealthy(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	ctx := context.Background()

	post := func(path, body string) int {
		resp, err := srv.Client().Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		return resp.StatusCode
	}
	get := func(path string) int {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		return resp.StatusCode
	}

	// Malformed spec bodies must all be rejected with 400.
	badSpecs := []struct{ name, body string }{
		{"truncated JSON", "{"},
		{"wrong type", `{"design":5}`},
		{"JSON array", `[]`},
		{"empty body", ""},
		{"spec over the 64KiB body cap", `{"design":"` + strings.Repeat("a", 70<<10) + `"}`},
	}
	for _, bad := range badSpecs {
		if code := post("/campaigns", bad.body); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", bad.name, code)
		}
	}

	// Unknown and syntactically hostile IDs on every {id} route: 404,
	// never a panic or a 500.
	for _, id := range []string{"c999999", "bogus", "%2e%2e"} {
		if code := get("/campaigns/" + id + "/trace"); code != http.StatusNotFound {
			t.Errorf("trace of %q: status %d, want 404", id, code)
		}
		if code := post("/campaigns/"+id+"/cancel", ""); code != http.StatusNotFound {
			t.Errorf("cancel of %q: status %d, want 404", id, code)
		}
		if code := get("/campaigns/" + id + "/events"); code != http.StatusNotFound {
			t.Errorf("events of %q: status %d, want 404", id, code)
		}
	}

	// Cancel racing completion: canceling a finished campaign is the
	// documented no-op — 200, and the campaign stays done with its result.
	id, err := svc.Submit(fastSpec("9sym", 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Wait(ctx, id); err != nil {
		t.Fatal(err)
	}
	if code := post("/campaigns/"+id+"/cancel", ""); code != http.StatusOK {
		t.Fatalf("cancel after done: status %d, want 200", code)
	}
	st, err := svc.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.Result == nil {
		t.Fatalf("cancel-after-done mutated the campaign: %+v", st)
	}

	// The gauntlet must leave the daemon fully serviceable.
	resp, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		OK bool `json:"ok"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !health.OK {
		t.Fatalf("healthz after error gauntlet: %d ok=%v", resp.StatusCode, health.OK)
	}
	id2, err := svc.Submit(fastSpec("9sym", 2))
	if err != nil {
		t.Fatal(err)
	}
	if res, err := svc.Wait(ctx, id2); err != nil || res.Digest == "" {
		t.Fatalf("campaign after error gauntlet: %v %+v", err, res)
	}
}

// TestHTTPRejectsOverCeilingSpec posts specs past the Spec ceilings. Each
// must get 400 before it reaches a worker (the words one used to panic
// the daemon in stimulus generation), and the daemon keeps answering.
func TestHTTPRejectsOverCeilingSpec(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	for _, body := range []string{
		`{"design":"9sym","words":1152921504606846976}`,
		`{"design":"9sym","cycles":1152921504606846976}`,
		`{"design":"9sym","kind":"faultscan","patterns":1152921504606846976}`,
		`{"design":"9sym","max_rounds":65}`,
	} {
		resp, err := srv.Client().Post(srv.URL+"/campaigns", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", body, resp.StatusCode)
		}
	}
	resp, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after over-ceiling specs: %d", resp.StatusCode)
	}
	if n := svc.Stats().Submitted; n != 0 {
		t.Fatalf("%d over-ceiling specs were queued", n)
	}
}
