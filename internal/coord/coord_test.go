package coord

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"fpgadbg/internal/service"
)

func fastSpec(design string, faultSeed int64) service.Spec {
	return service.Spec{
		Design: design, FaultSeed: faultSeed,
		PlaceEffort: 0.3, TileFrac: 0.25, Words: 4, Cycles: 2,
	}
}

func TestShardStableAndInRange(t *testing.T) {
	designs := []string{"9sym", "styr", "sand", "c499", "planet1", "c880"}
	for _, d := range designs {
		a, b := Shard(d, 4), Shard(d, 4)
		if a != b {
			t.Fatalf("shard of %s not stable: %d vs %d", d, a, b)
		}
		if a < 0 || a >= 4 {
			t.Fatalf("shard of %s out of range: %d", d, a)
		}
	}
	if Shard("anything", 1) != 0 {
		t.Fatal("single replica must shard to 0")
	}
}

func TestCoordinatorRoutesByDesign(t *testing.T) {
	co, err := New(Config{Replicas: 2, StealMargin: -1, // no stealing: pure affinity
		Service: service.Config{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	id1, err := co.Submit(fastSpec("9sym", 1))
	if err != nil {
		t.Fatal(err)
	}
	id2, err := co.Submit(fastSpec("9sym", 2))
	if err != nil {
		t.Fatal(err)
	}
	home := Shard("9sym", 2)
	for _, id := range []string{id1, id2} {
		if !strings.HasPrefix(id, "r"+string(rune('0'+home))+"-") {
			t.Fatalf("campaign %s not routed to home replica %d", id, home)
		}
		if _, err := co.Wait(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}
	rs := co.RouteStats()
	if rs.Routed[home] != 2 || rs.Steals != 0 {
		t.Fatalf("routing = %+v, want both on replica %d with no steals", rs, home)
	}
}

// TestDefaultDesignMixUsesEveryReplica checks that 9sym and c880, the
// two-design mix the service tests use, shard apart: routed by design
// affinity alone, a mixed burst leaves neither of two replicas idle.
func TestDefaultDesignMixUsesEveryReplica(t *testing.T) {
	co, err := New(Config{Replicas: 2, StealMargin: -1, // no stealing: pure affinity
		Service: service.Config{Workers: -1}})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	for _, d := range []string{"9sym", "c880"} {
		for fs := int64(1); fs <= 2; fs++ {
			if _, err := co.Submit(fastSpec(d, fs)); err != nil {
				t.Fatal(err)
			}
		}
	}
	rs := co.RouteStats()
	if rs.Routed[0] == 0 || rs.Routed[1] == 0 || rs.Steals != 0 {
		t.Fatalf("design mix left a replica idle: %+v", rs)
	}
}

func TestCoordinatorStealsOnImbalance(t *testing.T) {
	// No workers: queues only grow, so depth imbalance is deterministic.
	co, err := New(Config{Replicas: 2, StealMargin: 1,
		Service: service.Config{Workers: -1}})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	// Everything targets one design → one home replica; once its queue
	// is 2 deeper than the idle one, submissions spill over.
	for i := 0; i < 6; i++ {
		if _, err := co.Submit(fastSpec("9sym", int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	rs := co.RouteStats()
	if rs.Steals == 0 {
		t.Fatalf("no steals despite one-sided load: %+v", rs)
	}
	if rs.Routed[0] == 0 || rs.Routed[1] == 0 {
		t.Fatalf("steals did not spread load: %+v", rs)
	}
}

func TestCoordinatorPublicIDsRoundTrip(t *testing.T) {
	co, err := New(Config{Replicas: 3, Service: service.Config{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	id, err := co.Submit(fastSpec("styr", 3))
	if err != nil {
		t.Fatal(err)
	}
	res, err := co.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	st, err := co.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != id || st.State != service.StateDone {
		t.Fatalf("status = %+v, want done under public ID %s", st, id)
	}
	tr, err := co.Trace(id)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Campaign != id {
		t.Fatalf("trace campaign = %s, want public ID %s", tr.Campaign, id)
	}
	if res.Digest == "" {
		t.Fatal("missing digest")
	}
	found := false
	for _, s := range co.List() {
		if s.ID == id {
			found = true
		}
	}
	if !found {
		t.Fatalf("List() lost campaign %s", id)
	}
	// Unknown and malformed IDs fail cleanly.
	if _, err := co.Status("r9-c000001"); err == nil {
		t.Fatal("out-of-range replica accepted")
	}
	if _, err := co.Status("bogus"); err == nil {
		t.Fatal("malformed ID accepted")
	}
}

// TestCoordinatorDurableRestart is the sharded version of the service
// resume test: kill two durable replicas with queued work, reopen the
// coordinator on the same data dir, and the campaigns must finish with
// digests identical to uninterrupted runs.
func TestCoordinatorDurableRestart(t *testing.T) {
	specs := []service.Spec{fastSpec("9sym", 11), fastSpec("styr", 12)}
	want := make(map[string]string) // design → digest
	for _, sp := range specs {
		svc := service.New(service.Config{Workers: 1})
		id, err := svc.Submit(sp)
		if err != nil {
			t.Fatal(err)
		}
		res, err := svc.Wait(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		want[sp.Design] = res.Digest
		svc.Close()
	}

	dir := t.TempDir()
	co, err := New(Config{Replicas: 2, DataDir: dir,
		Service: service.Config{Workers: -1}}) // queue only: simulate dying mid-queue
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, len(specs))
	for i, sp := range specs {
		ids[i], err = co.Submit(sp)
		if err != nil {
			t.Fatal(err)
		}
	}
	co.Close() // graceful close leaves queued campaigns journaled as queued

	co2, err := New(Config{Replicas: 2, DataDir: dir,
		Service: service.Config{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer co2.Close()
	for i, sp := range specs {
		res, err := co2.Wait(context.Background(), ids[i])
		if err != nil {
			t.Fatalf("restarted campaign %s: %v", ids[i], err)
		}
		if res.Digest != want[sp.Design] {
			t.Fatalf("campaign %s digest %s, want %s", ids[i], res.Digest, want[sp.Design])
		}
	}
	if rec := co2.Stats().Recovered; rec != int64(len(specs)) {
		t.Fatalf("recovered = %d, want %d", rec, len(specs))
	}
}

// TestCoordinatorHTTPAndMetrics mounts the shared REST handler over the
// coordinator and checks the routed surface end to end, including the
// /metrics document's per-replica section.
func TestCoordinatorHTTPAndMetrics(t *testing.T) {
	co, err := New(Config{Replicas: 2, Service: service.Config{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	srv := httptest.NewServer(service.NewHandler(co))
	defer srv.Close()

	resp, err := srv.Client().Post(srv.URL+"/campaigns", "application/json",
		strings.NewReader(`{"design":"9sym","fault_seed":1,"place_effort":0.3,"tile_frac":0.25,"words":4,"cycles":2}`))
	if err != nil {
		t.Fatal(err)
	}
	var st service.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 201 || !strings.HasPrefix(st.ID, "r") {
		t.Fatalf("submit: %d %+v", resp.StatusCode, st)
	}
	if _, err := co.Wait(context.Background(), st.ID); err != nil {
		t.Fatal(err)
	}

	resp, err = srv.Client().Get(srv.URL + "/campaigns/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var got service.Status
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got.State != service.StateDone || got.Result == nil {
		t.Fatalf("status over HTTP = %+v", got)
	}

	resp, err = srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	var own struct {
		Routing  RouteStats        `json:"routing"`
		Replicas []json.RawMessage `json:"replicas"`
	}
	if err := json.Unmarshal(doc["fpgadbgd"], &own); err != nil {
		t.Fatal(err)
	}
	if len(own.Replicas) != 2 || len(own.Routing.Routed) != 2 {
		t.Fatalf("metrics doc = %s", doc["fpgadbgd"])
	}
}
