package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"testing"

	"mlnclean/internal/wal"
)

// The session API once accepted two pipeline switches, since retired. Old
// clients may still send them and old logs still hold them; both must
// create the same session as a request without them. The switches live
// only in testdata: retired_create_fields.json is the JSON a client sent,
// retired_create_record.gob a WAL create record encoded by the release
// whose CreateRequest still had them, for the request retiredReq returns
// plus those two fields set to true.

// retiredReq is the create request both fixtures carry, minus the retired
// fields.
func retiredReq() CreateRequest {
	return CreateRequest{
		Rules: testRules, Attrs: []string{"CT", "ST"},
		Workers: 2, BatchSize: 4, Seed: 1, Tau: 1,
	}
}

// retiredBatches is a small dirty CT → ST table split into two shipments.
var retiredBatches = [][][]string{
	{{"DOTHAN", "AL"}, {"DOTHAN", "AL"}, {"DOTHAN", "AK"}, {"BOAZ", "AL"}, {"BOAZ", "AL"}, {"BOAZ", "AL"}},
	{{"DOTHN", "AL"}, {"MOBILE", "AL"}, {"MOBILE", "AL"}, {"MOBILE", "AK"}, {"BOAZ", "AK"}, {"DOTHAN", "AL"}},
}

// resultBytes renders a version-1 result with its wall time zeroed, the
// only field that legitimately differs between two runs.
func resultBytes(t *testing.T, res ResultResponse) string {
	t.Helper()
	res.WallMS = 0
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// cleanFresh creates a session from body on a fresh server, streams the
// table, cleans it, and returns version 1 of the result.
func cleanFresh(t *testing.T, body any) ResultResponse {
	t.Helper()
	srv := newTestServer(t, ManagerConfig{})
	defer srv.Shutdown()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := &client{t: t, base: ts.URL}
	var info SessionInfo
	if code := c.do("POST", "/v1/sessions", body, &info); code != http.StatusCreated {
		t.Fatalf("create session: status %d", code)
	}
	submitBatches(c, info.ID, retiredBatches)
	startClean(c, info.ID)
	pollDone(c, info.ID)
	res := getResult(c, info.ID)
	if res.Version != 1 {
		t.Fatalf("result version %d, want 1", res.Version)
	}
	return res
}

// TestCreateIgnoresRetiredFields: a create body that still carries the
// retired switches is accepted and serves the same version-1 bytes as the
// same request without them.
func TestCreateIgnoresRetiredFields(t *testing.T) {
	raw, err := os.ReadFile("testdata/retired_create_fields.json")
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]any
	b, err := json.Marshal(retiredReq())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &body); err != nil {
		t.Fatal(err)
	}
	var retired map[string]any
	if err := json.Unmarshal(raw, &retired); err != nil {
		t.Fatal(err)
	}
	if len(retired) == 0 {
		t.Fatal("retired-fields fixture is empty")
	}
	for k, v := range retired {
		if _, ok := body[k]; ok {
			t.Fatalf("fixture field %q is a live CreateRequest field", k)
		}
		body[k] = v
	}
	want := resultBytes(t, cleanFresh(t, retiredReq()))
	if got := resultBytes(t, cleanFresh(t, body)); got != want {
		t.Errorf("retired fields changed the result:\n got %s\nwant %s", got, want)
	}
}

// TestWALReplaysRetiredCreateRecord: a logged create record that still
// carries the retired switches decodes to the current request and recovers
// to a session that cleans to the same bytes as a fresh one.
func TestWALReplaysRetiredCreateRecord(t *testing.T) {
	payload, err := os.ReadFile("testdata/retired_create_record.gob")
	if err != nil {
		t.Fatal(err)
	}
	rec, err := decodeRecord(payload)
	if err != nil {
		t.Fatal(err)
	}
	wantRec := recCreate{ID: "s-1", Req: retiredReq(), Created: 1, RunID: "00000000000000aa"}
	if !reflect.DeepEqual(rec, wantRec) {
		t.Fatalf("decoded %+v, want %+v", rec, wantRec)
	}

	fs := wal.NewMemFS(wal.FaultPlan{})
	lg, _, err := wal.Open(fs, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := lg.Append(payload); err != nil {
		t.Fatal(err)
	}
	for _, rows := range retiredBatches {
		b, err := encodeRecord(recBatch{ID: "s-1", Rows: rows})
		if err != nil {
			t.Fatal(err)
		}
		if err := lg.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}

	srv := newTestServer(t, ManagerConfig{WALFS: fs})
	defer srv.Shutdown()
	if r := srv.Recovery(); r == nil || r.SessionsReplayed != 1 {
		t.Fatalf("recovery = %+v, want 1 replayed session", r)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := &client{t: t, base: ts.URL}
	var info SessionInfo
	if code := c.do("GET", "/v1/sessions/s-1", nil, &info); code != http.StatusOK {
		t.Fatalf("recovered session: status %d", code)
	}
	if info.State != StateOpen || info.Tuples != 12 || info.RunID != "00000000000000aa" {
		t.Fatalf("recovered session %+v, want open with 12 tuples and the logged run ID", info)
	}
	startClean(c, "s-1")
	pollDone(c, "s-1")
	want := resultBytes(t, cleanFresh(t, retiredReq()))
	if got := resultBytes(t, getResult(c, "s-1")); got != want {
		t.Errorf("recovered session cleans differently:\n got %s\nwant %s", got, want)
	}
}
