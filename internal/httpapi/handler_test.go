package httpapi

// Behavior tests for the HTTP surface beyond the recorded corpus:
// streaming NDJSON framing and ordering, envelope/endpoint op agreement,
// the structured /v1/pool error shape, and method discipline.

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func postBody(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestV1PoolErrorShape asserts the satellite fix: a /v1/pool parse error
// is a structured error envelope — code, message, retryable — not a bare
// string.
func TestV1PoolErrorShape(t *testing.T) {
	h := newTestHandler(t)
	rec := postBody(t, h, "/v1/pool", `{"stmt": "FROBNICATE everything"}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", rec.Code)
	}
	var body struct {
		Error *struct {
			Code      string `json:"code"`
			Message   string `json:"message"`
			Retryable *bool  `json:"retryable"`
		} `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("body is not JSON: %v\n%s", err, rec.Body.String())
	}
	if body.Error == nil {
		t.Fatalf("no error envelope in %s", rec.Body.String())
	}
	if body.Error.Code != "bad_request" {
		t.Errorf("code = %q, want bad_request", body.Error.Code)
	}
	if body.Error.Message == "" {
		t.Error("empty message")
	}
	if body.Error.Retryable == nil || *body.Error.Retryable {
		t.Error("retryable must be present and false")
	}
}

// decodeNDJSON reads every record from a streaming response body.
func decodeNDJSON(t *testing.T, body string) []map[string]any {
	t.Helper()
	var out []map[string]any
	sc := bufio.NewScanner(strings.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		out = append(out, rec)
	}
	return out
}

// TestV2QueryStreamNDJSON: the stream is framed columns → rows → trailer,
// row records precede the trailer (rows reach the client before the
// narration — and therefore before execution finished), and the trailer
// carries the full envelope with consistent cardinality.
func TestV2QueryStreamNDJSON(t *testing.T) {
	h := newTestHandler(t)
	rec := postBody(t, h, "/v2/query?stream=ndjson",
		`{"sql": "SELECT c_name FROM customer ORDER BY c_name"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d\n%s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content-type = %q", ct)
	}
	records := decodeNDJSON(t, rec.Body.String())
	if len(records) < 3 {
		t.Fatalf("only %d records", len(records))
	}
	if records[0]["record"] != "columns" {
		t.Fatalf("first record = %v, want columns", records[0]["record"])
	}
	rows := 0
	for _, r := range records[1 : len(records)-1] {
		if r["record"] != "row" {
			t.Fatalf("mid-stream record = %v, want row", r["record"])
		}
		rows++
	}
	last := records[len(records)-1]
	if last["record"] != "trailer" {
		t.Fatalf("last record = %v, want trailer", last["record"])
	}
	resp := last["response"].(map[string]any)
	q := resp["query"].(map[string]any)
	if int(q["row_count"].(float64)) != rows {
		t.Fatalf("trailer row_count %v != %d streamed rows", q["row_count"], rows)
	}
	if q["text"].(string) == "" {
		t.Fatal("trailer narration empty")
	}
	if _, reEchoed := q["rows"]; reEchoed {
		t.Fatal("trailer must not re-echo streamed rows")
	}
}

// TestV2QueryStreamEarlyClose: a client abandoning an NDJSON stream
// mid-iteration must not leave partial results in the narration cache. The
// abandoned execution carries partial actuals (the engine marks such
// streams incomplete — Cursor.Complete), so the first complete run
// of the same SQL must still be a cache miss, and only the complete run
// may populate the cache. The server must also stay fully serviceable
// after the disconnect.
func TestV2QueryStreamEarlyClose(t *testing.T) {
	h := newTestHandler(t)
	srv := httptest.NewServer(h)
	defer srv.Close()

	// The result must be far larger than the kernel socket buffers, so the
	// server is still mid-stream (blocked on a flush or observing the
	// canceled context) when the client hangs up — a small result would
	// race: the server could drain it to completion before the disconnect
	// and legitimately cache it.
	const body = `{"sql": "SELECT l1.l_orderkey, l2.l_linenumber FROM lineitem l1, lineitem l2 WHERE l1.l_orderkey <= l2.l_orderkey"}`
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		srv.URL+"/v2/query?stream=ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read the columns record and two rows, then hang up mid-stream.
	br := bufio.NewReader(resp.Body)
	for i := 0; i < 3; i++ {
		if _, err := br.ReadString('\n'); err != nil {
			t.Fatalf("reading stream record %d: %v", i, err)
		}
	}
	cancel()
	resp.Body.Close()
	time.Sleep(50 * time.Millisecond) // let the server side observe the disconnect

	runUnary := func() map[string]any {
		t.Helper()
		rec := postBody(t, h, "/v2/query", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("unary query after aborted stream: status = %d\n%s", rec.Code, rec.Body.String())
		}
		var envelope map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &envelope); err != nil {
			t.Fatalf("unary response not JSON: %v", err)
		}
		return envelope["query"].(map[string]any)
	}
	q1 := runUnary()
	if q1["cached"] == true {
		t.Fatal("first complete run was a cache hit: the aborted stream populated the narration cache")
	}
	if q1["partial"] == true {
		t.Fatal("unary query marked partial")
	}
	q2 := runUnary()
	if q2["cached"] != true {
		t.Fatal("second complete run missed the cache: caching broken after aborted stream")
	}
}

// TestV2QueryStreamErrors: pre-stream failures are regular error
// envelopes with a status; unknown stream formats are rejected.
func TestV2QueryStreamErrors(t *testing.T) {
	h := newTestHandler(t)
	rec := postBody(t, h, "/v2/query?stream=ndjson", `{"sql": "SELECT FROM"}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad sql: status = %d", rec.Code)
	}
	var resp struct {
		Error struct{ Code string }
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.Error.Code != "bad_request" {
		t.Fatalf("bad sql envelope: %s", rec.Body.String())
	}

	rec = postBody(t, h, "/v2/query?stream=csv", `{"sql": "SELECT c_name FROM customer"}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("unknown format: status = %d", rec.Code)
	}
}

// TestV2OpEndpointAgreement: a pinned endpoint fills an omitted op and
// rejects a contradicting one.
func TestV2OpEndpointAgreement(t *testing.T) {
	h := newTestHandler(t)
	rec := postBody(t, h, "/v2/narrate",
		`{"op": "query", "sql": "SELECT c_name FROM customer"}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("op mismatch: status = %d\n%s", rec.Code, rec.Body.String())
	}
	rec = postBody(t, h, "/v2/qa",
		`{"sql": "SELECT c_name FROM customer", "question": "how many steps are there?"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("implied op: status = %d\n%s", rec.Code, rec.Body.String())
	}
}

// TestMethodDiscipline: POST-only op endpoints refuse GET, admin
// endpoints refuse POST.
func TestMethodDiscipline(t *testing.T) {
	h := newTestHandler(t)
	for _, path := range []string{"/v1/narrate", "/v2/do", "/v2/query"} {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("GET %s: status = %d", path, rec.Code)
		}
		// v2 refusals keep the structured envelope; v1 keeps the legacy
		// bare-string shape.
		if strings.HasPrefix(path, "/v2/") {
			var resp struct {
				Error *struct{ Code string }
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.Error == nil || resp.Error.Code == "" {
				t.Errorf("GET %s: body is not an envelope error: %s", path, rec.Body.String())
			}
		}
	}
	rec := postBody(t, h, "/v1/healthz", `{}`)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/healthz: status = %d", rec.Code)
	}
}
