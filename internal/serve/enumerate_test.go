package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

func enumerate(t *testing.T, ts *httptest.Server, name, body string, wantStatus int) EnumerateResponse {
	t.Helper()
	data := request(t, ts, "POST", "/v1/graphs/"+name+"/enumerate", "application/json", body, wantStatus)
	var out EnumerateResponse
	if wantStatus == http.StatusOK {
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatalf("enumerate response: %v; body: %s", err, data)
		}
	}
	return out
}

func TestServeEnumerateEndToEnd(t *testing.T) {
	_, ts := startServer(t, Config{})
	createGraph(t, ts, "g", testGraphText)

	// The balanced K4 has exactly one maximum (2,0)-fair clique.
	r := enumerate(t, ts, "g", `{"k":2,"delta":0}`, http.StatusOK)
	if r.Size != 4 || r.Count != 1 || len(r.Cliques) != 1 {
		t.Fatalf("enumerate (2,0): %+v; want one size-4 clique", r)
	}
	if got := r.Cliques[0]; len(got) != 4 || got[0] != 0 || got[3] != 3 {
		t.Fatalf("clique %v; want [0 1 2 3]", got)
	}
	if r.Counts[0] != [2]int{2, 2} {
		t.Fatalf("counts %v; want [2 2]", r.Counts[0])
	}
	if !r.Exact || r.Cached || r.Gap != 0 {
		t.Fatalf("exactness/caching wrong: %+v", r)
	}

	// Identical cell: served from the entry's enumeration cache.
	if r = enumerate(t, ts, "g", `{"k":2,"delta":0}`, http.StatusOK); !r.Cached {
		t.Fatal("second identical enumerate missed the cache")
	}

	// Top-r is keyed separately from the full set and respects r.
	r = enumerate(t, ts, "g", `{"k":1,"delta":3,"r":2}`, http.StatusOK)
	if r.Cached {
		t.Fatal("top-r answer claims the full-set cache entry")
	}
	if r.Count > 2 || r.Count != len(r.Cliques) {
		t.Fatalf("top-2 returned %d cliques", r.Count)
	}

	// Validation: negative r, bad mode, unknown graph.
	enumerate(t, ts, "g", `{"k":2,"r":-1}`, http.StatusBadRequest)
	enumerate(t, ts, "g", `{"k":2,"mode":"bogus"}`, http.StatusBadRequest)
	enumerate(t, ts, "nope", `{"k":2}`, http.StatusNotFound)

	// A mutation moves the epoch; the next enumerate flushes the
	// buffer and answers against the new graph, where vertex 5 extends
	// {0,1,2,3} to the unique size-5 (2,1)-fair optimum.
	request(t, ts, "POST", "/v1/graphs/g/mutate", "text/plain", "+v:b\n+e:5:0 +e:5:1 +e:5:2 +e:5:3", http.StatusOK)
	r = enumerate(t, ts, "g", `{"k":2,"delta":1}`, http.StatusOK)
	if r.Epoch != 1 || r.Cached {
		t.Fatalf("post-mutate enumerate: epoch %d cached %v", r.Epoch, r.Cached)
	}
	if r.Size != 5 || r.Count != 1 {
		t.Fatalf("post-mutate (2,1): %+v; want one size-5 clique", r)
	}
}

// Every error, on every endpoint, is the single envelope
// {"error": {code, message, line}}.
func TestServeErrorEnvelope(t *testing.T) {
	s, ts := startServer(t, Config{Blacklist: []string{"mallory"}})
	createGraph(t, ts, "g", testGraphText)

	decode := func(data []byte) ErrorEnvelope {
		t.Helper()
		var env ErrorEnvelope
		if err := json.Unmarshal(data, &env); err != nil {
			t.Fatalf("error body is not the envelope: %v; body: %s", err, data)
		}
		if env.Error.Code == "" || env.Error.Message == "" {
			t.Fatalf("envelope missing code/message: %s", data)
		}
		return env
	}

	// 404 → not_found.
	env := decode(request(t, ts, "GET", "/v1/graphs/nope", "", "", http.StatusNotFound))
	if env.Error.Code != "not_found" {
		t.Fatalf("code %q; want not_found", env.Error.Code)
	}

	// Duplicate create → conflict.
	body, _ := json.Marshal(CreateRequest{Name: "g", Text: testGraphText})
	env = decode(request(t, ts, "POST", "/v1/graphs", "application/json", string(body), http.StatusConflict))
	if env.Error.Code != "conflict" {
		t.Fatalf("code %q; want conflict", env.Error.Code)
	}

	// Line-numbered upload failure → bad_request with the line field.
	env = decode(request(t, ts, "POST", "/v1/graphs?name=bad", "text/plain", "v 0 a\nwhat is this\n", http.StatusBadRequest))
	if env.Error.Code != "bad_request" || env.Error.Line == 0 {
		t.Fatalf("upload failure envelope %+v; want bad_request with a line", env.Error)
	}

	// Blacklisted client → forbidden.
	req, _ := http.NewRequest("GET", ts.URL+"/v1/graphs", nil)
	req.Header.Set("X-Client", "mallory")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env2 ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env2); err != nil || env2.Error.Code != "forbidden" {
		t.Fatalf("blacklist envelope %+v (err %v); want forbidden", env2, err)
	}

	// A corrupted write buffer → flush_failed on the 500.
	e, ok := s.reg.Get("g")
	if !ok {
		t.Fatal("graph not registered")
	}
	e.mu.Lock()
	e.buf.edges[[2]int{0, 999}] = false
	e.buf.ops = 1
	e.mu.Unlock()
	env = decode(request(t, ts, "POST", "/v1/graphs/g/enumerate", "application/json", `{"k":2}`, http.StatusInternalServerError))
	if env.Error.Code != "flush_failed" {
		t.Fatalf("code %q; want flush_failed", env.Error.Code)
	}
	e.mu.Lock()
	e.buf.reset()
	e.mu.Unlock()
}

// The unversioned pre-/v1 paths are gone: each old route answers 404
// (no redirect, no handler), and the /v1 surface still serves.
func TestLegacyPathsGone(t *testing.T) {
	_, ts := startServer(t, Config{})
	createGraph(t, ts, "g", testGraphText)

	for _, c := range []struct{ method, path string }{
		{"GET", "/healthz"}, {"GET", "/metrics"},
		{"GET", "/graphs"}, {"POST", "/graphs?name=x"},
		{"GET", "/graphs/g"}, {"DELETE", "/graphs/g"},
		{"POST", "/graphs/g/query"}, {"POST", "/graphs/g/grid"},
		{"POST", "/graphs/g/mutate"}, {"POST", "/graphs/g/flush"},
	} {
		request(t, ts, c.method, c.path, "application/json", `{"k":2,"delta":0}`, http.StatusNotFound)
	}
	request(t, ts, "GET", "/v1/healthz", "", "", http.StatusOK)
	if r := queryGraph(t, ts, "g", QueryRequest{K: 2, Delta: 0}, http.StatusOK); r.Size != 4 {
		t.Fatalf("/v1 query after the legacy calls: size %d, want 4", r.Size)
	}
}
