package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"

	"fairclique"
)

// testGraphText is a balanced K4 {0,1,2,3} (attrs a,a,b,b) plus a
// pendant vertex 4. Max (2,0)-fair clique: {0,1,2,3}, size 4.
const testGraphText = `# test graph
v 0 a
v 1 a
v 2 b
v 3 b
v 4 a
e 0 1
e 0 2
e 0 3
e 1 2
e 1 3
e 2 3
e 0 4
`

func startServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// request performs one HTTP call and asserts the status code.
func request(t *testing.T, ts *httptest.Server, method, path, contentType, body string, wantStatus int) []byte {
	t.Helper()
	req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("%s %s: status %d, want %d; body: %s", method, path, resp.StatusCode, wantStatus, data)
	}
	return data
}

func createGraph(t *testing.T, ts *httptest.Server, name, text string) {
	t.Helper()
	body, _ := json.Marshal(CreateRequest{Name: name, Text: text})
	request(t, ts, "POST", "/v1/graphs", "application/json", string(body), http.StatusCreated)
}

func queryGraph(t *testing.T, ts *httptest.Server, name string, q QueryRequest, wantStatus int) QueryResponse {
	t.Helper()
	body, _ := json.Marshal(q)
	data := request(t, ts, "POST", "/v1/graphs/"+name+"/query", "application/json", string(body), wantStatus)
	var out QueryResponse
	if wantStatus == http.StatusOK {
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatalf("query response: %v; body: %s", err, data)
		}
	}
	return out
}

func TestServeEndToEnd(t *testing.T) {
	_, ts := startServer(t, Config{})

	request(t, ts, "GET", "/v1/healthz", "", "", http.StatusOK)
	createGraph(t, ts, "g", testGraphText)

	// Duplicate name is a conflict.
	body, _ := json.Marshal(CreateRequest{Name: "g", Text: testGraphText})
	request(t, ts, "POST", "/v1/graphs", "application/json", string(body), http.StatusConflict)

	// Info reflects the parsed graph.
	var info GraphInfoResponse
	if err := json.Unmarshal(request(t, ts, "GET", "/v1/graphs/g", "", "", http.StatusOK), &info); err != nil {
		t.Fatal(err)
	}
	if info.Vertices != 5 || info.Edges != 7 {
		t.Fatalf("info = %d vertices, %d edges; want 5, 7", info.Vertices, info.Edges)
	}

	// First query computes, second hits the cache.
	q := QueryRequest{K: 2, Delta: 0}
	r1 := queryGraph(t, ts, "g", q, http.StatusOK)
	if r1.Size != 4 || r1.CountA != 2 || r1.CountB != 2 || !r1.Exact || r1.Cached {
		t.Fatalf("first query = %+v; want size 4, 2/2, exact, uncached", r1)
	}
	r2 := queryGraph(t, ts, "g", q, http.StatusOK)
	if !r2.Cached || r2.Size != r1.Size {
		t.Fatalf("second query = %+v; want cached with same size", r2)
	}

	// Modes round through the session; an unknown mode is a 400.
	if r := queryGraph(t, ts, "g", QueryRequest{K: 2, Mode: "strong"}, http.StatusOK); r.Size != 4 {
		t.Fatalf("strong query size = %d; want 4", r.Size)
	}
	queryGraph(t, ts, "g", QueryRequest{K: 2, Mode: "bogus"}, http.StatusBadRequest)
	queryGraph(t, ts, "nope", QueryRequest{K: 2}, http.StatusNotFound)

	// Grid answers many cells at once, reusing cached ones.
	gb, _ := json.Marshal(GridRequest{Cells: []QueryRequest{{K: 1, Delta: 1}, {K: 2, Delta: 0}}})
	var grid GridResponse
	if err := json.Unmarshal(request(t, ts, "POST", "/v1/graphs/g/grid", "application/json", string(gb), http.StatusOK), &grid); err != nil {
		t.Fatal(err)
	}
	if len(grid.Results) != 2 {
		t.Fatalf("grid returned %d results; want 2", len(grid.Results))
	}
	if !grid.Results[1].Cached {
		t.Fatal("grid cell (2,0) was answered before; want a cache hit")
	}
	if grid.Results[0].Size < grid.Results[1].Size {
		t.Fatalf("monotonicity broken: opt(1,1)=%d < opt(2,0)=%d", grid.Results[0].Size, grid.Results[1].Size)
	}

	// List and delete.
	var list struct {
		Graphs []GraphInfo `json:"graphs"`
	}
	if err := json.Unmarshal(request(t, ts, "GET", "/v1/graphs", "", "", http.StatusOK), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Graphs) != 1 || list.Graphs[0].Name != "g" {
		t.Fatalf("list = %+v; want [g]", list.Graphs)
	}
	request(t, ts, "DELETE", "/v1/graphs/g", "", "", http.StatusOK)
	request(t, ts, "DELETE", "/v1/graphs/g", "", "", http.StatusNotFound)
	queryGraph(t, ts, "g", q, http.StatusNotFound)
}

// GET /v1/graphs/{name} sends session_stats under exactly these
// snake_case keys: no Go field names, and none of the five deprecated
// counters that are always 0.
func TestGraphInfoSessionStatsKeys(t *testing.T) {
	_, ts := startServer(t, Config{})
	createGraph(t, ts, "g", testGraphText)
	queryGraph(t, ts, "g", QueryRequest{K: 2, Delta: 0}, http.StatusOK)
	var info struct {
		SessionStats map[string]int64 `json:"session_stats"`
	}
	if err := json.Unmarshal(request(t, ts, "GET", "/v1/graphs/g", "", "", http.StatusOK), &info); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"applies", "bound_checks", "bound_injections", "bound_prunes",
		"comp_preps_reused", "dominance_skips", "enum_cache_hits",
		"enum_maintained", "enum_recomputed", "enumerations", "epoch", "nodes",
		"pool_dropped", "pool_retained", "queries", "reduction_builds",
		"reduction_chained", "reduction_reuses", "seed_injections",
		"snapshots_patched", "snapshots_reused", "snapshots_rippled",
		"warm_starts",
	}
	got := slices.Sorted(maps.Keys(info.SessionStats))
	if !slices.Equal(got, want) {
		t.Fatalf("session_stats keys %v, want %v", got, want)
	}
	if info.SessionStats["queries"] != 1 || info.SessionStats["reduction_builds"] != 1 {
		t.Fatalf("session_stats %v: want 1 query and 1 reduction build", info.SessionStats)
	}
}

func TestServeRawUploadAndLimits(t *testing.T) {
	_, ts := startServer(t, Config{MaxVertices: 100, MaxEdges: 10})

	// Raw text/plain upload.
	request(t, ts, "POST", "/v1/graphs?name=raw", "text/plain", testGraphText, http.StatusCreated)
	if r := queryGraph(t, ts, "raw", QueryRequest{K: 2}, http.StatusOK); r.Size != 4 {
		t.Fatalf("uploaded graph query size = %d; want 4", r.Size)
	}

	// Garbage and oversized uploads die with line-numbered 400s.
	for name, text := range map[string]string{
		"garbage":  "v 0 a\nwhat is this\n",
		"overflow": "e 0 2000000000\n",
		"toolong":  "v 0 a\n" + strings.Repeat("e 0 1\n", 11),
	} {
		data := request(t, ts, "POST", "/v1/graphs?name="+name, "text/plain", text, http.StatusBadRequest)
		if !strings.Contains(string(data), "line") {
			t.Errorf("%s upload: error %s does not name a line", name, data)
		}
	}

	// A rejected upload must not register the graph.
	request(t, ts, "GET", "/v1/graphs/garbage", "", "", http.StatusNotFound)

	// An empty name is a malformed request (409 stays reserved for
	// duplicate names).
	request(t, ts, "POST", "/v1/graphs", "text/plain", testGraphText, http.StatusBadRequest)
	body, _ := json.Marshal(CreateRequest{Name: "", Text: testGraphText})
	request(t, ts, "POST", "/v1/graphs", "application/json", string(body), http.StatusBadRequest)
}

// TestServeFlushFailureIs500: a flush failure is the server's invariant
// break, not the client's fault — query and mutate endpoints must
// answer 5xx, not 400. Reached by hand-corrupting the write buffer,
// since op validation makes a real Apply failure unreachable.
func TestServeFlushFailureIs500(t *testing.T) {
	s, ts := startServer(t, Config{})
	createGraph(t, ts, "g", testGraphText)
	e, ok := s.reg.Get("g")
	if !ok {
		t.Fatal("graph not registered")
	}
	corrupt := func() {
		e.mu.Lock()
		e.buf.edges[[2]int{0, 999}] = false
		e.buf.ops = 1
		e.mu.Unlock()
	}

	corrupt()
	qb, _ := json.Marshal(QueryRequest{K: 1, Delta: 5})
	request(t, ts, "POST", "/v1/graphs/g/query", "application/json", string(qb), http.StatusInternalServerError)
	gb, _ := json.Marshal(GridRequest{Cells: []QueryRequest{{K: 1, Delta: 5}}})
	request(t, ts, "POST", "/v1/graphs/g/grid", "application/json", string(gb), http.StatusInternalServerError)
	request(t, ts, "POST", "/v1/graphs/g/flush", "", "", http.StatusInternalServerError)

	// A malformed query on the same endpoint is still the client's 400.
	request(t, ts, "POST", "/v1/graphs/g/query", "application/json", `{"k":1,"mode":"bogus"}`, http.StatusBadRequest)

	e.mu.Lock()
	e.buf.reset()
	e.mu.Unlock()
	queryGraph(t, ts, "g", QueryRequest{K: 1, Delta: 5}, http.StatusOK)
}

// A k beyond the engine's int32 range is the client's 400, never a
// different cell: k = 2³² + 2 once answered, and cached, as k = 2.
func TestServeKBeyondInt32Is400(t *testing.T) {
	_, ts := startServer(t, Config{})
	createGraph(t, ts, "g", testGraphText)
	const big = `{"k":4294967298,"delta":0}`
	for range 2 { // nothing may be cached for the repeat to hit
		request(t, ts, "POST", "/v1/graphs/g/query", "application/json", big, http.StatusBadRequest)
	}
	request(t, ts, "POST", "/v1/graphs/g/grid", "application/json",
		`{"cells":[{"k":2,"delta":0},`+big+`]}`, http.StatusBadRequest)
	request(t, ts, "POST", "/v1/graphs/g/enumerate", "application/json", big, http.StatusBadRequest)
	if r := queryGraph(t, ts, "g", QueryRequest{K: 2, Delta: 0}, http.StatusOK); r.Size != 4 || r.Cached {
		t.Fatalf("k=2 after the rejected queries: %+v; want a fresh size-4 answer", r)
	}
}

// A deadline_ms whose nanoseconds overflow int64 is the client's 400
// on every endpoint: 9,223,372,036,855 ms once became a negative
// budget and 18,446,744,073,710 ms a 448 µs one. The largest budget
// that fits, about 292 years, never fires: the answer is exact.
func TestServeDeadlineBeyondDurationIs400(t *testing.T) {
	_, ts := startServer(t, Config{})
	createGraph(t, ts, "g", testGraphText)
	for _, ms := range []string{"9223372036855", "18446744073710"} {
		q := `{"k":2,"delta":0,"deadline_ms":` + ms + `}`
		request(t, ts, "POST", "/v1/graphs/g/query", "application/json", q, http.StatusBadRequest)
		request(t, ts, "POST", "/v1/graphs/g/grid", "application/json", `{"cells":[`+q+`]}`, http.StatusBadRequest)
		request(t, ts, "POST", "/v1/graphs/g/enumerate", "application/json", q, http.StatusBadRequest)
	}
	r := queryGraph(t, ts, "g", QueryRequest{K: 2, Delta: 0, DeadlineMs: 9223372036854}, http.StatusOK)
	if r.Size != 4 || !r.Exact {
		t.Fatalf("k=2 with a 292-year budget: %+v; want an exact size-4 answer", r)
	}
}

func TestServePathCreateGate(t *testing.T) {
	// Path create is refused unless the operator opted in.
	_, ts := startServer(t, Config{})
	body, _ := json.Marshal(CreateRequest{Name: "g", Path: "/etc/hostname"})
	request(t, ts, "POST", "/v1/graphs", "application/json", string(body), http.StatusForbidden)

	// With the gate open, a WriteGraph file round-trips through the
	// daemon: same graph, same answers.
	_, ts2 := startServer(t, Config{AllowPathCreate: true})
	g, err := fairclique.ReadGraph(strings.NewReader(testGraphText))
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/g.txt"
	var buf strings.Builder
	if err := fairclique.WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	if err := writeFile(path, buf.String()); err != nil {
		t.Fatal(err)
	}
	body, _ = json.Marshal(CreateRequest{Name: "disk", Path: path})
	request(t, ts2, "POST", "/v1/graphs", "application/json", string(body), http.StatusCreated)
	want, err := fairclique.Find(g, fairclique.DefaultOptions(2, 0))
	if err != nil {
		t.Fatal(err)
	}
	got := queryGraph(t, ts2, "disk", QueryRequest{K: 2, Delta: 0}, http.StatusOK)
	if got.Size != want.Size() || got.CountA != want.CountA || got.CountB != want.CountB {
		t.Fatalf("round-tripped answer %+v != direct Find (%d, %d/%d)", got, want.Size(), want.CountA, want.CountB)
	}
}

func writeFile(path, data string) error {
	return os.WriteFile(path, []byte(data), 0o644)
}

func TestServeMutateFlushOrderingAndCacheScope(t *testing.T) {
	_, ts := startServer(t, Config{})
	createGraph(t, ts, "g1", testGraphText)
	createGraph(t, ts, "g2", testGraphText)

	q := QueryRequest{K: 2, Delta: 0}
	for _, name := range []string{"g1", "g2"} {
		queryGraph(t, ts, name, q, http.StatusOK) // miss
		if r := queryGraph(t, ts, name, q, http.StatusOK); !r.Cached {
			t.Fatalf("%s: second query not cached", name)
		}
	}

	// Buffer a mutation on g1 only: vertex 4 (attr b via SetAttr? no —
	// add a fresh b vertex) joins the K4, growing the fair clique to
	// {0,1,2,3,new} size 5 (3 a / 2 b fails δ=0... so instead connect a
	// new b vertex to 0,1,2,3 AND pendant 4: clique {0,1,4?}) — keep it
	// simple: add edges making vertex 4 adjacent to 1,2,3 so {0,1,2,3}
	// stays max at δ=0 but (1,1) grows to 5 with counts 3a/2b.
	mb, _ := json.Marshal(MutateRequest{AddEdges: [][2]int{{4, 1}, {4, 2}, {4, 3}}})
	var mres MutateResponse
	if err := json.Unmarshal(request(t, ts, "POST", "/v1/graphs/g1/mutate", "application/json", string(mb), http.StatusOK), &mres); err != nil {
		t.Fatal(err)
	}
	if mres.BufferedOps != 3 || mres.Epoch != 0 {
		t.Fatalf("mutate = %+v; want 3 buffered ops at epoch 0 (not yet flushed)", mres)
	}

	// The buffer is invisible until a query arrives (flush barrier).
	var info GraphInfoResponse
	json.Unmarshal(request(t, ts, "GET", "/v1/graphs/g1", "", "", http.StatusOK), &info)
	if info.BufferedOps != 3 || info.Epoch != 0 || info.Edges != 7 {
		t.Fatalf("pre-query info = %+v; want buffered=3 epoch=0 edges=7", info.GraphInfo)
	}

	// The next query flushes first: it must see the new edges.
	r := queryGraph(t, ts, "g1", QueryRequest{K: 1, Delta: 1}, http.StatusOK)
	if r.Size != 5 || r.Cached || r.Epoch != 1 {
		t.Fatalf("post-mutate (1,1) query = %+v; want size 5 uncached at epoch 1", r)
	}
	// The old epoch's cache entry for (2,0) is gone: re-asking computes.
	if r := queryGraph(t, ts, "g1", q, http.StatusOK); r.Cached || r.Epoch != 1 {
		t.Fatalf("g1 (2,0) after flush = %+v; want uncached at epoch 1", r)
	}
	// g2 was not mutated: its cache entry must have survived.
	if r := queryGraph(t, ts, "g2", q, http.StatusOK); !r.Cached || r.Epoch != 0 {
		t.Fatalf("g2 (2,0) = %+v; want still cached at epoch 0", r)
	}

	json.Unmarshal(request(t, ts, "GET", "/v1/graphs/g1", "", "", http.StatusOK), &info)
	if info.BufferedOps != 0 || info.Epoch != 1 || info.Flushes != 1 || info.Edges != 10 {
		t.Fatalf("post-query info = %+v; want buffered=0 epoch=1 flushes=1 edges=10", info.GraphInfo)
	}

	// Explicit flush: buffered delete applies without a query.
	mb, _ = json.Marshal(MutateRequest{DelEdges: [][2]int{{0, 4}}, Flush: true})
	json.Unmarshal(request(t, ts, "POST", "/v1/graphs/g1/mutate", "application/json", string(mb), http.StatusOK), &mres)
	if mres.BufferedOps != 0 || mres.Epoch != 2 {
		t.Fatalf("flush-mutate = %+v; want empty buffer at epoch 2", mres)
	}

	// /metrics shows per-graph epochs and the global cache counters.
	var met MetricsResponse
	if err := json.Unmarshal(request(t, ts, "GET", "/v1/metrics", "", "", http.StatusOK), &met); err != nil {
		t.Fatal(err)
	}
	if met.Graphs["g1"].Epoch != 2 || met.Graphs["g2"].Epoch != 0 {
		t.Fatalf("metrics epochs g1=%d g2=%d; want 2, 0", met.Graphs["g1"].Epoch, met.Graphs["g2"].Epoch)
	}
	if met.CacheHits == 0 || met.CacheMisses == 0 || met.CacheHitRate <= 0 {
		t.Fatalf("metrics cache hits=%d misses=%d rate=%f; want all positive", met.CacheHits, met.CacheMisses, met.CacheHitRate)
	}
	if len(met.Graphs["g1"].LiveByEpoch) != 0 {
		t.Fatalf("epoch gauge %v with no query in flight; want empty", met.Graphs["g1"].LiveByEpoch)
	}
	if met.Endpoints["query"].Count == 0 {
		t.Fatal("metrics recorded no query endpoint latencies")
	}
}

func TestServeTextOpStream(t *testing.T) {
	_, ts := startServer(t, Config{})
	createGraph(t, ts, "g", testGraphText)

	// Stream ops: add a b-vertex, wire it into the K4, drop an edge.
	stream := "+v:b\n+e:5:0, +e:5:1 +e:5:2\n# comment\n\n+e:5:3\n-e:0:4\n"
	var mres MutateResponse
	data := request(t, ts, "POST", "/v1/graphs/g/mutate", "text/plain", stream, http.StatusOK)
	if err := json.Unmarshal(data, &mres); err != nil {
		t.Fatal(err)
	}
	if len(mres.NewVertexIDs) != 1 || mres.NewVertexIDs[0] != 5 {
		t.Fatalf("new vertex ids = %v; want [5]", mres.NewVertexIDs)
	}
	if mres.BufferedOps != 6 {
		t.Fatalf("buffered ops = %d; want 6", mres.BufferedOps)
	}
	// {0,1,2,3,5} is now a (2,1)-fair clique of size 5 (2a/3b... attrs
	// 0,1 = a; 2,3,5 = b → counts 2/3, δ=1 ok).
	if r := queryGraph(t, ts, "g", QueryRequest{K: 2, Delta: 1}, http.StatusOK); r.Size != 5 {
		t.Fatalf("post-stream (2,1) size = %d; want 5", r.Size)
	}

	// A malformed op is a line-numbered 400.
	data = request(t, ts, "POST", "/v1/graphs/g/mutate", "text/plain", "+e:0:1\nmangled\n", http.StatusBadRequest)
	if !strings.Contains(string(data), "line 2") {
		t.Fatalf("bad op error %s does not name line 2", data)
	}
	// An out-of-range endpoint is rejected by the buffer, same 400 shape.
	data = request(t, ts, "POST", "/v1/graphs/g/mutate", "text/plain", "+e:0:99\n", http.StatusBadRequest)
	if !strings.Contains(string(data), "line") {
		t.Fatalf("out-of-range op error %s does not name a line", data)
	}
}

// A JSON request body is one value followed by nothing but
// whitespace: trailing garbage or a second value is a 400 in the
// envelope (and a rejected mutation buffers nothing); a trailing
// newline is fine.
func TestServeJSONBodyTrailingData(t *testing.T) {
	_, ts := startServer(t, Config{})
	createGraph(t, ts, "g", testGraphText)
	for _, body := range []string{
		`{"k":2,"delta":0} garbage`,
		`{"k":2,"delta":0}{"k":3,"delta":0}`,
		`{"k":2,"delta":0} }`,
	} {
		data := request(t, ts, "POST", "/v1/graphs/g/query", "application/json", body, http.StatusBadRequest)
		var env ErrorEnvelope
		if err := json.Unmarshal(data, &env); err != nil || env.Error.Code != "bad_request" {
			t.Fatalf("query body %q: answer %s; want the bad_request envelope", body, data)
		}
	}
	request(t, ts, "POST", "/v1/graphs/g/mutate", "application/json", `{"add_edges":[[4,1]]} x`, http.StatusBadRequest)
	var info GraphInfoResponse
	if err := json.Unmarshal(request(t, ts, "GET", "/v1/graphs/g", "", "", http.StatusOK), &info); err != nil {
		t.Fatal(err)
	}
	if info.BufferedOps != 0 {
		t.Fatalf("a rejected mutation buffered %d ops", info.BufferedOps)
	}
	data := request(t, ts, "POST", "/v1/graphs/g/query", "application/json", "{\"k\":2,\"delta\":0}\n", http.StatusOK)
	var r QueryResponse
	if err := json.Unmarshal(data, &r); err != nil || r.Size != 4 {
		t.Fatalf("query with a trailing newline: %s; want size 4", data)
	}
}

// The envelope's line field is set only for bodies made of lines — an
// uploaded graph, raw or as JSON text, and an op stream — never from a
// message that merely reads "line N", such as a graph's name.
func TestServeErrorLineOnlyForLineBodies(t *testing.T) {
	_, ts := startServer(t, Config{})
	createGraph(t, ts, "line 3", testGraphText)
	lineOf := func(data []byte) int {
		t.Helper()
		var env ErrorEnvelope
		if err := json.Unmarshal(data, &env); err != nil {
			t.Fatalf("error body is not the envelope: %v; body: %s", err, data)
		}
		return env.Error.Line
	}
	if l := lineOf(request(t, ts, "GET", "/v1/graphs/baseline%207", "", "", http.StatusNotFound)); l != 0 {
		t.Fatalf("404 for the graph \"baseline 7\" names line %d", l)
	}
	body, _ := json.Marshal(CreateRequest{Name: "line 3", Text: testGraphText})
	if l := lineOf(request(t, ts, "POST", "/v1/graphs", "application/json", string(body), http.StatusConflict)); l != 0 {
		t.Fatalf("409 for the duplicate name \"line 3\" names line %d", l)
	}
	if l := lineOf(request(t, ts, "POST", "/v1/graphs?name=bad", "text/plain", "v 0 a\nv 1 b\nwhat is this\n", http.StatusBadRequest)); l != 3 {
		t.Fatalf("raw upload failure names line %d, want 3", l)
	}
	body, _ = json.Marshal(CreateRequest{Name: "bad", Text: "v 0 a\nnope\n"})
	if l := lineOf(request(t, ts, "POST", "/v1/graphs", "application/json", string(body), http.StatusBadRequest)); l != 2 {
		t.Fatalf("JSON text upload failure names line %d, want 2", l)
	}
	if l := lineOf(request(t, ts, "POST", "/v1/graphs/line%203/mutate", "text/plain", "+e:0:4\n\nmangled\n", http.StatusBadRequest)); l != 3 {
		t.Fatalf("op stream failure names line %d, want 3", l)
	}
}

// "flush": true on /mutate counts a flush only when one ran: on a
// fresh graph, or after MaxBufferedOps already flushed the batch, the
// buffer is empty and neither the answer's flushes nor the entry's
// flush count and epoch move.
func TestServeMutateFlushCountsOnlyRealFlushes(t *testing.T) {
	s, ts := startServer(t, Config{MaxBufferedOps: 2})
	createGraph(t, ts, "g", testGraphText)
	e, ok := s.reg.Get("g")
	if !ok {
		t.Fatal("graph g not registered")
	}
	mutate := func(req MutateRequest) MutateResponse {
		t.Helper()
		body, _ := json.Marshal(req)
		var res MutateResponse
		if err := json.Unmarshal(request(t, ts, "POST", "/v1/graphs/g/mutate", "application/json", string(body), http.StatusOK), &res); err != nil {
			t.Fatal(err)
		}
		return res
	}
	for i, c := range []struct {
		req                   MutateRequest
		flushes, total, epoch int64
	}{
		{MutateRequest{Flush: true}, 0, 0, 0},                                     // nothing buffered
		{MutateRequest{AddEdges: [][2]int{{4, 1}, {4, 2}}, Flush: true}, 1, 1, 1}, // the cap flushed
		{MutateRequest{AddEdges: [][2]int{{4, 3}}, Flush: true}, 1, 2, 2},         // the flag flushed
	} {
		res := mutate(c.req)
		if int64(res.Flushes) != c.flushes || res.Epoch != c.epoch || e.Flushes() != c.total || e.Epoch() != c.epoch {
			t.Fatalf("mutate %d: answer %+v, entry flushes %d, epoch %d; want %d flushes, %d in total, epoch %d",
				i, res, e.Flushes(), e.Epoch(), c.flushes, c.total, c.epoch)
		}
	}
}

func TestParseOps(t *testing.T) {
	ops, err := ParseOps("+e:0:1 -e:2:3,+v:a\t-v:7")
	if err != nil {
		t.Fatal(err)
	}
	want := []Op{
		{Kind: OpAddEdge, U: 0, V: 1},
		{Kind: OpDelEdge, U: 2, V: 3},
		{Kind: OpAddVertex, Attr: fairclique.AttrA},
		{Kind: OpDelVertex, U: 7},
	}
	if len(ops) != len(want) {
		t.Fatalf("parsed %d ops; want %d", len(ops), len(want))
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Errorf("op %d = %+v; want %+v", i, ops[i], want[i])
		}
	}
	for _, bad := range []string{"+e:0", "e:0:1", "+v:c", "-v:x", "+e:0:1:2", "?", "+e:1:x"} {
		if _, err := ParseOps(bad); err == nil {
			t.Errorf("ParseOps(%q) accepted garbage", bad)
		}
	}
}

// FuzzParseOps checks that parsing never panics, and that an accepted
// stream, written back in the op syntax, parses to the same ops.
func FuzzParseOps(f *testing.F) {
	for _, s := range []string{
		"+e:0:1 -e:2:3,+v:a\t-v:7", "+v:B,+v:1 +v:0", "-v:-3", "-e:9223372036854775807:0",
		"+e:+1:2", "+e:007:2", "+e:1:x", "+e:0:1:2", "-v:", "", " ,\t",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		ops, err := ParseOps(s)
		if err != nil {
			return
		}
		var b strings.Builder
		for _, op := range ops {
			switch op.Kind {
			case OpAddEdge:
				fmt.Fprintf(&b, "+e:%d:%d ", op.U, op.V)
			case OpDelEdge:
				fmt.Fprintf(&b, "-e:%d:%d ", op.U, op.V)
			case OpAddVertex:
				fmt.Fprintf(&b, "+v:%s ", op.Attr)
			case OpDelVertex:
				fmt.Fprintf(&b, "-v:%d ", op.U)
			}
		}
		again, err := ParseOps(b.String())
		if err != nil {
			t.Fatalf("ParseOps(%q) accepted %v, but its write-back %q fails: %v", s, ops, b.String(), err)
		}
		if !slices.Equal(ops, again) {
			t.Fatalf("ParseOps(%q) = %v, but its write-back %q parses to %v", s, ops, b.String(), again)
		}
	})
}

func TestServeAdmissionHTTP(t *testing.T) {
	_, ts := startServer(t, Config{Blacklist: []string{"mallory"}})
	createGraph(t, ts, "g", testGraphText)

	// Blacklist applies to every endpoint, not only queries.
	for _, path := range []string{"/v1/graphs", "/v1/graphs/g"} {
		req, _ := http.NewRequest("GET", ts.URL+path, nil)
		req.Header.Set("X-Client", "mallory")
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusForbidden {
			t.Fatalf("GET %s as mallory: status %d; want 403", path, resp.StatusCode)
		}
	}

	// Non-blacklisted clients are unaffected.
	body, _ := json.Marshal(QueryRequest{K: 2})
	req, _ := http.NewRequest("POST", ts.URL+"/v1/graphs/g/query", strings.NewReader(string(body)))
	req.Header.Set("X-Client", "alice")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("alice query: status %d; want 200", resp.StatusCode)
	}

	// Blacklist rejections show up in /metrics.
	var met MetricsResponse
	json.Unmarshal(request(t, ts, "GET", "/v1/metrics", "", "", http.StatusOK), &met)
	if met.Admission.RejectedBlacklist == 0 {
		t.Fatal("metrics missed the blacklist rejections")
	}
}

// TestServeCachedEqualsFresh is the differential check of ISSUE 7: a
// deterministic mutation/query script runs against the daemon while
// the test mirrors every mutation into its own edge set; after every
// flush, the daemon's answers — cached and computed alike — must match
// a from-scratch Find on the mirrored graph.
func TestServeCachedEqualsFresh(t *testing.T) {
	_, ts := startServer(t, Config{})
	createGraph(t, ts, "g", testGraphText)

	// Mirror of the server graph.
	attrs := []fairclique.Attr{fairclique.AttrA, fairclique.AttrA, fairclique.AttrB, fairclique.AttrB, fairclique.AttrA}
	edges := map[[2]int]bool{
		{0, 1}: true, {0, 2}: true, {0, 3}: true, {1, 2}: true, {1, 3}: true, {2, 3}: true, {0, 4}: true,
	}
	mirror := func() *fairclique.Graph {
		g := fairclique.NewGraph(len(attrs))
		for i, a := range attrs {
			g.SetAttr(i, a)
		}
		for e, on := range edges {
			if on {
				g.AddEdge(e[0], e[1])
			}
		}
		return g
	}
	canon := func(u, v int) [2]int {
		if u > v {
			u, v = v, u
		}
		return [2]int{u, v}
	}

	// The script: each step is a text op-stream; the mirror closures
	// apply the same ops to the local state.
	steps := []struct {
		ops    string
		mirror func()
	}{
		{"+e:4:1 +e:4:2", func() { edges[canon(4, 1)] = true; edges[canon(4, 2)] = true }},
		{"-e:0:4", func() { delete(edges, canon(0, 4)) }},
		{"+v:b +e:5:0 +e:5:1 +e:5:2 +e:5:3", func() {
			attrs = append(attrs, fairclique.AttrB)
			for _, v := range []int{0, 1, 2, 3} {
				edges[canon(5, v)] = true
			}
		}},
		{"-v:4", func() {
			for e := range edges {
				if e[0] == 4 || e[1] == 4 {
					delete(edges, e)
				}
			}
		}},
		// Re-attach the deleted vertex (forces an intermediate flush:
		// the add happens sequentially after the deletion).
		{"-e:2:3 +e:4:0", func() { delete(edges, canon(2, 3)); edges[canon(4, 0)] = true }},
	}
	specs := []QueryRequest{{K: 1, Delta: 1}, {K: 2, Delta: 0}, {K: 2, Delta: 1}, {K: 1, Mode: "weak"}, {K: 2, Mode: "strong"}}

	check := func(step int) {
		t.Helper()
		m := mirror()
		for _, q := range specs {
			// Ask twice: the second answer is (usually) the cached one
			// and must be identical.
			got := queryGraph(t, ts, "g", q, http.StatusOK)
			got2 := queryGraph(t, ts, "g", q, http.StatusOK)
			if got.Size != got2.Size || got.CountA != got2.CountA || got.CountB != got2.CountB {
				t.Fatalf("step %d %+v: cached answer (%d,%d/%d) != first (%d,%d/%d)",
					step, q, got2.Size, got2.CountA, got2.CountB, got.Size, got.CountA, got.CountB)
			}
			opt := fairclique.DefaultOptions(q.K, q.Delta)
			switch q.Mode {
			case "weak":
				opt.Mode = fairclique.ModeWeak
			case "strong":
				opt.Mode = fairclique.ModeStrong
			}
			want, err := fairclique.Find(m, opt)
			if err != nil {
				t.Fatal(err)
			}
			if got.Size != want.Size() {
				t.Fatalf("step %d %+v: served size %d != fresh Find %d", step, q, got.Size, want.Size())
			}
		}
	}

	check(-1)
	for i, s := range steps {
		request(t, ts, "POST", "/v1/graphs/g/mutate", "text/plain", s.ops, http.StatusOK)
		s.mirror()
		check(i)
	}
}

// TestServeConcurrentLoad hammers one graph with racing queries,
// mutations, flushes and metrics reads; run under -race it is the
// serve layer's concurrency proof.
func TestServeConcurrentLoad(t *testing.T) {
	s, ts := startServer(t, Config{MaxInFlight: 4})
	createGraph(t, ts, "g", testGraphText)

	const goroutines = 8
	iters := 30
	if testing.Short() {
		iters = 8
	}
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch (w + i) % 4 {
				case 0:
					body, _ := json.Marshal(QueryRequest{K: 1 + i%2, Delta: i % 3})
					req, _ := http.NewRequest("POST", ts.URL+"/v1/graphs/g/query", strings.NewReader(string(body)))
					req.Header.Set("X-Client", fmt.Sprintf("c%d", w))
					resp, err := ts.Client().Do(req)
					if err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				case 1:
					// Toggle an edge outside the K4 so answers stay legal.
					op := "+e:0:4"
					if i%2 == 1 {
						op = "-e:0:4"
					}
					req, _ := http.NewRequest("POST", ts.URL+"/v1/graphs/g/mutate", strings.NewReader(op))
					req.Header.Set("Content-Type", "text/plain")
					resp, err := ts.Client().Do(req)
					if err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				case 2:
					resp, err := ts.Client().Post(ts.URL+"/v1/graphs/g/flush", "application/json", nil)
					if err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				case 3:
					resp, err := ts.Client().Get(ts.URL + "/v1/metrics")
					if err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				}
			}
		}(w)
	}
	wg.Wait()

	// The graph must still answer correctly after the storm: settle the
	// edge toggle and check the K4 is intact.
	request(t, ts, "POST", "/v1/graphs/g/mutate", "text/plain", "+e:0:4", http.StatusOK)
	if r := queryGraph(t, ts, "g", QueryRequest{K: 2, Delta: 0}, http.StatusOK); r.Size != 4 {
		t.Fatalf("post-storm (2,0) size = %d; want 4", r.Size)
	}
	e, _ := s.Registry().Get("g")
	if hits, misses := e.CacheStats(); hits+misses == 0 {
		t.Fatal("the storm never touched the cache")
	}
}
