package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"time"

	"fairclique"
	"fairclique/internal/graph"
	"fairclique/internal/serve"
	"fairclique/internal/session"
)

// serve-mixed: the mfcd handler in process (no sockets) with
// serve.Config{Workers: 2}, holding bigcomp instances 0..serveGraphs-1
// of the seed as separate graphs. One closed-loop client sends mostly
// /query over the fixed cells, with occasional /grid and top-r
// /enumerate, spreading requests over the graphs; it also toggles
// seeded shell edges through /mutate, which never touch the nucleus, so
// every answer stays the reference optimum while each toggle forces a
// write-buffer flush (Session.Apply) and a cache refill. The cost of a
// flush depends on the instance; spreading the load over several
// instances averages that out, as search-cold does.

const (
	serveGraphs      = 3
	serveMutateEvery = 32  // the client toggles one shell edge per this many requests
	serveGridEvery   = 64  // one /grid per this many requests
	serveEnumEvery   = 128 // and one top-r /enumerate per this many
	serveTopR        = 3
	// serveTailPct is the tail percentile of serve-mixed queries: a 30 s
	// run keeps ~160k queries (the quieter half of its windows), ~800 of
	// them beyond p99.5. The 3.3% of queries that pay a write-buffer flush
	// form two clusters; p99 fell between them and spread 14% over eight
	// seeds, p99.5 sits inside the upper one and spread 6%.
	serveTailPct = 99.5
)

var serveEnumCell = cell{4, 3}

// tenant is one graph the daemon serves, with what the checks need.
type tenant struct {
	g       *graph.Graph
	ref     optima
	toggles [][2]int32
}

func tenantName(t int) string { return fmt.Sprintf("bench%d", t) }

// request is one HTTP request of the mix.
type request struct {
	kind   string // query, grid, enumerate or mutate
	tenant int
	body   string
	c      cell // query and enumerate
}

// requestKinds numbers the request kinds in an opLog; queries, kind 0,
// are the latency samples.
var requestKinds = map[string]uint8{"query": 0, "grid": 1, "enumerate": 2, "mutate": 3}

func (r request) path() string { return "/v1/graphs/" + tenantName(r.tenant) + "/" + r.kind }

func queryRequest(t int, c cell) request {
	return request{kind: "query", tenant: t, body: fmt.Sprintf(`{"k":%d,"delta":%d}`, c.K, c.Delta), c: c}
}

func gridRequest(t int) request {
	parts := make([]string, len(cells))
	for i, c := range cells {
		parts[i] = queryRequest(t, c).body
	}
	return request{kind: "grid", tenant: t, body: `{"cells":[` + strings.Join(parts, ",") + `]}`}
}

func enumRequest(t int) request {
	c := serveEnumCell
	return request{kind: "enumerate", tenant: t, body: fmt.Sprintf(`{"k":%d,"delta":%d,"r":%d}`, c.K, c.Delta, serveTopR), c: c}
}

// shellToggles picks the edges the client toggles: chords between
// opposite degree-2 shell vertices (a matching, so no shell vertex gains
// more than one edge and no 4-clique can form outside the nucleus) and
// existing shell cycle edges.
func shellToggles(g *graph.Graph) ([][2]int32, error) {
	var deg2 []int32
	for v := int32(0); v < g.N(); v++ {
		if g.Deg(v) == 2 {
			deg2 = append(deg2, v)
		}
	}
	half := len(deg2) / 2
	if half < 64 {
		return nil, fmt.Errorf("serve-mixed: instance has only %d degree-2 shell vertices", len(deg2))
	}
	var out [][2]int32
	for i := 0; i < half && len(out) < 32; i += 8 {
		if u, v := deg2[i], deg2[i+half]; !g.HasEdge(u, v) {
			out = append(out, [2]int32{u, v})
		}
	}
	for i := 4; i+1 < len(deg2) && len(out) < 64; i += 8 {
		if u, v := deg2[i], deg2[i+1]; g.HasEdge(u, v) {
			out = append(out, [2]int32{u, v})
		}
	}
	return out, nil
}

// mixer generates the client's deterministic request sequence;
// present[t][i] tracks whether it has left toggle edge i of tenant t in
// the graph.
type mixer struct {
	i       int
	rng     *rand.Rand
	tenants []tenant
	present [][]bool
}

func newMixer(seed uint64, tenants []tenant) *mixer {
	m := &mixer{rng: rand.New(rand.NewPCG(seed, 0)), tenants: tenants}
	for _, t := range tenants {
		p := make([]bool, len(t.toggles))
		for i, e := range t.toggles {
			p[i] = t.g.HasEdge(e[0], e[1])
		}
		m.present = append(m.present, p)
	}
	return m
}

func (m *mixer) next() request {
	i, n := m.i, len(m.tenants)
	m.i++
	switch {
	case i%serveMutateEvery == serveMutateEvery/2:
		t := (i / serveMutateEvery) % n
		return m.toggle(t, m.rng.IntN(len(m.tenants[t].toggles)))
	case i%serveGridEvery == serveGridEvery-1:
		return gridRequest((i / serveGridEvery) % n)
	case i%serveEnumEvery == serveEnumEvery/4:
		return enumRequest((i / serveEnumEvery) % n)
	default:
		return queryRequest(i%n, cells[(i/n)%len(cells)])
	}
}

// toggle flips toggle edge e of tenant t and returns the /mutate request
// doing it.
func (m *mixer) toggle(t, e int) request {
	edge, op := m.tenants[t].toggles[e], "+"
	if m.present[t][e] {
		op = "-"
	}
	m.present[t][e] = !m.present[t][e]
	return request{kind: "mutate", tenant: t, body: fmt.Sprintf("%se:%d:%d", op, edge[0], edge[1])}
}

// mirror applies the net effect of the mixer's toggles to tenant t's
// graph.
func (m *mixer) mirror(t int) (*graph.Graph, error) {
	g := m.tenants[t].g
	var d graph.Delta
	for i, e := range m.tenants[t].toggles {
		switch was := g.HasEdge(e[0], e[1]); {
		case m.present[t][i] && !was:
			d.AddEdges = append(d.AddEdges, e)
		case !m.present[t][i] && was:
			d.DelEdges = append(d.DelEdges, e)
		}
	}
	mg, _, err := graph.ApplyDelta(g, &d)
	return mg, err
}

// replaySequence is the first n requests of the client's sequence,
// which the traced replay sends.
func replaySequence(n int, seed uint64, tenants []tenant) []request {
	m := newMixer(seed, tenants)
	seq := make([]request, n)
	for i := range seq {
		seq[i] = m.next()
	}
	return seq
}

// answer decodes the fields of query, grid and enumerate responses.
type answer struct {
	Size    int      `json:"size"`
	Exact   bool     `json:"exact"`
	Clique  []int    `json:"clique"`
	Cliques [][]int  `json:"cliques"`
	Results []answer `json:"results"`
}

func toInt32(s []int) []int32 {
	out := make([]int32, len(s))
	for i, v := range s {
		out[i] = int32(v)
	}
	return out
}

// clique checks one answer against the reference. Toggles never touch
// the nucleus, so the original graph and its reference hold for every
// answer of the run.
func (t *tenant) clique(exact bool, clique []int, c cell) error {
	if !exact {
		return fmt.Errorf("cell (%v): inexact answer", c)
	}
	return checkFair(t.g, toInt32(clique), c, t.ref[c.String()])
}

func (t *tenant) set(exact bool, size int, cliques [][]int, c cell) error {
	if want := t.ref[c.String()]; !exact || size != want || (len(cliques) == 0) != (want == 0) {
		return fmt.Errorf("enumerate (%v): exact=%v size %d with %d cliques, reference optimum %d", c, exact, size, len(cliques), want)
	}
	for _, q := range cliques {
		if err := t.clique(true, q, c); err != nil {
			return err
		}
	}
	return nil
}

// check verifies one HTTP response: status 200, and for answers an exact
// fair clique of the reference size.
func check(tenants []tenant, r request, code int, body []byte) error {
	if code != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", r.kind, code, body)
	}
	if r.kind == "mutate" {
		return nil
	}
	var a answer
	if err := json.Unmarshal(body, &a); err != nil {
		return fmt.Errorf("%s: %w", r.kind, err)
	}
	t := &tenants[r.tenant]
	switch r.kind {
	case "query":
		return t.clique(a.Exact, a.Clique, r.c)
	case "enumerate":
		return t.set(a.Exact, a.Size, a.Cliques, r.c)
	}
	if len(a.Results) != len(cells) {
		return fmt.Errorf("grid: %d results for %d cells", len(a.Results), len(cells))
	}
	for i, c := range cells {
		if err := t.clique(a.Results[i].Exact, a.Results[i].Clique, c); err != nil {
			return err
		}
	}
	return nil
}

// server is one in-process daemon holding the benchmark graphs.
type server struct {
	srv     *serve.Server
	h       http.Handler
	entries []*serve.GraphEntry
}

func (s *server) do(r request) (int, []byte) {
	req := httptest.NewRequest(http.MethodPost, r.path(), strings.NewReader(r.body))
	if r.kind == "mutate" {
		req.Header.Set("Content-Type", "text/plain")
	} else {
		req.Header.Set("Content-Type", "application/json")
	}
	rec := httptest.NewRecorder()
	s.h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

func (s *server) close() { s.srv.Registry().Close() }

// sessionCounters sums the session counters of every graph.
func (s *server) sessionCounters() counters {
	var c counters
	for _, e := range s.entries {
		c.add(publicCounters(e.Session().Stats()))
	}
	return c
}

// cacheAndFlushes sums cache hits, misses and flushes over every graph.
func (s *server) cacheAndFlushes() (hits, misses, flushes int64) {
	for _, e := range s.entries {
		h, m := e.CacheStats()
		hits, misses, flushes = hits+h, misses+m, flushes+e.Flushes()
	}
	return hits, misses, flushes
}

// publicGraph converts an internal instance to the public graph the
// registry accepts.
func publicGraph(ig *graph.Graph) *fairclique.Graph {
	pg := fairclique.NewGraph(int(ig.N()))
	for v := int32(0); v < ig.N(); v++ {
		pg.SetAttr(int(v), ig.Attr(v))
	}
	for e := int32(0); e < ig.M(); e++ {
		u, v := ig.Edge(e)
		pg.AddEdge(int(u), int(v))
	}
	return pg
}

// setupServer creates the daemon and answers every request shape once
// on every graph — each query cell, the grid, the top-r enumeration,
// and an insert and a delete toggle each followed by a query — so the
// timed run starts with every cell warm. Without this, the first query
// of each cell (a cold reduction plus search, hundreds of ms) lands in
// the tail. Every answer is checked and counted in o.
func setupServer(tenants []tenant, o *outcome) (*server, error) {
	srv := serve.New(serve.Config{Workers: 2})
	s := &server{srv: srv, h: srv.Handler()}
	m := newMixer(0, tenants)
	for t, ten := range tenants {
		e, err := srv.Registry().Create(tenantName(t), publicGraph(ten.g))
		if err != nil {
			s.close()
			return nil, err
		}
		s.entries = append(s.entries, e)
		var warm []request
		for _, c := range cells {
			warm = append(warm, queryRequest(t, c))
		}
		warm = append(warm, gridRequest(t), enumRequest(t),
			m.toggle(t, 0), queryRequest(t, cells[0]), m.toggle(t, 0), queryRequest(t, cells[0]))
		for _, r := range warm {
			code, body := s.do(r)
			o.check(check(tenants, r, code, body))
		}
	}
	return s, nil
}

// serveSetup loads the instances and their references, then sets the
// daemon up reps times (setup_s is the median) and keeps the last one.
func serveSetup(cfg config, reps int, o *outcome) (*server, []tenant, []float64, error) {
	gs := make([]*graph.Graph, serveGraphs)
	for i := range gs {
		gs[i] = bigcomp(cfg, i)
	}
	refs, err := references(cfg, gs)
	if err != nil {
		return nil, nil, nil, err
	}
	tenants := make([]tenant, len(gs))
	for i, g := range gs {
		toggles, err := shellToggles(g)
		if err != nil {
			return nil, nil, nil, err
		}
		tenants[i] = tenant{g: g, ref: refs[i], toggles: toggles}
	}
	var s *server
	var setups []float64
	for r := 0; r < max(reps, 1); r++ {
		if s != nil {
			s.close()
		}
		runtime.GC() // each set-up starts on a collected heap, like a fresh process
		t0 := time.Now()
		if s, err = setupServer(tenants, o); err != nil {
			return nil, nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	return s, tenants, setups, nil
}

func runServe(cfg config) (*outcome, error) {
	o := newOutcome()
	s, tenants, setups, err := serveSetup(cfg, cfg.SetupReps, o)
	if err != nil {
		return nil, err
	}
	defer s.close()
	runtime.GC()
	heap := startHeapSampler()
	start := time.Now()
	// Room for every request of the run up front, so growing the log does
	// not show in peak_heap_mb.
	log := newOpLog(start, int(cfg.Seconds*15000))
	m := newMixer(cfg.Seed, tenants)
	for j := 0; j == 0 || time.Since(start) < cfg.duration(); j++ {
		r := m.next()
		t0 := time.Now()
		code, body := s.do(r)
		t1 := time.Now()
		kind := requestKinds[r.kind]
		log.add(t1, 0, t1.Sub(t0), kind, uint16(kind))
		o.check(check(tenants, r, code, body))
	}
	o.metrics["peak_heap_mb"] = heap.stopMiB()

	// The final differential: the daemon's answer to every cell of every
	// graph equals a fresh Find on a mirror graph that replays the
	// client's toggles.
	for t := range tenants {
		mirror, err := m.mirror(t)
		if err != nil {
			return nil, err
		}
		for _, c := range cells {
			o.check(finalCheck(s, t, mirror, c))
		}
	}

	sum := log.summarize(cfg.Seconds, serveTailPct)
	o.metrics["setup_s"] = median(setups)
	o.metrics["latency_p50_ms"] = sum.p50
	o.metrics["latency_tail_ms"] = sum.tail
	o.metrics["throughput_ops_s"] = sum.throughput
	o.note("graphs: gen.BigComponent(seed*16+i, %d, 0.5, %d) for i < %d; one client; cells %v", cfg.Nucleus, cfg.Shell, serveGraphs, cells)
	sum.note(o, serveTailPct)
	for _, k := range []string{"query", "grid", "enumerate", "mutate"} {
		p50, n := log.kindP50(requestKinds[k])
		o.note("%-9s n=%-7d p50 %.4f ms (whole run)", k, n, p50)
	}
	_, _, flushes := s.cacheAndFlushes()
	o.note("flushes: %d", flushes)
	return o, nil
}

// finalCheck compares the daemon's answer for cell c of tenant t with a
// fresh serial session on the mirror graph.
func finalCheck(s *server, t int, mirror *graph.Graph, c cell) error {
	code, body := s.do(queryRequest(t, c))
	if code != http.StatusOK {
		return fmt.Errorf("final query (%v): status %d: %s", c, code, body)
	}
	var a answer
	if err := json.Unmarshal(body, &a); err != nil {
		return err
	}
	fresh := session.New(mirror, sessionOptions(1))
	defer fresh.Close()
	r, err := fresh.Find(query(c))
	if err != nil {
		return err
	}
	if !a.Exact {
		return fmt.Errorf("final query (%v): inexact", c)
	}
	return checkFair(mirror, toInt32(a.Clique), c, r.Size())
}

// registryCall runs r through the GraphEntry methods the handler wraps
// and returns a check of the result, to run outside the span.
func registryCall(s *server, tenants []tenant, r request) func() error {
	e, t := s.entries[r.tenant], &tenants[r.tenant]
	spec := fairclique.QuerySpec{K: r.c.K, Delta: r.c.Delta}
	switch r.kind {
	case "query":
		res, _, _, err := e.Query(spec)
		return func() error {
			if err != nil {
				return err
			}
			return t.clique(res.Exact, res.Clique, r.c)
		}
	case "grid":
		specs := make([]fairclique.QuerySpec, len(cells))
		for i, c := range cells {
			specs[i] = fairclique.QuerySpec{K: c.K, Delta: c.Delta}
		}
		res, _, _, err := e.Grid(specs)
		return func() error {
			if err != nil {
				return err
			}
			for i, c := range cells {
				if err := t.clique(res[i].Exact, res[i].Clique, c); err != nil {
					return err
				}
			}
			return nil
		}
	case "enumerate":
		spec.Kind, spec.R = fairclique.KindTopR, serveTopR
		rs, _, _, err := e.Enumerate(spec)
		return func() error {
			if err != nil {
				return err
			}
			return t.set(rs.Exact, rs.Size, rs.Cliques, r.c)
		}
	}
	ops, err := serve.ParseOps(r.body)
	if err == nil {
		_, err = e.Mutate(ops)
	}
	return func() error { return err }
}

var registrySpan = map[string]string{
	"query":     "serve.GraphEntry.Query",
	"grid":      "serve.GraphEntry.Grid",
	"enumerate": "serve.GraphEntry.Enumerate",
	"mutate":    "serve.GraphEntry.Mutate",
}

// admission reads the daemon's admission counters from /v1/metrics.
func admission(s *server) (queued, admitted int64, err error) {
	req := httptest.NewRequest(http.MethodGet, "/v1/metrics", nil)
	rec := httptest.NewRecorder()
	s.h.ServeHTTP(rec, req)
	var m serve.MetricsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		return 0, 0, fmt.Errorf("metrics: %w", err)
	}
	return m.Admission.Queued, m.Admission.Admitted, nil
}

// traceServe replays the first cfg.ServeReplay requests of the client's
// sequence twice on fresh daemons: first
// through the HTTP handler (every other request of each type traced,
// the rest timed plain to measure the tracing overhead), then
// through the GraphEntry methods with an explicit Flush before every
// read, so per request type the handler's own time and the flush time
// fall out.
func traceServe(cfg config, tr *tracer) (*outcome, error) {
	o := newOutcome()
	a, tenants, _, err := serveSetup(cfg, 1, o)
	if err != nil {
		return nil, err
	}
	defer a.close()
	seq := replaySequence(cfg.ServeReplay, cfg.Seed, tenants)

	before := a.sessionCounters()
	hits0, misses0, flushes0 := a.cacheAndFlushes()
	queued0, admitted0, err := admission(a)
	if err != nil {
		return nil, err
	}
	handler := make([]time.Duration, len(seq)) // 0 for plain requests
	var qTraced, qPlain []float64
	seen := make(map[string]int)
	mutations := 0
	for i, r := range seq {
		var code int
		var body []byte
		var d time.Duration
		seen[r.kind]++
		if seen[r.kind]%2 == 1 {
			id := tr.begin("serve.Handler."+r.kind, i, -1)
			code, body = a.do(r)
			d = tr.end(id)
			handler[i] = d
		} else {
			d = timeIt(func() { code, body = a.do(r) })
		}
		switch r.kind {
		case "query":
			if handler[i] > 0 {
				qTraced = append(qTraced, ms(d))
			} else {
				qPlain = append(qPlain, ms(d))
			}
		case "mutate":
			mutations++
		}
		o.check(check(tenants, r, code, body))
	}
	after := a.sessionCounters()
	hits1, misses1, flushes1 := a.cacheAndFlushes()
	queued1, admitted1, err := admission(a)
	if err != nil {
		return nil, err
	}
	var d counters
	for i := range d {
		d[i] = after[i] - before[i]
	}
	d[cReleases] = after[cReleases] // executors released once per session lifetime
	sessionMetrics(o.metrics, d)
	hits, misses := float64(hits1-hits0), float64(misses1-misses0)
	o.metrics["serve.cache_hit_ratio"] = ratio(hits, hits+misses)
	o.metrics["serve.ops_per_flush"] = ratio(float64(mutations), float64(flushes1-flushes0))
	o.metrics["serve.admission_queued_ratio"] = ratio(float64(queued1-queued0), float64(admitted1-admitted0))

	b, _, _, err := serveSetup(cfg, 1, o)
	if err != nil {
		return nil, err
	}
	defer b.close()
	registry := make([]time.Duration, len(seq))
	for i, r := range seq {
		if e := b.entries[r.tenant]; r.kind != "mutate" && e.BufferedOps() > 0 {
			id := tr.begin("serve.GraphEntry.Flush", i, -1)
			_, err := e.Flush()
			registry[i] += tr.end(id)
			if err != nil {
				o.check(err)
			}
		}
		id := tr.begin(registrySpan[r.kind], i, -1)
		check := registryCall(b, tenants, r)
		registry[i] += tr.end(id)
		o.check(check())
	}

	tot := tr.totals()
	meanMs := func(name string) float64 {
		if t := tot[name]; t != nil {
			return ms(t.Total) / float64(t.Count)
		}
		return 0
	}
	for _, k := range []string{"query", "grid", "enumerate", "mutate"} {
		o.metrics["serve.handler_ms."+k] = meanMs("serve.Handler." + k)
		o.metrics["serve.registry_ms."+k] = meanMs(registrySpan[k])
	}
	o.metrics["serve.flush_ms"] = meanMs("serve.GraphEntry.Flush")
	var self time.Duration
	n := 0
	for i := range seq {
		if handler[i] > 0 {
			self += handler[i] - registry[i]
			n++
		}
	}
	o.metrics["serve.http_self_ms"] = ms(self) / float64(max(n, 1))
	o.metrics["trace.overhead_ratio"] = ratio(median(qTraced), median(qPlain))
	zero(o.metrics, "graph.", "kcore.", "reduce.", "heuristic.", "core.")
	o.metrics["session.find_s"], o.metrics["session.self_s"] = 0, 0
	o.note("replay: %d requests per pass (%d mutations), handler pass then registry pass", len(seq), mutations)
	return o, nil
}
