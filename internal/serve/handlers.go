package serve

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"time"

	"fairclique"
	"fairclique/internal/graph"
)

// clientID identifies the caller for admission: the X-Client header
// when present, else the remote host.
func clientID(r *http.Request) string {
	if c := r.Header.Get("X-Client"); c != "" {
		return c
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// statusRecorder captures the response status for metrics.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.status = code
	sr.ResponseWriter.WriteHeader(code)
}

// wrap instruments a handler with latency/status recording, the body
// cap and the blacklist (which applies to every endpoint).
func (s *Server) wrap(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sr := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		if r.Body != nil {
			r.Body = http.MaxBytesReader(sr, r.Body, s.cfg.MaxBodyBytes)
		}
		if s.adm.Blacklisted(clientID(r)) {
			writeErr(sr, http.StatusForbidden, ErrBlacklisted)
		} else {
			h(sr, r)
		}
		s.met.Observe(name, float64(time.Since(start).Microseconds())/1000.0, sr.status)
	}
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// ErrorBody is the single error shape every endpoint answers with:
// a stable machine-readable code, the human message, and — for
// line-oriented bodies (graph uploads, op streams) — the 1-based line
// the failure was detected on.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	Line    int    `json:"line,omitempty"`
}

// ErrorEnvelope wraps ErrorBody as {"error": {...}}.
type ErrorEnvelope struct {
	Error ErrorBody `json:"error"`
}

// errCode maps a status to its default error code; handlers that know
// a more precise cause (flush_failed) use writeErrCode directly.
func errCode(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusForbidden:
		return "forbidden"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusMethodNotAllowed:
		return "method_not_allowed"
	case http.StatusConflict:
		return "conflict"
	case http.StatusTooManyRequests:
		return "too_many_requests"
	case http.StatusServiceUnavailable:
		return "unavailable"
	case http.StatusInternalServerError:
		return "internal"
	default:
		return "error"
	}
}

// errLine extracts the line number from a "line N:" fragment in the
// message (graph readers and the op stream both mark errors that way);
// 0 when the error names no line.
func errLine(msg string) int {
	i := strings.Index(msg, "line ")
	if i < 0 {
		return 0
	}
	var n int
	if _, err := fmt.Sscanf(msg[i:], "line %d", &n); err != nil || n < 0 {
		return 0
	}
	return n
}

// writeErr writes the error envelope with the status's default code.
func writeErr(w http.ResponseWriter, status int, err error) {
	writeErrCode(w, status, errCode(status), err)
}

// writeErrCode writes {"error": {"code", "message", "line"}}.
func writeErrCode(w http.ResponseWriter, status int, code string, err error) {
	msg := err.Error()
	writeJSON(w, status, ErrorEnvelope{Error: ErrorBody{
		Code:    code,
		Message: msg,
		Line:    errLine(msg),
	}})
}

// writeEntryErr maps a GraphEntry error to a status: a failed
// write-buffer flush is a server-side invariant break (500); anything
// else is request validation (400).
func writeEntryErr(w http.ResponseWriter, err error) {
	if errors.Is(err, ErrFlushFailed) {
		writeErrCode(w, http.StatusInternalServerError, "flush_failed", err)
		return
	}
	writeErr(w, http.StatusBadRequest, err)
}

// decodeJSON strictly decodes the request body into v.
func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("serve: bad request body: %w", err)
	}
	return nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"ok": true})
}

// CreateRequest creates a named graph from an inline text body or —
// when the server allows it — a server-side file path.
type CreateRequest struct {
	Name string `json:"name"`
	// Text is the graph in the package's text format ("v <id> <a|b>",
	// "e <u> <v>", bare SNAP pairs).
	Text string `json:"text,omitempty"`
	// Path / AttrPath load a server-side file instead (requires
	// Config.AllowPathCreate). Format "snap" routes through the
	// streaming SNAP loader; anything else through the text reader.
	Path     string `json:"path,omitempty"`
	AttrPath string `json:"attr_path,omitempty"`
	Format   string `json:"format,omitempty"`
}

// CreateResponse acknowledges a created graph.
type CreateResponse struct {
	Name     string `json:"name"`
	Vertices int    `json:"vertices"`
	Edges    int    `json:"edges"`
}

func (s *Server) handleCreateGraph(w http.ResponseWriter, r *http.Request) {
	lim := fairclique.ReadLimits{MaxVertices: s.cfg.MaxVertices, MaxEdges: s.cfg.MaxEdges}
	var name string
	var g *fairclique.Graph
	var err error
	if ct := r.Header.Get("Content-Type"); strings.HasPrefix(ct, "text/plain") {
		// Raw upload: ?name=X, body = graph text, parsed streaming.
		name = r.URL.Query().Get("name")
		g, err = fairclique.ReadGraphLimited(r.Body, lim)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
	} else {
		var req CreateRequest
		if err := decodeJSON(r, &req); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		name = req.Name
		switch {
		case req.Text != "":
			g, err = fairclique.ReadGraphLimited(strings.NewReader(req.Text), lim)
			if err != nil {
				writeErr(w, http.StatusBadRequest, err)
				return
			}
		case req.Path != "":
			if !s.cfg.AllowPathCreate {
				writeErr(w, http.StatusForbidden,
					errors.New("serve: path-based create is disabled (start the daemon with -allow-paths)"))
				return
			}
			if req.Format == "snap" || req.AttrPath != "" {
				g, err = fairclique.ReadSNAPFiles(req.Path, req.AttrPath)
			} else {
				g, err = fairclique.ReadGraphFile(req.Path)
			}
			if err != nil {
				writeErr(w, http.StatusBadRequest, err)
				return
			}
		default:
			writeErr(w, http.StatusBadRequest, errors.New("serve: create needs text or path"))
			return
		}
	}
	if name == "" {
		writeErr(w, http.StatusBadRequest,
			errors.New("serve: graph name must be non-empty (text/plain uploads pass ?name=)"))
		return
	}
	e, err := s.reg.Create(name, g)
	if err != nil {
		// The name is validated above, so the only Create failure left
		// is a duplicate name.
		writeErr(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusCreated, CreateResponse{
		Name: e.Name(), Vertices: e.Session().N(), Edges: e.Session().M(),
	})
}

// GraphInfo is one registry row.
type GraphInfo struct {
	Name        string `json:"name"`
	Vertices    int    `json:"vertices"`
	Edges       int    `json:"edges"`
	Epoch       int64  `json:"epoch"`
	BufferedOps int    `json:"buffered_ops"`
	Flushes     int64  `json:"flushes"`
}

func (s *Server) graphInfo(e *GraphEntry) GraphInfo {
	return GraphInfo{
		Name:        e.Name(),
		Vertices:    e.Session().N(),
		Edges:       e.Session().M(),
		Epoch:       e.Epoch(),
		BufferedOps: e.BufferedOps(),
		Flushes:     e.Flushes(),
	}
}

func (s *Server) handleListGraphs(w http.ResponseWriter, r *http.Request) {
	infos := []GraphInfo{}
	for _, name := range s.reg.Names() {
		if e, ok := s.reg.Get(name); ok {
			infos = append(infos, s.graphInfo(e))
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"graphs": infos})
}

// entry resolves {name} or writes 404.
func (s *Server) entry(w http.ResponseWriter, r *http.Request) (*GraphEntry, bool) {
	name := r.PathValue("name")
	e, ok := s.reg.Get(name)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("serve: no graph %q", name))
		return nil, false
	}
	return e, true
}

// GraphInfoResponse is the single-graph info endpoint's body.
type GraphInfoResponse struct {
	GraphInfo
	CacheHits    int64                   `json:"cache_hits"`
	CacheMisses  int64                   `json:"cache_misses"`
	SessionStats fairclique.SessionStats `json:"session_stats"`
}

func (s *Server) handleGraphInfo(w http.ResponseWriter, r *http.Request) {
	e, ok := s.entry(w, r)
	if !ok {
		return
	}
	hits, misses := e.CacheStats()
	writeJSON(w, http.StatusOK, GraphInfoResponse{
		GraphInfo:    s.graphInfo(e),
		CacheHits:    hits,
		CacheMisses:  misses,
		SessionStats: e.Session().Stats(),
	})
}

func (s *Server) handleDeleteGraph(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !s.reg.Delete(name) {
		writeErr(w, http.StatusNotFound, fmt.Errorf("serve: no graph %q", name))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"deleted": name})
}

// QueryRequest is one (k, δ, mode) cell, optionally budgeted: a
// positive deadline_ms or max_nodes turns the search anytime — the
// response then carries exact:false with a certified upper_bound/gap,
// and is never cached.
type QueryRequest struct {
	K     int    `json:"k"`
	Delta int    `json:"delta"`
	Mode  string `json:"mode,omitempty"` // "relative" (default), "weak", "strong"
	// DeadlineMs is this query's wall-clock budget in milliseconds
	// (0 = none).
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
	// MaxNodes caps this query's branch nodes (0 = none).
	MaxNodes int64 `json:"max_nodes,omitempty"`
}

func (q QueryRequest) spec() (fairclique.QuerySpec, error) {
	spec := fairclique.QuerySpec{K: q.K, Delta: q.Delta}
	if q.DeadlineMs < 0 {
		return spec, fmt.Errorf("serve: deadline_ms must be >= 0, got %d", q.DeadlineMs)
	}
	if q.MaxNodes < 0 {
		return spec, fmt.Errorf("serve: max_nodes must be >= 0, got %d", q.MaxNodes)
	}
	spec.Deadline = time.Duration(q.DeadlineMs) * time.Millisecond
	spec.MaxNodes = q.MaxNodes
	switch q.Mode {
	case "", "relative":
		spec.Mode = fairclique.ModeRelative
	case "weak":
		spec.Mode = fairclique.ModeWeak
	case "strong":
		spec.Mode = fairclique.ModeStrong
	default:
		return spec, fmt.Errorf("serve: unknown mode %q (want relative, weak or strong)", q.Mode)
	}
	return spec, nil
}

// QueryResponse is one answered cell. UpperBound certifies the optimum
// lies in [size, upper_bound]; gap = upper_bound - size is 0 for exact
// answers.
type QueryResponse struct {
	Clique     []int `json:"clique"`
	Size       int   `json:"size"`
	CountA     int   `json:"count_a"`
	CountB     int   `json:"count_b"`
	Exact      bool  `json:"exact"`
	UpperBound int   `json:"upper_bound"`
	Gap        int   `json:"gap"`
	Cached     bool  `json:"cached"`
	Epoch      int64 `json:"epoch"`
	Nodes      int64 `json:"nodes"`
}

func queryResponse(r *fairclique.Result, cached bool, epoch int64) QueryResponse {
	clique := r.Clique
	if clique == nil {
		clique = []int{}
	}
	return QueryResponse{
		Clique:     clique,
		Size:       r.Size(),
		CountA:     r.CountA,
		CountB:     r.CountB,
		Exact:      r.Exact,
		UpperBound: r.UpperBound,
		Gap:        r.Gap,
		Cached:     cached,
		Epoch:      epoch,
		Nodes:      r.Stats.Nodes,
	}
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	e, ok := s.entry(w, r)
	if !ok {
		return
	}
	var req QueryRequest
	if err := decodeJSON(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	spec, err := req.spec()
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	release, err := s.adm.Admit(r.Context(), clientID(r))
	if err != nil {
		writeAdmissionErr(w, err)
		return
	}
	defer release()
	res, cached, epoch, err := e.Query(spec)
	if err != nil {
		writeEntryErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, queryResponse(res, cached, epoch))
}

// GridRequest is a batch of cells answered as one session grid.
type GridRequest struct {
	Cells []QueryRequest `json:"cells"`
}

// GridResponse aligns with GridRequest.Cells.
type GridResponse struct {
	Results []QueryResponse `json:"results"`
}

func (s *Server) handleGrid(w http.ResponseWriter, r *http.Request) {
	e, ok := s.entry(w, r)
	if !ok {
		return
	}
	var req GridRequest
	if err := decodeJSON(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Cells) == 0 {
		writeErr(w, http.StatusBadRequest, errors.New("serve: grid needs at least one cell"))
		return
	}
	specs := make([]fairclique.QuerySpec, len(req.Cells))
	for i, c := range req.Cells {
		spec, err := c.spec()
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		specs[i] = spec
	}
	release, err := s.adm.Admit(r.Context(), clientID(r))
	if err != nil {
		writeAdmissionErr(w, err)
		return
	}
	defer release()
	res, cachedMask, epoch, err := e.Grid(specs)
	if err != nil {
		writeEntryErr(w, err)
		return
	}
	out := GridResponse{Results: make([]QueryResponse, len(res))}
	for i, r := range res {
		out.Results[i] = queryResponse(r, cachedMask[i], epoch)
	}
	writeJSON(w, http.StatusOK, out)
}

// EnumerateRequest is one enumeration cell: all maximum fair cliques
// of (k, δ, mode), or — when r > 0 — the diversified top-r subset by
// distinct-vertex coverage. Budgets behave like QueryRequest's: a
// budget-aborted enumeration answers exact:false and is never cached.
type EnumerateRequest struct {
	K     int    `json:"k"`
	Delta int    `json:"delta"`
	Mode  string `json:"mode,omitempty"` // "relative" (default), "weak", "strong"
	// R > 0 selects the diversified top-r subset instead of the full
	// set.
	R          int   `json:"r,omitempty"`
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
	MaxNodes   int64 `json:"max_nodes,omitempty"`
}

func (q EnumerateRequest) spec() (fairclique.QuerySpec, error) {
	spec, err := QueryRequest{
		K: q.K, Delta: q.Delta, Mode: q.Mode,
		DeadlineMs: q.DeadlineMs, MaxNodes: q.MaxNodes,
	}.spec()
	if err != nil {
		return spec, err
	}
	if q.R < 0 {
		return spec, fmt.Errorf("serve: r must be >= 0, got %d", q.R)
	}
	spec.Kind = fairclique.KindEnumerateAll
	if q.R > 0 {
		spec.Kind = fairclique.KindTopR
		spec.R = q.R
	}
	return spec, nil
}

// EnumerateResponse is one answered enumeration cell.
type EnumerateResponse struct {
	// Cliques are ascending-sorted, deduplicated, in lexicographic
	// order; Counts[i] = [count_a, count_b] of Cliques[i].
	Cliques [][]int  `json:"cliques"`
	Counts  [][2]int `json:"counts"`
	Size    int      `json:"size"`
	Count   int      `json:"count"`
	// Exact is false only when a budget aborted the search: Cliques
	// then holds the optimum-sized cliques found so far.
	Exact      bool  `json:"exact"`
	UpperBound int   `json:"upper_bound"`
	Gap        int   `json:"gap"`
	Cached     bool  `json:"cached"`
	Epoch      int64 `json:"epoch"`
	Nodes      int64 `json:"nodes"`
}

func enumResponse(rs *fairclique.ResultSet, cached bool, epoch int64) EnumerateResponse {
	cliques := rs.Cliques
	if cliques == nil {
		cliques = [][]int{}
	}
	counts := rs.Counts
	if counts == nil {
		counts = [][2]int{}
	}
	return EnumerateResponse{
		Cliques:    cliques,
		Counts:     counts,
		Size:       rs.Size,
		Count:      len(rs.Cliques),
		Exact:      rs.Exact,
		UpperBound: rs.UpperBound,
		Gap:        rs.Gap,
		Cached:     cached,
		Epoch:      epoch,
		Nodes:      rs.Stats.Nodes,
	}
}

func (s *Server) handleEnumerate(w http.ResponseWriter, r *http.Request) {
	e, ok := s.entry(w, r)
	if !ok {
		return
	}
	var req EnumerateRequest
	if err := decodeJSON(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	spec, err := req.spec()
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	release, err := s.adm.Admit(r.Context(), clientID(r))
	if err != nil {
		writeAdmissionErr(w, err)
		return
	}
	defer release()
	rs, cached, epoch, err := e.Enumerate(spec)
	if err != nil {
		writeEntryErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, enumResponse(rs, cached, epoch))
}

// writeAdmissionErr maps admission failures to statuses.
func writeAdmissionErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrBlacklisted):
		writeErr(w, http.StatusForbidden, err)
	case errors.Is(err, ErrClientSaturated):
		writeErr(w, http.StatusTooManyRequests, err)
	default: // context canceled / deadline while queued
		writeErr(w, http.StatusServiceUnavailable, err)
	}
}

// MutateRequest is the JSON mutation body. Operations are buffered —
// not applied — unless Flush is set or a buffer limit forces it; the
// order add_vertices → add_edges → del_edges → del_vertices matches
// the field order.
type MutateRequest struct {
	AddVertices []string `json:"add_vertices,omitempty"` // "a" or "b"
	AddEdges    [][2]int `json:"add_edges,omitempty"`
	DelEdges    [][2]int `json:"del_edges,omitempty"`
	DelVertices []int    `json:"del_vertices,omitempty"`
	Flush       bool     `json:"flush,omitempty"`
}

// MutateResponse acknowledges buffered mutations.
type MutateResponse struct {
	BufferedOps  int   `json:"buffered_ops"`
	Flushes      int   `json:"flushes"`
	Epoch        int64 `json:"epoch"`
	NewVertexIDs []int `json:"new_vertex_ids,omitempty"`
}

func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	e, ok := s.entry(w, r)
	if !ok {
		return
	}
	if ct := r.Header.Get("Content-Type"); strings.HasPrefix(ct, "text/plain") {
		s.handleMutateStream(w, r, e)
		return
	}
	var req MutateRequest
	if err := decodeJSON(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	ops := make([]Op, 0, len(req.AddVertices)+len(req.AddEdges)+len(req.DelEdges)+len(req.DelVertices))
	for _, a := range req.AddVertices {
		attr, err := graph.ParseAttr(a)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		ops = append(ops, Op{Kind: OpAddVertex, Attr: attr})
	}
	for _, ed := range req.AddEdges {
		ops = append(ops, Op{Kind: OpAddEdge, U: ed[0], V: ed[1]})
	}
	for _, ed := range req.DelEdges {
		ops = append(ops, Op{Kind: OpDelEdge, U: ed[0], V: ed[1]})
	}
	for _, v := range req.DelVertices {
		ops = append(ops, Op{Kind: OpDelVertex, U: v})
	}
	res, err := e.Mutate(ops)
	if err != nil {
		writeEntryErr(w, err)
		return
	}
	if req.Flush {
		if _, err := e.Flush(); err != nil {
			writeEntryErr(w, err)
			return
		}
		res.Flushes++
		res.BufferedOps = 0
		res.Epoch = e.Epoch()
	}
	writeJSON(w, http.StatusOK, MutateResponse{
		BufferedOps: res.BufferedOps, Flushes: res.Flushes,
		Epoch: res.Epoch, NewVertexIDs: res.NewVertexIDs,
	})
}

// handleMutateStream ingests a text/plain op stream: whitespace- or
// comma-separated ops in the CLI delta syntax (+e:U:V, -e:U:V, +v:a,
// -v:ID), buffered in bounded batches as they are read — the body is
// never held in memory whole.
func (s *Server) handleMutateStream(w http.ResponseWriter, r *http.Request, e *GraphEntry) {
	const batch = 1024
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	var (
		ops   []Op
		total MutateResponse
		line  int
	)
	flushBatch := func() bool {
		if len(ops) == 0 {
			return true
		}
		res, err := e.Mutate(ops)
		if err != nil {
			// %w keeps ErrFlushFailed visible through the line prefix.
			writeEntryErr(w, fmt.Errorf("line %d: %w", line, err))
			return false
		}
		total.BufferedOps = res.BufferedOps
		total.Flushes += res.Flushes
		total.Epoch = res.Epoch
		total.NewVertexIDs = append(total.NewVertexIDs, res.NewVertexIDs...)
		ops = ops[:0]
		return true
	}
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		parsed, err := ParseOps(text)
		if err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("line %d: %w", line, err))
			return
		}
		ops = append(ops, parsed...)
		if len(ops) >= batch {
			if !flushBatch() {
				return
			}
		}
	}
	if err := sc.Err(); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("line %d: %w", line+1, err))
		return
	}
	if !flushBatch() {
		return
	}
	if total.Epoch == 0 {
		total.Epoch = e.Epoch()
	}
	writeJSON(w, http.StatusOK, total)
}

// ParseOps parses one line of the mutation op syntax shared with the
// mfc CLI: "+e:U:V", "-e:U:V", "+v:a|b", "-v:ID", separated by spaces
// or commas.
func ParseOps(s string) ([]Op, error) {
	fields := strings.FieldsFunc(s, func(r rune) bool { return r == ' ' || r == ',' || r == '\t' })
	ops := make([]Op, 0, len(fields))
	for _, f := range fields {
		parts := strings.Split(f, ":")
		switch parts[0] {
		case "+e", "-e":
			if len(parts) != 3 {
				return nil, fmt.Errorf("op %q: want %s:U:V", f, parts[0])
			}
			u, err := parseVertex(f, parts[1])
			if err != nil {
				return nil, err
			}
			v, err := parseVertex(f, parts[2])
			if err != nil {
				return nil, err
			}
			kind := OpAddEdge
			if parts[0] == "-e" {
				kind = OpDelEdge
			}
			ops = append(ops, Op{Kind: kind, U: u, V: v})
		case "+v":
			if len(parts) != 2 {
				return nil, fmt.Errorf("op %q: want +v:a or +v:b", f)
			}
			attr, err := graph.ParseAttr(parts[1])
			if err != nil {
				return nil, fmt.Errorf("op %q: %w", f, err)
			}
			ops = append(ops, Op{Kind: OpAddVertex, Attr: attr})
		case "-v":
			if len(parts) != 2 {
				return nil, fmt.Errorf("op %q: want -v:ID", f)
			}
			v, err := parseVertex(f, parts[1])
			if err != nil {
				return nil, err
			}
			ops = append(ops, Op{Kind: OpDelVertex, U: v})
		default:
			return nil, fmt.Errorf("op %q: want +e, -e, +v or -v", f)
		}
	}
	return ops, nil
}

func parseVertex(op, s string) (int, error) {
	var v int
	if _, err := fmt.Sscanf(s, "%d", &v); err != nil || fmt.Sprintf("%d", v) != s {
		return 0, fmt.Errorf("op %q: %q is not a vertex id", op, s)
	}
	return v, nil
}

// FlushResponse acknowledges a forced flush.
type FlushResponse struct {
	Epoch   int64 `json:"epoch"`
	Flushed bool  `json:"flushed"`
}

func (s *Server) handleFlush(w http.ResponseWriter, r *http.Request) {
	e, ok := s.entry(w, r)
	if !ok {
		return
	}
	before := e.Flushes()
	epoch, err := e.Flush()
	if err != nil {
		writeEntryErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, FlushResponse{Epoch: epoch, Flushed: e.Flushes() > before})
}

// GraphMetrics is one graph's block in /metrics.
type GraphMetrics struct {
	Vertices    int           `json:"vertices"`
	Edges       int           `json:"edges"`
	Epoch       int64         `json:"epoch"`
	Flushes     int64         `json:"flushes"`
	BufferedOps int           `json:"buffered_ops"`
	CacheHits   int64         `json:"cache_hits"`
	CacheMisses int64         `json:"cache_misses"`
	LiveByEpoch map[int64]int `json:"live_queries_by_epoch"`
}

// MetricsResponse is the /metrics body.
type MetricsResponse struct {
	UptimeSeconds float64                    `json:"uptime_seconds"`
	Admission     AdmissionSnapshot          `json:"admission"`
	CacheHits     int64                      `json:"cache_hits"`
	CacheMisses   int64                      `json:"cache_misses"`
	CacheHitRate  float64                    `json:"cache_hit_rate"`
	Endpoints     map[string]EndpointMetrics `json:"endpoints"`
	Statuses      map[int]int64              `json:"statuses"`
	Graphs        map[string]GraphMetrics    `json:"graphs"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	resp := MetricsResponse{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Admission:     s.adm.Snapshot(),
		Endpoints:     s.met.Endpoints(),
		Statuses:      s.met.Statuses(),
		Graphs:        make(map[string]GraphMetrics),
	}
	for _, name := range s.reg.Names() {
		e, ok := s.reg.Get(name)
		if !ok {
			continue
		}
		hits, misses := e.CacheStats()
		resp.CacheHits += hits
		resp.CacheMisses += misses
		resp.Graphs[name] = GraphMetrics{
			Vertices:    e.Session().N(),
			Edges:       e.Session().M(),
			Epoch:       e.Epoch(),
			Flushes:     e.Flushes(),
			BufferedOps: e.BufferedOps(),
			CacheHits:   hits,
			CacheMisses: misses,
			LiveByEpoch: e.LiveByEpoch(),
		}
	}
	if total := resp.CacheHits + resp.CacheMisses; total > 0 {
		resp.CacheHitRate = float64(resp.CacheHits) / float64(total)
	}
	writeJSON(w, http.StatusOK, resp)
}
