// Package serve is the mfcd daemon's engine room: an HTTP/JSON
// front-end over a multi-tenant registry of named graphs, each backed
// by a live fairclique.Session.
//
// The layer stack, from the wire down:
//
//		handler → admission → registry → graph entry → Session → epoch
//
//	  - Admission: every query is admitted through one prioritized gate —
//	    blacklisted clients are rejected outright, a global in-flight cap
//	    bounds concurrent search work, and when the gate is full waiters
//	    queue by per-client priority (FIFO within a priority). This is
//	    the CliqueAI miner's forward/blacklist/priority trio, reshaped
//	    for a query daemon.
//	  - Registry: named graphs are created from an uploaded text body
//	    (parsed through graph.ReadWithLimits, so oversized or garbage
//	    uploads die with a line-numbered 400, never an OOM) or from a
//	    server-side SNAP/text file path, and deleted independently;
//	    every graph is its own Session with its own write buffer, cache
//	    and metrics.
//	  - Write buffer: mutations do NOT call Session.Apply — they
//	    coalesce into a buffered delta (last-op-wins per edge, vertex
//	    appends in order) and are flushed as ONE Apply by the next query
//	    on that graph (or when the buffer hits its cap, or on explicit
//	    /flush). A hundred single-edge mutations between two queries
//	    cost one CSR rebuild instead of a hundred. Operations whose
//	    sequential meaning a single batched delta cannot express (an
//	    edge insert touching a buffered vertex deletion, a vertex delete
//	    touching buffered edge ops) force an intermediate flush instead
//	    of being misordered.
//	  - Result cache: answers are cached under (epoch, k, δ, mode). The
//	    epoch is the session's graph generation, bumped exactly by
//	    flushes, so an entry can never serve a stale graph: a flush
//	    evicts precisely the mutated graph's entries and no other
//	    graph's. A query that races a flush (the epoch moved while it
//	    searched) stores nothing rather than guessing which generation
//	    it answered.
//	  - Epoch gauge: per graph, the number of in-flight queries still
//	    pinned to each epoch. A straggler query keeps its (retired)
//	    epoch's prepared state alive in session memory; the gauge in
//	    /metrics is how an operator spots that.
//
// Everything is exported through Server.Handler, so tests and the
// benchmark's in-process serve-mixed workload (perfbench) drive the
// exact code path cmd/mfcd listens with.
package serve

import (
	"fmt"
	"net/http"
	"strings"
	"time"
)

// Config tunes a Server. The zero value serves with sane defaults
// (see the field comments); DefaultConfig spells them out.
type Config struct {
	// Workers is the per-session branching parallelism handed to every
	// graph's Session (0 = serial).
	Workers int

	// MaxInFlight caps concurrently executing queries across all
	// graphs; further queries wait in the priority queue. 0 means
	// DefaultMaxInFlight.
	MaxInFlight int
	// MaxPerClient caps the in-flight-plus-queued queries of one
	// client; beyond it the client gets 429 immediately. 0 = no cap.
	MaxPerClient int
	// Blacklist rejects these client ids with 403 on every endpoint.
	Blacklist []string
	// Priorities ranks clients in the admission queue (higher first,
	// FIFO within equal priority). Unlisted clients have priority 0.
	Priorities map[string]int

	// MaxVertices / MaxEdges bound uploaded graph bodies
	// (graph.ReadLimits). 0 means the DefaultMax* constants — never
	// unlimited: this is the daemon's untrusted-input path.
	MaxVertices int
	MaxEdges    int
	// MaxBodyBytes caps any request body (http.MaxBytesReader).
	// 0 means DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// AllowPathCreate permits creating graphs from server-side file
	// paths (SNAP or text). Off by default: a remote client must not
	// read the server's filesystem unless the operator opted in.
	AllowPathCreate bool

	// MaxBufferedOps flushes a graph's write buffer once it holds this
	// many coalesced operations even if no query arrives. 0 means
	// DefaultMaxBufferedOps.
	MaxBufferedOps int
	// MaxCacheEntries bounds each graph's result cache: its Find
	// answers and enumeration sets together. 0 means
	// DefaultMaxCacheEntries.
	MaxCacheEntries int
}

// Default limits for Config zero fields.
const (
	DefaultMaxInFlight     = 16
	DefaultMaxVertices     = 1 << 22 // 4M vertices
	DefaultMaxEdges        = 1 << 26 // 64M edges
	DefaultMaxBodyBytes    = 1 << 30 // 1 GiB upload
	DefaultMaxBufferedOps  = 1 << 16
	DefaultMaxCacheEntries = 4096
)

// withDefaults resolves zero fields to the documented defaults.
func (c Config) withDefaults() Config {
	if c.MaxInFlight == 0 {
		c.MaxInFlight = DefaultMaxInFlight
	}
	if c.MaxVertices == 0 {
		c.MaxVertices = DefaultMaxVertices
	}
	if c.MaxEdges == 0 {
		c.MaxEdges = DefaultMaxEdges
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if c.MaxBufferedOps == 0 {
		c.MaxBufferedOps = DefaultMaxBufferedOps
	}
	if c.MaxCacheEntries == 0 {
		c.MaxCacheEntries = DefaultMaxCacheEntries
	}
	return c
}

// Server owns the registry, the admission gate and the metrics of one
// daemon instance.
type Server struct {
	cfg   Config
	reg   *Registry
	adm   *Admission
	met   *Metrics
	start time.Time
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		cfg:   cfg,
		reg:   NewRegistry(cfg),
		adm:   NewAdmission(cfg.MaxInFlight, cfg.MaxPerClient, cfg.Blacklist, cfg.Priorities),
		met:   NewMetrics(),
		start: time.Now(),
	}
}

// Registry exposes the server's graph registry (tests and the load
// generator reach the entries directly through it).
func (s *Server) Registry() *Registry { return s.reg }

// Handler returns the daemon's HTTP handler. The API is versioned
// under /v1; every error is the envelope {"error": {code, message,
// line}}. Routes:
//
//	GET    /v1/healthz                 liveness
//	GET    /v1/metrics                 admission, cache, latency, epoch gauge
//	GET    /v1/graphs                  list graphs
//	POST   /v1/graphs                  create (JSON {name, text | path[, attr_path, format]})
//	GET    /v1/graphs/{name}           graph info + session stats
//	DELETE /v1/graphs/{name}           drop the graph
//	POST   /v1/graphs/{name}/query     one cell  {k, delta, mode}
//	POST   /v1/graphs/{name}/grid      many cells {cells: [...]}
//	POST   /v1/graphs/{name}/enumerate all maximum fair cliques {k, delta, mode[, r]}
//	POST   /v1/graphs/{name}/mutate    buffer mutations (JSON delta or text/plain op stream)
//	POST   /v1/graphs/{name}/flush     force-apply the write buffer
//
// Any other path, the pre-versioning unversioned ones included, is a
// 404 with code not_found; a known path with the wrong method is a 405
// with code method_not_allowed and the Allow header.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", s.wrap("healthz", s.handleHealthz))
	mux.HandleFunc("GET /v1/metrics", s.wrap("metrics", s.handleMetrics))
	mux.HandleFunc("GET /v1/graphs", s.wrap("graphs.list", s.handleListGraphs))
	mux.HandleFunc("POST /v1/graphs", s.wrap("graphs.create", s.handleCreateGraph))
	mux.HandleFunc("GET /v1/graphs/{name}", s.wrap("graphs.info", s.handleGraphInfo))
	mux.HandleFunc("DELETE /v1/graphs/{name}", s.wrap("graphs.delete", s.handleDeleteGraph))
	mux.HandleFunc("POST /v1/graphs/{name}/query", s.wrap("query", s.handleQuery))
	mux.HandleFunc("POST /v1/graphs/{name}/grid", s.wrap("grid", s.handleGrid))
	mux.HandleFunc("POST /v1/graphs/{name}/enumerate", s.wrap("enumerate", s.handleEnumerate))
	mux.HandleFunc("POST /v1/graphs/{name}/mutate", s.wrap("mutate", s.handleMutate))
	mux.HandleFunc("POST /v1/graphs/{name}/flush", s.wrap("flush", s.handleFlush))
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h, pattern := mux.Handler(r)
		if pattern != "" {
			mux.ServeHTTP(w, r)
			return
		}
		// No route: the mux's fallback decides between 404 and 405 and
		// names the allowed methods; keep its status and Allow header,
		// not its plain-text body.
		fb := &fallback{header: http.Header{}, status: http.StatusNotFound}
		h.ServeHTTP(fb, r)
		if allow := fb.header.Get("Allow"); allow != "" {
			w.Header().Set("Allow", allow)
		}
		writeErr(w, fb.status, fmt.Errorf("%s %s: %s", r.Method, r.URL.Path, strings.ToLower(http.StatusText(fb.status))))
	})
}

// fallback records the status and headers a ServeMux fallback handler
// writes and drops its body.
type fallback struct {
	header http.Header
	status int
}

func (f *fallback) Header() http.Header         { return f.header }
func (f *fallback) Write(b []byte) (int, error) { return len(b), nil }
func (f *fallback) WriteHeader(status int)      { f.status = status }
