// Command mfcd is the maximum-fair-clique daemon: an HTTP/JSON server
// over a multi-tenant registry of named graphs, each a live dynamic
// Session. See internal/serve for the endpoint semantics (write-buffer
// coalescing, epoch-keyed result cache, prioritized admission) and
// ARCHITECTURE.md for a curl walkthrough.
//
// Usage:
//
//	mfcd -addr :8080
//	mfcd -addr 127.0.0.1:0 -ready-file /tmp/mfcd.addr   # CI: random port
//	mfcd -allow-paths -graph web=graph.txt              # preload from disk
//
// Admission control:
//
//	mfcd -max-inflight 8 -max-per-client 2 \
//	     -blacklist crawler1,crawler2 -priority dashboard=10,batch=-5
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"fairclique"
	"fairclique/internal/serve"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address (port 0 = random)")
		readyFile    = flag.String("ready-file", "", "write the bound address to this file once listening (for scripts using port 0)")
		workers      = flag.Int("workers", 0, "per-session branching parallelism (0 = serial)")
		maxInFlight  = flag.Int("max-inflight", 0, "max concurrently executing queries (0 = default)")
		maxPerClient = flag.Int("max-per-client", 0, "max in-flight+queued queries per client (0 = no cap)")
		blacklist    = flag.String("blacklist", "", "comma-separated client ids rejected with 403")
		priority     = flag.String("priority", "", "comma-separated client=prio admission priorities (higher first)")
		maxVertices  = flag.Int("max-vertices", 0, "upload limit on vertex ids (0 = default)")
		maxEdges     = flag.Int("max-edges", 0, "upload limit on edge count (0 = default)")
		maxBody      = flag.Int64("max-body", 0, "request body byte cap (0 = default)")
		allowPaths   = flag.Bool("allow-paths", false, "allow creating graphs from server-side file paths")
		maxBuffered  = flag.Int("max-buffered-ops", 0, "write-buffer size that forces a flush (0 = default)")
	)
	var preload preloadFlags
	flag.Var(&preload, "graph", "preload a graph: name=path or name=edges.txt:attrs.txt (SNAP); repeatable")
	flag.Parse()

	prio, err := parsePriorities(*priority)
	if err != nil {
		fatal(err)
	}
	cfg := serve.Config{
		Workers:         *workers,
		MaxInFlight:     *maxInFlight,
		MaxPerClient:    *maxPerClient,
		Blacklist:       splitList(*blacklist),
		Priorities:      prio,
		MaxVertices:     *maxVertices,
		MaxEdges:        *maxEdges,
		MaxBodyBytes:    *maxBody,
		AllowPathCreate: *allowPaths,
		MaxBufferedOps:  *maxBuffered,
	}
	srv := serve.New(cfg)

	for _, p := range preload {
		g, err := loadGraph(p.path)
		if err != nil {
			fatal(fmt.Errorf("preload %s: %w", p.name, err))
		}
		e, err := srv.Registry().Create(p.name, g)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "mfcd: loaded graph %q: %d vertices, %d edges\n",
			p.name, e.Session().N(), e.Session().M())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	bound := ln.Addr().String()
	if *readyFile != "" {
		if err := os.WriteFile(*readyFile, []byte(bound), 0o644); err != nil {
			fatal(err)
		}
	}
	fmt.Fprintf(os.Stderr, "mfcd: listening on %s\n", bound)

	httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	select {
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "mfcd: shutting down")
		shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(shCtx)
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	}
}

// preloadFlags collects repeated -graph name=path flags.
type preloadFlags []struct{ name, path string }

func (p *preloadFlags) String() string { return fmt.Sprintf("%d graphs", len(*p)) }

func (p *preloadFlags) Set(s string) error {
	name, path, ok := strings.Cut(s, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("want name=path, got %q", s)
	}
	*p = append(*p, struct{ name, path string }{name, path})
	return nil
}

// loadGraph reads path as "edges.txt:attrs.txt" (SNAP pair) or a
// single text-format file.
func loadGraph(path string) (*fairclique.Graph, error) {
	if edges, attrs, ok := strings.Cut(path, ":"); ok {
		return fairclique.ReadSNAPFiles(edges, attrs)
	}
	return fairclique.ReadGraphFile(path)
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ",")
}

func parsePriorities(s string) (map[string]int, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[string]int)
	for _, part := range strings.Split(s, ",") {
		client, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("mfcd: -priority wants client=prio, got %q", part)
		}
		p, err := strconv.Atoi(val)
		if err != nil {
			return nil, fmt.Errorf("mfcd: -priority %q: %w", part, err)
		}
		out[client] = p
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mfcd:", err)
	os.Exit(1)
}
