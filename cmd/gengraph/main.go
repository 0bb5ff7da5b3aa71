// Command gengraph writes deterministic synthetic attributed graphs in
// the fairclique text format: either one of the named benchmark
// stand-ins, or a raw model with explicit parameters.
//
// Usage:
//
//	gengraph -dataset dblp-sim -scale 0.5 -out g.txt
//	gengraph -model ba -n 5000 -m 8 -seed 7 -out g.txt
//	gengraph -model er -n 1000 -m 5000 -out g.txt
//	gengraph -model rmat -scale-exp 18 -edges 2000000 -out g.snap -format snap -attrs-out g.attrs
//	gengraph -model ingest -scale 1.0 -format snap -out g.snap -attrs-out g.attrs
//	gengraph -model team -n 4000 -teams 3000 -mean 4 -out g.txt
//	gengraph -model bigcomp -n 5200 -core 230 -corep 0.5 -out g.txt
//	gengraph -list
//
// The rmat model draws power-law R-MAT samples and normalizes them
// through the streaming CSR builder (self-loops dropped, duplicates
// merged, sparse id space densified) — the scalable generator for
// multi-million-edge instances. The ingest model is the canonical
// paper-scale benchmark instance (see gen.IngestGiant). With
// -format snap the graph is written as a SNAP edge list, and
// -attrs-out writes the companion attribute file.
//
// The bigcomp model emits a single connected component guaranteed to
// exceed 4096 (graph.ChunkBits) vertices (a dense nucleus welded to a
// long alternating cycle): too large for one flat row table, so the
// branch-and-bound engine and its benchmarks search it on per-root
// rows.
package main

import (
	"flag"
	"fmt"
	"os"

	"fairclique/datasets"
	"fairclique/internal/gen"
	"fairclique/internal/graph"
)

func main() {
	var (
		dataset  = flag.String("dataset", "", "named benchmark stand-in (see -list)")
		scale    = flag.Float64("scale", 1.0, "dataset scale factor")
		model    = flag.String("model", "", "raw model: er, ba, ws, team, sbm, bigcomp, rmat, ingest")
		n        = flag.Int("n", 1000, "number of vertices")
		m        = flag.Int("m", 4, "edges (er: total; ba: per vertex; ws: half-neighbourhood)")
		teams    = flag.Int("teams", 800, "team count (team model)")
		mean     = flag.Float64("mean", 4, "mean team size (team model)")
		beta     = flag.Float64("beta", 0.1, "rewire probability (ws model)")
		blocks   = flag.Int("blocks", 10, "community count (sbm model)")
		core     = flag.Int("core", 230, "dense nucleus size (bigcomp model)")
		corep    = flag.Float64("corep", 0.5, "nucleus edge probability (bigcomp model)")
		pin      = flag.Float64("pin", 0.1, "intra-community probability (sbm)")
		pout     = flag.Float64("pout", 0.001, "inter-community probability (sbm)")
		pA       = flag.Float64("pa", 0.5, "probability of attribute a")
		seed     = flag.Uint64("seed", 1, "random seed")
		out      = flag.String("out", "", "output path (default stdout)")
		list     = flag.Bool("list", false, "list named datasets and exit")
		scaleExp = flag.Uint("scale-exp", 18, "log2 of the rmat vertex id space")
		edges    = flag.Int64("edges", 1_000_000, "rmat edge samples to draw")
		format   = flag.String("format", "text", "output format: text or snap")
		attrsOut = flag.String("attrs-out", "", "companion attribute file (snap format)")
	)
	flag.Parse()

	if *list {
		for _, name := range datasets.Names() {
			info, _ := datasets.Describe(name)
			fmt.Printf("%-16s %s (k sweep %v, defaults k=%d δ=%d)\n",
				info.Name, info.Description, info.Ks, info.DefaultK, info.DefaultDelta)
		}
		return
	}

	var g *graph.Graph
	switch {
	case *dataset != "":
		d, err := gen.DatasetByName(*dataset)
		if err != nil {
			fatal(err)
		}
		g = d.Build(*scale)
	case *model == "bigcomp":
		// Attributes are part of the model (alternating shell), so the
		// uniform assignment below is skipped.
		shell := *n - *core
		if *n <= graph.ChunkBits {
			fatal(fmt.Errorf("bigcomp needs -n > %d so the component is too large for one flat row table (got -n %d)", graph.ChunkBits, *n))
		}
		if *core < 3 {
			fatal(fmt.Errorf("bigcomp needs -core >= 3 for the nucleus (got -core %d)", *core))
		}
		if shell < 3 {
			fatal(fmt.Errorf("bigcomp needs -n >= -core + 3 for the cycle shell (got -n %d, -core %d)", *n, *core))
		}
		g = gen.BigComponent(*seed, *core, *corep, shell)
	case *model != "":
		var base *graph.Graph
		switch *model {
		case "er":
			base = gen.ErdosRenyi(*seed, *n, *m)
		case "ba":
			base = gen.BarabasiAlbert(*seed, *n, *m)
		case "ws":
			base = gen.WattsStrogatz(*seed, *n, *m, *beta)
		case "team":
			base = gen.TeamGraph(*seed, *n, *teams, *mean)
		case "sbm":
			sizes := make([]int, *blocks)
			for i := range sizes {
				sizes[i] = *n / *blocks
			}
			base = gen.SBM(*seed, sizes, *pin, *pout)
		case "rmat":
			var st *graph.StreamStats
			var err error
			base, st, err = gen.RMATGraph(*seed, *scaleExp, *edges, 0, 0, 0, *pA, graph.StreamConfig{})
			if err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "gengraph: rmat stream: %d read, %d loops, %d dups, %d runs spilled\n",
				st.EdgesRead, st.SelfLoops, st.Duplicates, st.RunsSpilled)
			g = base
		case "ingest":
			g = gen.IngestGiant(*seed, *scale)
		default:
			fatal(fmt.Errorf("unknown model %q", *model))
		}
		if g == nil {
			g = gen.AssignUniform(*seed+1, base, *pA)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	switch *format {
	case "text":
		if err := graph.Write(w, g); err != nil {
			fatal(err)
		}
	case "snap":
		if err := graph.WriteSNAP(w, g); err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("unknown format %q (want text or snap)", *format))
	}
	if *attrsOut != "" {
		f, err := os.Create(*attrsOut)
		if err != nil {
			fatal(err)
		}
		if err := graph.WriteSNAPAttrs(f, g); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	fmt.Fprintf(os.Stderr, "gengraph: wrote %d vertices, %d edges\n", g.N(), g.M())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gengraph:", err)
	os.Exit(1)
}
