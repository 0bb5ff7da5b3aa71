// Fairness models compared: the weak, relative and strong fair clique
// models (§II and §VII of the paper) on one collaboration network, plus
// component-parallel search. Weak fairness only demands k of each
// attribute; the relative model adds the δ balance window; strong
// fairness demands exactly equal counts (δ = 0).
//
//	go run ./examples/fairnessmodels
package main

import (
	"fmt"
	"log"
	"runtime"
	"time"

	"fairclique"
	"fairclique/datasets"
)

func main() {
	g, err := datasets.Load("aminer-sim", 0.5)
	if err != nil {
		log.Fatal(err)
	}
	info, _ := datasets.Describe("aminer-sim")
	fmt.Printf("%s at half scale: %d vertices, %d edges\n\n", info.Name, g.N(), g.M())

	const k = 5
	fmt.Printf("maximum fair cliques at k=%d under the three models:\n", k)

	weakOpt := fairclique.DefaultOptions(k, 0)
	weakOpt.Mode = fairclique.ModeWeak
	weak, err := fairclique.Find(g, weakOpt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  weak     (no balance)  size %2d  (%d a / %d b)\n",
		weak.Size(), weak.CountA, weak.CountB)

	for _, delta := range []int{4, 2, 1} {
		rel, err := fairclique.Find(g, fairclique.DefaultOptions(k, delta))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  relative (δ = %d)       size %2d  (%d a / %d b)\n",
			delta, rel.Size(), rel.CountA, rel.CountB)
	}

	strongOpt := fairclique.DefaultOptions(k, 0)
	strongOpt.Mode = fairclique.ModeStrong
	strong, err := fairclique.Find(g, strongOpt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  strong   (exact equal) size %2d  (%d a / %d b)\n",
		strong.Size(), strong.CountA, strong.CountB)

	// Component-parallel search: same exact optimum, spread over cores.
	fmt.Printf("\nparallel search (%d workers):\n", runtime.NumCPU())
	opt := fairclique.DefaultOptions(k, 2)
	start := time.Now()
	serial, err := fairclique.Find(g, opt)
	if err != nil {
		log.Fatal(err)
	}
	serialTime := time.Since(start)
	opt.Workers = runtime.NumCPU()
	start = time.Now()
	parallel, err := fairclique.Find(g, opt)
	if err != nil {
		log.Fatal(err)
	}
	parTime := time.Since(start)
	fmt.Printf("  serial:   size %d in %v\n", serial.Size(), serialTime.Round(time.Microsecond))
	fmt.Printf("  parallel: size %d in %v\n", parallel.Size(), parTime.Round(time.Microsecond))
	if serial.Size() != parallel.Size() {
		log.Fatal("parallel search changed the optimum — this is a bug")
	}
}
