package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"fairclique/internal/session"
)

// SchedBenchCell is one grid cell of the scheduler experiment with the
// answer every scheduling mode must agree on.
type SchedBenchCell struct {
	K     int  `json:"k"`
	Delta int  `json:"delta"`
	Weak  bool `json:"weak,omitempty"`
	Size  int  `json:"size"`
}

// SchedCurvePoint is one worker count of the scaling curve: the same
// grid with every cell's search split across W workers.
type SchedCurvePoint struct {
	Workers int     `json:"workers"`
	Seconds float64 `json:"seconds"`
	// SpeedupOverW1 is W1Seconds / Seconds (1.0 at the W=1 point by
	// construction).
	SpeedupOverW1 float64 `json:"speedup_over_w1"`
}

// SchedBenchResult records the parallel-search experiment (`benchmark
// -exp sched`): the same (k, δ) grid answered by one session serially
// (Workers=1) and with each cell's search on core's private root split
// (Workers=4), with per-cell equality across every run, plus a
// W ∈ {1, 2, 4, 8} scaling curve. Merged into BENCH_core.json under
// "sched" by `make bench`; the bench-parallel CI job gates on
// SpeedupW4OverW1 on a multi-core runner.
type SchedBenchResult struct {
	Graph      CoreBenchGraph   `json:"graph"`
	GridSpec   string           `json:"grid_spec"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	NumCPU     int              `json:"num_cpu"`
	Workers    int              `json:"workers"`
	Cells      []SchedBenchCell `json:"cells"`
	// Grid wall-clock (best of 3, fresh session per repetition).
	W1Seconds      float64 `json:"w1_seconds"`
	SplitW4Seconds float64 `json:"split_w4_seconds"`
	// SpeedupW4OverW1 is the split W4 grid against the serial grid.
	SpeedupW4OverW1 float64 `json:"speedup_w4_over_w1"`
	// AllMatch is true iff every cell agreed in size across every run
	// — the record is only trustworthy when it is.
	AllMatch bool `json:"all_match"`
	// Curve is the scaling curve over the -workers-curve counts
	// (default 1, 2, 4, 8).
	Curve []SchedCurvePoint `json:"curve"`
	// PeakAllocBytes is the sampled heap high-water mark across the
	// measured runs (runtime.ReadMemStats).
	PeakAllocBytes uint64 `json:"peak_alloc_bytes"`
}

// schedWorkers is the parallel configuration measured against W1 — the
// same 4-worker point the core engine record uses.
const schedWorkers = 4

// SchedBench measures the grid on the bigcomp-giant instance, serial
// and with each cell's search split across workers.
func SchedBench(cfg Config) (res SchedBenchResult, err error) {
	g, desc := coreBenchInstance(cfg.scale())
	spec, qs, err := gridBenchQueries(cfg.GridSpec)
	if err != nil {
		return SchedBenchResult{}, err
	}
	res = SchedBenchResult{
		Graph:      desc,
		GridSpec:   spec,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Workers:    schedWorkers,
		AllMatch:   true,
	}
	sampler := startPeakSampler()
	defer func() { res.PeakAllocBytes = sampler.Stop() }()
	base := gridSessionOptions(cfg.MaxNodes)

	// A fresh session per repetition: a warm one would answer the
	// repeated grid from memory and measure the split of nothing.
	measure := func(opt session.Options) (float64, []int, error) {
		var best float64
		var sizes []int
		for rep := 0; rep < 3; rep++ {
			s := session.New(g, opt)
			start := time.Now()
			rs, err := s.FindGrid(qs)
			elapsed := time.Since(start).Seconds()
			if err != nil {
				return 0, nil, err
			}
			if rep == 0 || elapsed < best {
				best = elapsed
			}
			if sizes == nil {
				sizes = make([]int, len(rs))
				for i, r := range rs {
					sizes[i] = r.Size()
				}
			} else {
				for i, r := range rs {
					if r.Size() != sizes[i] {
						return 0, nil, fmt.Errorf("sched bench: cell %d unstable across repetitions (%d vs %d)", i, r.Size(), sizes[i])
					}
				}
			}
		}
		return best, sizes, nil
	}

	w1 := base
	w1.Workers = 1
	var w1Sizes []int
	if res.W1Seconds, w1Sizes, err = measure(w1); err != nil {
		return res, err
	}
	for i, q := range qs {
		res.Cells = append(res.Cells, SchedBenchCell{
			K: int(q.K), Delta: int(q.Delta), Weak: q.Weak, Size: w1Sizes[i],
		})
	}

	split := base
	split.Workers = schedWorkers
	splitSecs, splitSizes, err := measure(split)
	if err != nil {
		return res, err
	}
	res.SplitW4Seconds = splitSecs
	for i := range qs {
		if splitSizes[i] != w1Sizes[i] {
			res.AllMatch = false
		}
	}
	if res.SplitW4Seconds > 0 {
		res.SpeedupW4OverW1 = res.W1Seconds / res.SplitW4Seconds
	}

	// The scaling curve: the same grid at each requested worker count
	// (already-measured points are reused).
	curveWorkers := cfg.SchedWorkersCurve
	if len(curveWorkers) == 0 {
		curveWorkers = []int{1, 2, 4, 8}
	}
	for _, wk := range curveWorkers {
		var secs float64
		switch {
		case wk <= 1:
			secs = res.W1Seconds
		case wk == schedWorkers:
			secs = res.SplitW4Seconds
		default:
			opt := base
			opt.Workers = wk
			s, sizes, err := measure(opt)
			if err != nil {
				return res, err
			}
			for i := range qs {
				if sizes[i] != w1Sizes[i] {
					res.AllMatch = false
				}
			}
			secs = s
		}
		pt := SchedCurvePoint{Workers: wk, Seconds: secs}
		if secs > 0 {
			pt.SpeedupOverW1 = res.W1Seconds / secs
		}
		res.Curve = append(res.Curve, pt)
	}

	return res, nil
}

// WriteSchedBench runs SchedBench, writes its JSON record to w, embeds
// it under "sched" in the core record at mergePath when given, and —
// when minSpeedup > 0 — fails unless the measured W4/W1 speedup
// strictly exceeds it. The bench-parallel CI job runs this
// with -min-speedup 1.5 on its multi-core runner.
func WriteSchedBench(cfg Config, w io.Writer, mergePath string, minSpeedup float64) error {
	res, err := SchedBench(cfg)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		return err
	}
	if !res.AllMatch {
		return fmt.Errorf("sched bench: runs disagree on cell answers; record not trustworthy")
	}
	if mergePath != "" {
		if err := mergeCoreBlock(mergePath, "sched", res); err != nil {
			return err
		}
	}
	if minSpeedup > 0 {
		if res.GOMAXPROCS < 2 {
			return fmt.Errorf("sched bench: -min-speedup needs a multi-core run, but GOMAXPROCS=%d", res.GOMAXPROCS)
		}
		if res.SpeedupW4OverW1 <= minSpeedup {
			return fmt.Errorf("sched bench: split W%d/W1 speedup %.2fx is not above the %.2fx gate (W1 %.3fs, W%d %.3fs)",
				schedWorkers, res.SpeedupW4OverW1, minSpeedup, res.W1Seconds, schedWorkers, res.SplitW4Seconds)
		}
		// Status goes to stderr: w may be the JSON record file, which
		// must stay machine-parseable for the CI artifact.
		fmt.Fprintf(os.Stderr, "sched bench: split W%d/W1 speedup %.2fx clears the %.2fx gate\n",
			schedWorkers, res.SpeedupW4OverW1, minSpeedup)
	}
	return nil
}
