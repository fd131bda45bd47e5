// Command kbench regenerates the evaluation tables of "K-Reach: Who is in
// Your Small World" (Tables 2–9) on the synthetic dataset suite.
//
// Usage:
//
//	kbench [-table all|2|3|...|9[,more]] [-queries N]
//	       [-scale S] [-datasets name1,name2] [-seed S]
//
// The paper runs 1,000,000 random queries per dataset (the default here).
// Use -scale to shrink the datasets (e.g. -scale 10) for quick runs, and
// -datasets to restrict the suite.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"kreach/internal/bench"
	"kreach/internal/gen"
)

func main() {
	var (
		table    = flag.String("table", "all", "comma-separated tables to run (2..9) or 'all'")
		queries  = flag.Int("queries", 1_000_000, "query workload size")
		scale    = flag.Int("scale", 1, "divide dataset sizes by this factor")
		datasets = flag.String("datasets", "", "comma-separated dataset names (default: all 15)")
		seed     = flag.Uint64("seed", 1, "random seed for covers and workloads")
		list     = flag.Bool("list", false, "list dataset names and exit")
	)
	flag.Parse()
	if *list {
		for _, n := range gen.Names() {
			fmt.Println(n)
		}
		return
	}
	var names []string
	if *datasets != "" {
		names = strings.Split(*datasets, ",")
	}
	r := bench.NewRunner(bench.Config{
		Datasets: names,
		Queries:  *queries,
		Scale:    *scale,
		Seed:     *seed,
		Out:      os.Stdout,
	})
	t0 := time.Now()
	if err := r.Run(strings.Split(*table, ",")); err != nil {
		fmt.Fprintln(os.Stderr, "kbench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "\nkbench: done in %v\n", time.Since(t0).Round(time.Millisecond))
}
