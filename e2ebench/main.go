// Command e2ebench is the repository's end-to-end benchmark. It drives an
// in-process heterog-serve stack (service replicas, router, store) over
// loopback HTTP with one seeded open-loop generator, checks every plan the
// service returns, and prints the end-to-end metrics, or with --trace 1 the
// per-layer breakdown. See README.md for the metrics and workloads.
//
//	bash e2ebench/run.sh --workload cold-search --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	var o options
	var traced int
	flag.StringVar(&o.Workload, "workload", "", "workload: cold-search, warm-routed, drift-durable or fleet-lease")
	flag.Int64Var(&o.Seed, "seed", 1, "seed for the arrival schedule, specs and telemetry")
	flag.IntVar(&o.Seconds, "seconds", 15, "length of the timed arrival window")
	flag.IntVar(&traced, "trace", 0, "1 records spans and prints the per-layer metrics instead")
	flag.Parse()
	if traced != 0 && traced != 1 {
		fmt.Fprintln(os.Stderr, "e2ebench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o.Trace = traced == 1
	if o.Seconds < 1 {
		fmt.Fprintln(os.Stderr, "e2ebench: --seconds must be positive")
		os.Exit(2)
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
