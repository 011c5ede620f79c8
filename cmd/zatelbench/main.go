// Command zatelbench runs one workload of the repository's benchmark and
// prints its metrics; see README.md beside this file and BENCHMARK.json at
// the repository root.
//
//	go run ./cmd/zatelbench -workload cold_frame -seed 1
//	go run ./cmd/zatelbench -workload serve_tiers -seed 1 -trace 1 -spans spans.json
package main

import (
	"os"

	"zatel/internal/bench"
)

func main() { os.Exit(bench.Main(os.Args[1:], os.Stdout, os.Stderr)) }
