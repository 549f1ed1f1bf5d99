// Command perfbench is the repository's serving benchmark. It builds the
// common fixture, drives the public service API from closed-loop clients
// (plus a writer beside them on ingest), checks answers against the
// naivescan oracle, and prints one JSON record per run. See README.md.
//
//	perfbench --workload hot-zipf --seed 1 --seconds 10 --trace 0
//	perfbench --compare parent-dir change-dir
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

// spec is one workload. README.md gives the reason for each.
type spec struct {
	name    string
	remote  bool // serve over two loopback shard servers
	readers int  // closed-loop reader clients
	pool    int  // query pool size
	zipf    bool // readers draw zipf(1.2) over the pool; else walk it once
	writer  bool // one writer: a burst of writeBurst mutations per writeEvery served queries
}

var specs = []spec{
	{name: "hot-zipf", readers: 2, pool: 256, zipf: true},
	{name: "cold-unique", readers: 2, pool: 30000},
	{name: "ingest", readers: 1, pool: 16, zipf: true, writer: true},
	{name: "remote-2srv", remote: true, readers: 1, pool: 256, zipf: true},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	wl := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "timed phase length")
	traced := fs.Int("trace", 0, "1: print the per-layer metrics of a traced run")
	corruptOne := fs.Bool("corrupt", false, "corrupt one oracle answer; the run must then fail its gate")
	compare := fs.Bool("compare", false, "compare two directories of run outputs: --compare PARENT CHANGE")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "perfbench: --compare needs two directories")
			os.Exit(2)
		}
		if err := compareRuns(os.Stdout, "BENCHMARK.json", fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	w, ok := specByName(*wl)
	if !ok {
		names := make([]string, len(specs))
		for i, s := range specs {
			names[i] = s.name
		}
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *wl, strings.Join(names, ", "))
		os.Exit(2)
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		os.Exit(2)
	}
	rec, err := run(w, *seed, *seconds, *traced == 1, *corruptOne)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(map[string]any{"record": rec}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := out.Encode(rec.summary()); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !rec.Correct {
		for _, f := range rec.Failures {
			fmt.Fprintln(os.Stderr, "perfbench: gate:", f)
		}
		os.Exit(1)
	}
}
