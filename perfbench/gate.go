package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"prague/internal/core"
	"prague/internal/naivescan"
	"prague/internal/workload"
)

// expected is the oracle's answer to one finished query. A query some data
// graph contains answers with exactly those graphs at distance 0. Otherwise
// the session ends as a similarity search (by ChooseSimilarity or by Run's
// transparent fallback) and answers with every graph within σ, ranked by
// distance then id.
func expected(ns *naivescan.Engine, q workload.Query) []core.Result {
	qg := q.Graph()
	if ids, _ := ns.Containment(qg); len(ids) > 0 {
		out := make([]core.Result, len(ids))
		for i, id := range ids {
			out[i] = core.Result{GraphID: id}
		}
		return out
	}
	sim, _ := ns.Similarity(qg, sigma)
	out := make([]core.Result, len(sim))
	for i, r := range sim {
		out[i] = core.Result{GraphID: r.GraphID, Distance: r.Distance}
	}
	return out
}

// poolAnswers returns the oracle's answer to every query of a pool. The
// zipf pool is the same in every run, so the answers are kept in
// .bench_build under a key that covers the source tree and the pool; a
// later run of the same tree reads them instead of scanning again.
func poolAnswers(ns *naivescan.Engine, pool []workload.Query) [][]core.Result {
	var path string
	if tree, err := treeDigest(); err == nil {
		in := inputs{pool: pool}
		path = filepath.Join(".bench_build", "oracle-"+tree[:16]+"-"+in.digest()+".json")
		var want [][]core.Result
		if b, err := os.ReadFile(path); err == nil && json.Unmarshal(b, &want) == nil && len(want) == len(pool) {
			return want
		}
	}
	want := make([][]core.Result, len(pool))
	for i, q := range pool {
		want[i] = expected(ns, q)
	}
	if b, err := json.Marshal(want); err == nil && path != "" {
		// Best effort: a run without .bench_build just scans every time.
		tmp := path + ".tmp"
		if os.WriteFile(tmp, b, 0o644) == nil {
			_ = os.Rename(tmp, path)
		}
	}
	return want
}

// diff describes the first difference between a served answer and the
// oracle's, or returns "" when they are identical.
func diff(got, want []core.Result) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d results, oracle %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Sprintf("result %d is (%d,%d), oracle (%d,%d)",
				i, got[i].GraphID, got[i].Distance, want[i].GraphID, want[i].Distance)
		}
	}
	return ""
}

// corrupt returns a copy of an answer with one deliberate error: the last
// result dropped, or a phantom result added to an empty answer.
func corrupt(ans []core.Result) []core.Result {
	if len(ans) == 0 {
		return []core.Result{{GraphID: 0}}
	}
	return append([]core.Result(nil), ans[:len(ans)-1]...)
}

// maxNamed is how many failures a gate keeps by name; it counts the rest.
const maxNamed = 20

// gate collects correctness failures from every client. Each failure names
// the query it happened on.
type gate struct {
	mu      sync.Mutex
	checked int
	failed  int
	fails   []string
}

func (g *gate) check(name string, got, want []core.Result) {
	d := diff(got, want)
	g.mu.Lock()
	defer g.mu.Unlock()
	g.checked++
	if d != "" {
		g.add(fmt.Sprintf("query %s: %s", name, d))
	}
}

func (g *gate) fail(msg string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.add(msg)
}

// add records one failure; g.mu is held.
func (g *gate) add(msg string) {
	g.failed++
	if len(g.fails) < maxNamed {
		g.fails = append(g.fails, msg)
	}
}

// selfCheck proves the gate can fail: a deliberately corrupted copy of a
// real oracle answer must be reported as a mismatch.
func selfCheck(want []core.Result) error {
	var g gate
	g.check("self-check", corrupt(want), want)
	if g.failed != 1 {
		return fmt.Errorf("correctness gate accepted a corrupted answer")
	}
	return nil
}
