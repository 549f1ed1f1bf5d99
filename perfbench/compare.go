package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json compare mode reads.
type benchSpec struct {
	EndToEnd []boundSpec `json:"end_to_end"`
	PerLayer []boundSpec `json:"per_layer"`
}

type boundSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// runSet maps workload → metric → seed → the value that run measured.
// Runs of the two sides with the same seed form a pair.
type runSet map[string]map[string]map[int64]float64

// loadRuns reads every regular file in dir as one run's standard output:
// the line holding {"record": ...} names the workload and seed, and its
// metrics are the run's values.
func loadRuns(dir string) (runSet, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	set := runSet{}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		path := filepath.Join(dir, e.Name())
		rec, err := readRecord(path)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rec == nil {
			continue
		}
		if set[rec.Workload] == nil {
			set[rec.Workload] = map[string]map[int64]float64{}
		}
		for name, m := range rec.Metrics {
			bySeed := set[rec.Workload][name]
			if bySeed == nil {
				bySeed = map[int64]float64{}
				set[rec.Workload][name] = bySeed
			}
			if _, dup := bySeed[rec.Env.Seed]; dup {
				return nil, fmt.Errorf("%s: a second %s run with seed %d", path, rec.Workload, rec.Env.Seed)
			}
			bySeed[rec.Env.Seed] = m.Value
		}
	}
	return set, nil
}

func readRecord(path string) (*record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, `{"record":`) {
			continue
		}
		var wrap struct {
			Record record `json:"record"`
		}
		if err := json.Unmarshal([]byte(line), &wrap); err != nil {
			return nil, err
		}
		if !wrap.Record.Correct {
			return nil, fmt.Errorf("run failed its correctness gate")
		}
		return &wrap.Record, nil
	}
	return nil, sc.Err()
}

// quartiles returns Q1, median and Q3 with the same method as Python's
// statistics.quantiles(values, n=4) (exclusive interpolation).
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(p float64) float64 {
		m := p * float64(n+1)
		j := int(m)
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + (m-float64(j))*(s[j]-s[j-1])
	}
	return at(0.25), median(s), at(0.75)
}

// values returns a side's values in seed order.
func values(bySeed map[int64]float64) []float64 {
	seeds := make([]int64, 0, len(bySeed))
	for s := range bySeed {
		seeds = append(seeds, s)
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	out := make([]float64, len(seeds))
	for i, s := range seeds {
		out[i] = bySeed[s]
	}
	return out
}

// wins counts the seeds both sides ran (pairs) and those on which the
// change reads strictly better (won); ties count for neither.
func wins(parent, change map[int64]float64, better string) (won, pairs int) {
	for s, p := range parent {
		c, ok := change[s]
		if !ok {
			continue
		}
		pairs++
		if (better == "higher" && c > p) || (better != "higher" && c < p) {
			won++
		}
	}
	return won, pairs
}

// verdict judges change against parent for one metric. worse: the
// change's median is worse than the parent's by more than the bound.
// better: the change wins at least nine tenths of the pairs and the
// medians differ by more than the parent's own spread (Q3 − Q1 over the
// median) in the good direction. same: neither. When the parent's spread
// is wider than the bound, a difference is resolved only if every change
// run beats, or loses to, every parent run. A metric with no bound
// (per-layer) is better (by the same rule) or worse by more than the
// spread, else "-".
func verdict(parent, change map[int64]float64, better string, bound float64) string {
	pv, cv := values(parent), values(change)
	p1, pm, p3 := quartiles(pv)
	_, cm, _ := quartiles(cv)
	sign := 1.0
	if better == "higher" {
		sign = -1
	}
	worse := sign * (cm - pm) / pm // > 0: the change is worse
	spread := (p3 - p1) / pm
	won, pairs := wins(parent, change, better)
	gain := pairs > 0 && 10*won >= 9*pairs && -worse > spread
	switch {
	case bound == 0 && worse > spread:
		return "worse"
	case bound == 0 && gain:
		return "better"
	case bound == 0:
		return "-"
	case spread > bound && allBeyond(cv, pv, sign):
		return "better"
	case spread > bound && allBeyond(pv, cv, sign):
		return "worse"
	case spread > bound:
		return "unresolved"
	case worse > bound:
		return "worse"
	case gain:
		return "better"
	}
	return "same"
}

// allBeyond reports whether every value in a is better than every value
// in b (sign +1: lower is better).
func allBeyond(a, b []float64, sign float64) bool {
	for _, x := range a {
		for _, y := range b {
			if sign*(x-y) >= 0 {
				return false
			}
		}
	}
	return true
}

// compareRuns prints, per workload and metric, both sides' median and
// quartiles, the change's wins over paired seeds, and the verdict under
// BENCHMARK.json's bounds.
func compareRuns(w io.Writer, benchPath, parentDir, changeDir string) error {
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", benchPath, err)
	}
	parent, err := loadRuns(parentDir)
	if err != nil {
		return err
	}
	change, err := loadRuns(changeDir)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tparent q1/med/q3\tchange q1/med/q3\tn\twins\tbound\tverdict")
	for _, wl := range sortedNames(parent) {
		for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
			pv, cv := parent[wl][m.Name], change[wl][m.Name]
			if len(pv) == 0 || len(cv) == 0 {
				continue
			}
			p1, pm, p3 := quartiles(values(pv))
			c1, cm, c3 := quartiles(values(cv))
			won, pairs := wins(pv, cv, m.Better)
			bound := "-"
			if m.Bound > 0 {
				bound = fmt.Sprintf("%.2f", m.Bound)
			}
			v := "-"
			if pm != 0 {
				v = verdict(pv, cv, m.Better, m.Bound)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g/%.4g/%.4g\t%.4g/%.4g/%.4g\t%d/%d\t%d/%d\t%s\t%s\n",
				wl, m.Name, m.Unit, p1, pm, p3, c1, cm, c3, len(pv), len(cv), won, pairs, bound, v)
		}
	}
	return tw.Flush()
}

func sortedNames(s runSet) []string {
	out := make([]string, 0, len(s))
	for k := range s {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
