package main

import (
	"math"
	"testing"

	"prague/internal/core"
	"prague/internal/dataset"
)

func TestGateRejectsCorruptedAnswers(t *testing.T) {
	for _, want := range [][]core.Result{
		nil,
		{{GraphID: 3}},
		{{GraphID: 1, Distance: 1}, {GraphID: 7, Distance: 2}},
	} {
		if err := selfCheck(want); err != nil {
			t.Errorf("answer %v: %v", want, err)
		}
		var g gate
		g.check("same", append([]core.Result(nil), want...), want)
		if len(g.fails) != 0 {
			t.Errorf("answer %v: identical answer reported: %v", want, g.fails)
		}
	}
	var g gate
	g.check("q7", []core.Result{{GraphID: 1, Distance: 2}}, []core.Result{{GraphID: 1, Distance: 1}})
	if len(g.fails) != 1 || g.checked != 1 {
		t.Fatalf("wrong distance passed the gate: %v", g.fails)
	}
}

func TestInputsDeterministic(t *testing.T) {
	db, err := dataset.Molecules(dataset.MoleculeOptions{NumGraphs: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	gen := func(seed int64) string {
		pool, err := genPool(db, 32, seed)
		if err != nil {
			t.Fatal(err)
		}
		in := inputs{
			pool:    pool,
			streams: [][]int32{zipfStream(len(pool), 1000, zipfS, seed)},
			muts:    [][]mutOp{mutSchedule(len(db), 500, seed)},
		}
		return in.digest()
	}
	a, b, c := gen(5), gen(5), gen(6)
	if a != b {
		t.Fatalf("same seed, different digests %s, %s", a, b)
	}
	if a == c {
		t.Fatalf("seeds 5 and 6 share digest %s", a)
	}
}

func TestMutScheduleKeepsOwnInsertsBounded(t *testing.T) {
	own := 0
	for i, op := range mutSchedule(2000, 5000, 9) {
		if op.insert {
			own++
		} else {
			own--
		}
		if own < 0 || own > 24 {
			t.Fatalf("op %d: %d own inserts live", i, own)
		}
	}
}

func TestQuantileRefusesThinP99(t *testing.T) {
	d := make(dist, minP99Samples-1)
	if _, err := d.quantile("x", 0.99); err == nil {
		t.Fatal("p99 reported from too few samples")
	}
	if _, err := d.quantile("x", 0.5); err != nil {
		t.Fatal(err)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4),
// the spread the benchmark's steadiness is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles(xs)
	for _, c := range []struct{ got, want float64 }{{q1, 2.75}, {med, 5.5}, {q3, 8.25}} {
		if math.Abs(c.got-c.want) > 1e-12 {
			t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	parent := map[int64]float64{}
	for i, v := range []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100} {
		parent[int64(i+1)] = v
	}
	scale := func(f float64) map[int64]float64 {
		out := map[int64]float64{}
		for s, v := range parent {
			out[s] = v * f
		}
		return out
	}
	// Faster by a fifth on eight seeds, slower on two: the medians differ
	// by more than the spread, but the change wins only 8 of 10 pairs.
	mixed := scale(0.8)
	mixed[3], mixed[7] = 150, 150
	for _, c := range []struct {
		name   string
		change map[int64]float64
		better string
		want   string
	}{
		{"×1.3", scale(1.3), "lower", "worse"},
		{"×0.8", scale(0.8), "lower", "better"},
		{"×1.0", scale(1.0), "lower", "same"},
		{"×1.3", scale(1.3), "higher", "better"},
		{"8 of 10", mixed, "lower", "same"},
	} {
		if got := verdict(parent, c.change, c.better, 0.1); got != c.want {
			t.Errorf("better=%s change %s: verdict %s, want %s", c.better, c.name, got, c.want)
		}
	}
}
