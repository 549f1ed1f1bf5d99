package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"

	"prague/internal/graph"
	"prague/internal/workload"
)

// rareAtoms are the labels a relabeled query node takes: rare enough in the
// fixture that the exact candidate set Rq usually empties and the session
// continues as a similarity search.
var rareAtoms = []string{"Hg", "Se", "I", "P", "Cl", "Br"}

// querySizes are the edge counts of generated queries (4 to 10 edges),
// dealt in turn so every pool holds each size equally often.
var querySizes = []int{4, 5, 6, 7, 8, 9, 10}

// driftEvery is how many draws of one reader's stream share a popularity
// ranking.
const driftEvery = 16

// rareEvery: one query in rareEvery gets a rare atom.
const rareEvery = 2

// inputs is everything the benchmark generates from its seed: the query
// pool, each client's popularity stream, and the mutation schedules. The
// program under test receives only these.
type inputs struct {
	pool    []workload.Query
	streams [][]int32 // per reader: pool indices in draw order (nil: shared walk)
	muts    [][]mutOp // the ingest writer's schedule, or one write probe per set-up
}

// mutOp is one scheduled mutation: an insert adds a clone of data graph
// src; a delete removes the writer's oldest live insert.
type mutOp struct {
	insert bool
	src    int
}

// genPool samples n random connected subgraphs of data graphs and
// relabels one node of every rareEvery-th one to a rare atom.
func genPool(db []*graph.Graph, n int, seed int64) ([]workload.Query, error) {
	pool, err := workload.ContainmentQueries(db, n, querySizes, seed)
	if err != nil {
		return nil, fmt.Errorf("query pool: %w", err)
	}
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	for i := range pool {
		if i%rareEvery != rareEvery-1 {
			continue
		}
		q := &pool[i]
		q.NodeLabels = append([]string(nil), q.NodeLabels...)
		q.NodeLabels[r.Intn(len(q.NodeLabels))] = rareAtoms[r.Intn(len(rareAtoms))]
		q.Name += "-rare"
	}
	return pool, nil
}

// zipfStream draws n pool indices from zipf(s) over a pool of size m.
// Popularity drifts: every driftEvery draws the ranks rotate one place
// over a seeded permutation of the pool, so each query holds each rank in
// turn, once every m rotations. A run's cost then follows the whole pool
// rather than whichever queries random rankings happened to favour: the
// slow tail of the SRT is a handful of queries, and with a fresh random
// ranking per rotation how often each was drawn moved the p99 by seed.
func zipfStream(m, n int, s float64, seed int64) []int32 {
	r := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(r, s, 1, uint64(m-1))
	base := r.Perm(m)
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(base[(int(z.Uint64())+i/driftEvery)%m])
	}
	return out
}

// mutSchedule is the writer's op sequence. The seed drives whether each op
// inserts or deletes; own inserts stay between 8 and 24, so the store's
// live count stays within 24 of the fixture. Inserts clone data graphs in
// one fixed order and deletes remove the oldest own insert, so every seed
// inserts the same graphs for about as long: molecule sizes are
// heavy-tailed, and with seeded sources the few 100-node clones a run
// happened to hold set its ingest throughput.
func mutSchedule(dbSize, n int, seed int64) []mutOp {
	order := rand.New(rand.NewSource(mutSourceSeed)).Perm(dbSize)
	r := rand.New(rand.NewSource(seed))
	ops := make([]mutOp, n)
	own, inserted := 0, 0
	for i := range ops {
		insert := r.Intn(2) == 0
		if own < 8 {
			insert = true
		} else if own >= 24 {
			insert = false
		}
		if insert {
			ops[i] = mutOp{insert: true, src: order[inserted%dbSize]}
			inserted++
			own++
		} else {
			own--
		}
	}
	return ops
}

// digest hashes the generated inputs: the same seed gives the same digest,
// and any change in the pool, a stream, or the schedule changes it.
func (in *inputs) digest() string {
	h := sha256.New()
	var b [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	for _, q := range in.pool {
		h.Write([]byte(q.Name))
		for _, l := range q.NodeLabels {
			h.Write([]byte(l))
			h.Write([]byte{0})
		}
		for _, e := range q.Edges {
			put(int64(e[0]))
			put(int64(e[1]))
		}
	}
	for _, s := range in.streams {
		put(int64(len(s)))
		for _, v := range s {
			put(int64(v))
		}
	}
	for _, ops := range in.muts {
		put(int64(len(ops)))
		for _, m := range ops {
			if m.insert {
				put(int64(m.src))
			} else {
				put(-1)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
