package main

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"prague/internal/core"
	"prague/internal/graph"
	"prague/internal/service"
	"prague/internal/workload"
)

// tally is what one client measured while serving one service: the
// benchmark's own spans around each public call, plus the per-step times
// the program reports in StepOutcome.
type tally struct {
	queries int
	actions int
	failed  int
	srt     dist
	step    dist
	session dist // Create + Delete
	spig    time.Duration
	eval    time.Duration
	steps   int
}

func (t *tally) merge(o *tally) {
	t.queries += o.queries
	t.actions += o.actions
	t.failed += o.failed
	t.srt = append(t.srt, o.srt...)
	t.step = append(t.step, o.step...)
	t.session = append(t.session, o.session...)
	t.spig += o.spig
	t.eval += o.eval
	t.steps += o.steps
}

// runQuery drives one query as one session: Create, AddNode per node,
// AddEdge per edge (ChooseSimilarity when the step empties Rq),
// RunDetailed, Delete. It returns the Run outcome and whether every action
// succeeded with an exact, untruncated answer.
func runQuery(ctx context.Context, svc *service.Service, q workload.Query, t *tally) (core.RunOutcome, bool) {
	t.queries++
	t.actions++
	t0 := time.Now()
	ss, err := svc.Create(ctx)
	sess := time.Since(t0)
	if err != nil {
		t.failed++
		return core.RunOutcome{}, false
	}
	ok := true
	ids := make([]int, len(q.NodeLabels))
	for i, l := range q.NodeLabels {
		t.actions++
		if ids[i], err = ss.AddNode(l); err != nil {
			t.failed++
			ok = false
			break
		}
	}
	for _, e := range q.Edges {
		if !ok {
			break
		}
		t.actions++
		ts := time.Now()
		out, err := ss.AddEdge(ctx, ids[e[0]], ids[e[1]])
		if err != nil {
			t.failed++
			ok = false
			break
		}
		t.spig += out.SpigTime
		t.eval += out.EvalTime
		if out.NeedsChoice {
			t.actions++
			out, err = ss.ChooseSimilarity(ctx)
			if err != nil {
				t.failed++
				ok = false
				break
			}
			t.spig += out.SpigTime
			t.eval += out.EvalTime
		}
		t.step = append(t.step, time.Since(ts))
		t.steps++
	}
	var ro core.RunOutcome
	if ok {
		t.actions++
		ts := time.Now()
		ro, err = ss.RunDetailed(ctx)
		t.srt = append(t.srt, time.Since(ts))
		if err != nil || ro.Truncated || ro.Stage != core.StageFull {
			t.failed++
			ok = false
		}
	}
	t.actions++
	t0 = time.Now()
	if err := svc.Delete(ss.ID()); err != nil {
		t.failed++
		ok = false
	}
	t.session = append(t.session, sess+time.Since(t0))
	return ro, ok
}

// mutator applies a mutation schedule through the service. It remembers
// the ids of its own live inserts, oldest first, so deletes only ever
// remove them.
type mutator struct {
	db   []*graph.Graph
	svc  *service.Service
	own  []int
	late dist // send time minus due time (ingest writer only)
	lat  dist // completion minus due time
	svcT dist // completion minus send time
	n    int
	fail int
}

func (m *mutator) apply(ctx context.Context, op mutOp, due time.Time) {
	sent := time.Now()
	var err error
	if op.insert {
		var id int
		id, err = m.svc.InsertGraph(ctx, m.db[op.src].Clone())
		if err == nil {
			m.own = append(m.own, id)
		}
	} else {
		err = m.svc.DeleteGraph(ctx, m.own[0])
		if err == nil {
			m.own = m.own[1:]
		}
	}
	done := time.Now()
	m.n++
	if err != nil {
		m.fail++
		return
	}
	m.late = append(m.late, sent.Sub(due))
	m.lat = append(m.lat, done.Sub(due))
	m.svcT = append(m.svcT, done.Sub(sent))
}

// paced applies one burst of burst ops for each due time it receives,
// until due is closed or ops run out. A burst is due when the reader it
// rides beside has served another writeEvery queries; the reader never
// waits for it. Ops of a burst go back to back, and each is timed from
// when its burst was due, so a mutation's latency counts its wait behind
// the others. It returns how many ops it applied.
func (m *mutator) paced(ctx context.Context, ops []mutOp, burst int, due <-chan time.Time) int {
	k := 0
	for at := range due {
		for i := 0; i < burst && k < len(ops); i++ {
			m.apply(ctx, ops[k], at)
			k++
		}
	}
	return k
}

// closedLoop applies ops back to back, each timed from when it was sent.
func (m *mutator) closedLoop(ctx context.Context, ops []mutOp) {
	for _, op := range ops {
		m.apply(ctx, op, time.Now())
	}
}

// readers runs n closed-loop clients until stop is set. next picks client
// c's next pool index; svcOf picks the service a query starts on (it
// changes during a traced run) and which tally it is recorded in. after is
// called with each successful Run outcome.
func readers(ctx context.Context, n int, stop *atomic.Bool,
	next func(c int) int,
	svcOf func() (*service.Service, int),
	after func(c, qi int, ro core.RunOutcome),
	pool []workload.Query) [][2]*tally {
	out := make([][2]*tally, n)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		out[c] = [2]*tally{{}, {}}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for !stop.Load() {
				qi := next(c)
				svc, side := svcOf()
				ro, ok := runQuery(ctx, svc, pool[qi], out[c][side])
				if ok {
					after(c, qi, ro)
				}
			}
		}(c)
	}
	wg.Wait()
	return out
}

// sortedKeys returns a map's int keys in ascending order.
func sortedKeys[V any](m map[int]V) []int {
	ks := make([]int, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	return ks
}
