package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"prague/internal/core"
	"prague/internal/metrics"
	"prague/internal/naivescan"
	"prague/internal/service"
)

const (
	zipfS       = 1.2
	streamLen   = 1 << 17 // draws per reader stream; cycled if a run outlasts it
	writeEvery  = 64      // ingest: reader queries served per writer burst
	writeBurst  = 16      // ingest: mutations due together
	maxWriteOps = 2048    // ingest schedule length per second of the timed phase
	probeOps    = 1100    // write probe per set-up on workloads without a writer
	coldSamples = 64      // served cold-unique queries checked against the oracle
	coldEvery   = 40      // cold-unique pool indices sampled: one in coldEvery

	zipfPoolSeed  = 1
	mutSourceSeed = 2
)

// metric is one printed metric.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// timing is one latency distribution as median and p99 with its sample
// count.
type timing struct {
	P50MS float64 `json:"p50_ms"`
	P99MS float64 `json:"p99_ms"`
	N     int     `json:"n"`
}

// record is everything one run measured.
type record struct {
	Workload   string             `json:"workload"`
	Traced     bool               `json:"traced"`
	Env        envBlock           `json:"env"`
	Digest     string             `json:"input_digest"`
	Correct    bool               `json:"correct"`
	Checked    int                `json:"answers_checked"`
	Failures   []string           `json:"gate_failures,omitempty"` // the first maxNamed
	GateFailed int                `json:"gate_failed"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Timings    map[string]timing  `json:"timings"`
	Counts     map[string]int64   `json:"counts"`
	Metrics    map[string]metric  `json:"metrics"`
	Setups     []float64          `json:"setup_s_each"`
	Phases     map[string]float64 `json:"phase_s"` // wall time of each phase of the run
}

// summary is the contract's last line: correctness, action counts, and
// the metrics of the run's kind.
func (r *record) summary() map[string]any {
	return map[string]any{
		"correct":   r.Correct,
		"attempted": r.Attempted,
		"failed":    r.Failed,
		"metrics":   r.Metrics,
	}
}

// timing records one latency as median and p99 over the samples of every
// client.
func (r *record) timing(name string, parts ...dist) error {
	var all dist
	for _, p := range parts {
		all = append(all, p...)
	}
	p50, err := all.quantile(name, 0.5)
	if err != nil {
		return err
	}
	p99, err := all.quantile(name, 0.99)
	if err != nil {
		return err
	}
	r.Timings[name] = timing{P50MS: p50, P99MS: p99, N: len(all)}
	r.Env.Samples[name] = len(all)
	return nil
}

func (r *record) put(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

// run executes one workload run: set-up, oracle, warm-up, the timed phase,
// correctness gate and write probe. An untraced run sets up setupReps
// times: the first stack serves, and the others are built and torn down
// between slices of the timed phase. Spread that way, the timed phase
// samples the host over about twice its own length, so a slow spell on a
// shared host moves a run's figures less.
func run(w spec, seed int64, seconds int, traced, corruptOne bool) (*record, error) {
	ctx := context.Background()
	rec := &record{
		Workload: w.name, Traced: traced, Env: newEnv(seed, seconds),
		Timings: map[string]timing{}, Counts: map[string]int64{}, Metrics: map[string]metric{},
		Phases: map[string]float64{},
	}
	db, err := fixtureDB()
	if err != nil {
		return nil, err
	}
	in := &inputs{}
	// The zipf workloads share one fixed pool; the seed drives their
	// popularity draws and mutation schedule. With a pool drawn from the
	// seed, the p99 timings followed whichever heavy queries it held.
	poolSeed := seed
	if w.zipf {
		poolSeed = zipfPoolSeed
	}
	if in.pool, err = genPool(db, w.pool, poolSeed); err != nil {
		return nil, err
	}
	if w.zipf {
		for c := 0; c < w.readers; c++ {
			in.streams = append(in.streams, zipfStream(len(in.pool), streamLen, zipfS, seed*1009+int64(c)+1))
		}
	}
	if w.writer {
		// Far more ops than a run applies: the reader's pace sets how
		// many bursts fall due.
		in.muts = [][]mutOp{mutSchedule(len(db), maxWriteOps*seconds, seed*7919+3)}
	} else {
		for k := 0; k < setupReps; k++ {
			in.muts = append(in.muts, mutSchedule(len(db), probeOps, seed*7919+3+int64(k)*104729))
		}
	}
	rec.Digest = in.digest()

	s, setup1, err := setup(db, w.remote, traced)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer s.close()
	rec.Setups = []float64{setup1.Seconds()}

	mark := time.Now()
	lap := func(name string) {
		rec.Phases[name] = time.Since(mark).Seconds()
		mark = time.Now()
	}
	procs := runtime.GOMAXPROCS(0)
	oracle, err := naivescan.New(db, procs)
	if err != nil {
		return nil, err
	}
	var g gate
	// The zipf workloads without a writer check every Run against
	// answers computed here, before any timing.
	var want [][]core.Result
	if w.zipf && !w.writer {
		want = poolAnswers(oracle, in.pool)
		if err := selfCheck(want[0]); err != nil {
			return nil, err
		}
		if corruptOne {
			qi := in.streams[0][0]
			want[qi] = corrupt(want[qi])
		}
	}

	lap("oracle")
	services := []*service.Service{s.svc}
	if traced {
		services = append(services, s.traced)
	}
	if w.zipf {
		for _, svc := range services {
			var scratch tally
			for i, q := range in.pool {
				if ro, ok := runQuery(ctx, svc, q, &scratch); !ok {
					g.fail(fmt.Sprintf("warm-up query %s failed", q.Name))
				} else if want != nil {
					g.check(q.Name, ro.Results, want[i])
				}
			}
		}
	}
	runtime.GC()
	lap("warmup")

	var (
		side      atomic.Int32
		pos       = make([]int, w.readers)
		walk      atomic.Int64
		lastEpoch = make([]uint64, w.readers)
		keptMu    sync.Mutex
		kept      = map[int][]core.Result{}
		sampleOff = int((seed%coldEvery + coldEvery) % coldEvery)
		served    int64
		burstDue  chan time.Time // ingest: a burst falls due each writeEvery served queries
	)
	next := func(c int) int {
		if w.zipf {
			qi := int(in.streams[c][pos[c]%streamLen])
			pos[c]++
			return qi
		}
		return int((walk.Add(1) - 1) % int64(len(in.pool)))
	}
	svcOf := func() (*service.Service, int) {
		if side.Load() == 1 {
			return s.traced, 1
		}
		return s.svc, 0
	}
	after := func(c, qi int, ro core.RunOutcome) {
		switch {
		case w.writer:
			if ro.Epoch < lastEpoch[c] {
				g.fail(fmt.Sprintf("query %s: reader %d saw epoch %d after %d", in.pool[qi].Name, c, ro.Epoch, lastEpoch[c]))
			}
			lastEpoch[c] = ro.Epoch
			// ingest has one reader, so served needs no lock. The channel
			// holds a burst for every op of the schedule and never fills.
			if served++; served%writeEvery == 0 {
				burstDue <- time.Now()
			}
		case want != nil:
			g.check(in.pool[qi].Name, ro.Results, want[qi])
		case qi%coldEvery == sampleOff:
			keptMu.Lock()
			kept[qi] = ro.Results
			keptMu.Unlock()
		}
	}

	// Timed phase: the readers (and on ingest the writer) run in slices;
	// the per-client tallies accumulate across slices in order. A traced
	// run is one slice: the readers use the untraced service for its first
	// quarter, the traced one for the half after, and the untraced one for
	// the last quarter, so drift hits both sides alike.
	//
	// Without a writer, each set-up's stack takes one closed-loop write
	// probe: the extra stacks before they are torn down, the serving one
	// after the gate. mut is the writer or the serving stack's probe;
	// mutators holds every mutator of the run.
	mut := &mutator{db: db, svc: s.svc}
	mutators := []*mutator{mut}
	epoch0 := s.st.Epoch()
	acc := make([][2]*tally, w.readers)
	for c := range acc {
		acc[c] = [2]*tally{{}, {}}
	}
	var (
		elapsed, tSide time.Duration
		snapT0, snapT1 metrics.Snapshot
		nextMut        int
	)
	slice := func(d time.Duration) {
		var stop atomic.Bool
		start := time.Now()
		var writerDone sync.WaitGroup
		if w.writer {
			burstDue = make(chan time.Time, len(in.muts[0])/writeBurst+1)
			writerDone.Add(1)
			go func() {
				defer writerDone.Done()
				nextMut += mut.paced(ctx, in.muts[0][nextMut:], writeBurst, burstDue)
			}()
		}
		go func() {
			if traced {
				time.Sleep(d / 4)
				snapT0 = s.treg.Snapshot()
				t0 := time.Now()
				side.Store(1)
				time.Sleep(d / 2)
				side.Store(0)
				tSide = time.Since(t0)
				snapT1 = s.treg.Snapshot()
				time.Sleep(time.Until(start.Add(d)))
			} else {
				time.Sleep(d)
			}
			stop.Store(true)
		}()
		ts := readers(ctx, w.readers, &stop, next, svcOf, after, in.pool)
		elapsed += time.Since(start)
		if w.writer {
			close(burstDue) // the writer finishes the bursts already due
		}
		writerDone.Wait()
		for c := range ts {
			acc[c][0].merge(ts[c][0])
			acc[c][1].merge(ts[c][1])
		}
	}
	slices := 1
	if !traced {
		slices = setupReps
	}
	dur := time.Duration(seconds) * time.Second
	for i := 0; i < slices; i++ {
		if i > 0 {
			runtime.GC()
			extra, d, err := setup(db, w.remote, false)
			if err != nil {
				return nil, fmt.Errorf("setup %d: %w", i+1, err)
			}
			if !w.writer {
				p := &mutator{db: db, svc: extra.svc}
				p.closedLoop(ctx, in.muts[i])
				p.svc = nil // keep the samples, not the torn-down stack
				mutators = append(mutators, p)
			}
			extra.close()
			rec.Setups = append(rec.Setups, d.Seconds())
			runtime.GC()
		}
		slice(dur / time.Duration(slices))
	}
	epochs := s.st.Epoch() - epoch0
	idSpace := float64(s.st.NumGraphs()) / float64(len(s.st.LiveIDs()))

	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	lap("timed")

	var u, t tally
	var srtParts, stepParts []dist
	for _, ts := range acc {
		u.merge(ts[0])
		t.merge(ts[1])
		srtParts = append(srtParts, ts[0].srt)
		stepParts = append(stepParts, ts[0].step)
	}

	// Correctness gate after the timed phase.
	switch {
	case w.writer:
		live, err := naivescan.NewFromStore(s.st, procs)
		if err != nil {
			return nil, err
		}
		var scratch tally
		for i, q := range in.pool {
			ans := expected(live, q)
			if i == 0 {
				if err := selfCheck(ans); err != nil {
					return nil, err
				}
				if corruptOne {
					ans = corrupt(ans)
				}
			}
			if ro, ok := runQuery(ctx, s.svc, q, &scratch); !ok {
				g.fail(fmt.Sprintf("final query %s failed", q.Name))
			} else {
				g.check(q.Name, ro.Results, ans)
			}
		}
	case want == nil:
		ks := sortedKeys(kept)
		if len(ks) > coldSamples {
			ks = ks[:coldSamples]
		}
		if len(ks) == 0 {
			return nil, fmt.Errorf("no sampled query was served")
		}
		for i, qi := range ks {
			ans := expected(oracle, in.pool[qi])
			if i == 0 {
				if err := selfCheck(ans); err != nil {
					return nil, err
				}
				if corruptOne {
					ans = corrupt(ans)
				}
			}
			g.check(in.pool[qi].Name, kept[qi], ans)
		}
	}
	lap("gate")
	if !w.writer {
		mut.closedLoop(ctx, in.muts[0])
	}
	lap("probe")

	rec.Checked = g.checked
	rec.Failures = g.fails
	rec.GateFailed = g.failed
	rec.Correct = g.failed == 0
	rec.Attempted = u.actions + t.actions
	rec.Failed = u.failed + t.failed
	var mutLat []dist
	for _, m := range mutators {
		rec.Attempted += m.n
		rec.Failed += m.fail
		rec.Counts["mutations"] += int64(m.n)
		mutLat = append(mutLat, m.lat)
	}

	if traced {
		if err := rec.perLayer(w, &t, &u, snapT0, snapT1, tSide, elapsed, mut, epochs, idSpace); err != nil {
			return nil, err
		}
		return rec, nil
	}

	// Untraced: end-to-end metrics.
	heapMB := float64(ms.HeapAlloc) / (1 << 20)
	for _, e := range []struct {
		name  string
		parts []dist
	}{{"srt", srtParts}, {"step", stepParts}, {"mutation", mutLat}} {
		if err := rec.timing(e.name, e.parts...); err != nil {
			return nil, err
		}
	}
	rec.put("setup_s", median(rec.Setups), "s")
	rec.put("queries_per_s", float64(u.queries)/elapsed.Seconds(), "1/s")
	rec.put("srt_p50_ms", rec.Timings["srt"].P50MS, "ms")
	rec.put("srt_p99_ms", rec.Timings["srt"].P99MS, "ms")
	rec.put("step_p50_ms", rec.Timings["step"].P50MS, "ms")
	rec.put("step_p99_ms", rec.Timings["step"].P99MS, "ms")
	rec.put("mutation_p50_ms", rec.Timings["mutation"].P50MS, "ms")
	rec.put("mutation_p99_ms", rec.Timings["mutation"].P99MS, "ms")
	rec.put("ok_ratio", 1-float64(rec.Failed)/float64(rec.Attempted), "ratio")
	rec.put("heap_mb", heapMB, "MiB")
	rec.Counts["queries"] = int64(u.queries)
	rec.Counts["steps"] = int64(u.steps)
	rec.Counts["epochs"] = int64(epochs)
	return rec, nil
}
