package main

import (
	"time"

	"prague/internal/metrics"
)

// delta reads what the traced service's registry gained over the traced
// half of the run.
type delta struct{ a, b metrics.Snapshot }

func (d delta) counter(name string) float64 {
	return float64(d.b.Counters[name] - d.a.Counters[name])
}

// phase returns the span count and summed milliseconds of one phase_*
// histogram.
func (d delta) phase(kind string) (count, sumMS float64) {
	a, b := d.a.Histograms[metrics.HistPhasePrefix+kind], d.b.Histograms[metrics.HistPhasePrefix+kind]
	return float64(b.Count - a.Count), b.SumMS - a.SumMS
}

func per(x, base float64) float64 {
	if base == 0 {
		return 0
	}
	return x / base
}

// perLayer fills the traced run's metrics: one group per layer, each
// normalised by the work the traced half did (queries, steps or Runs), as
// counted by the benchmark itself.
func (r *record) perLayer(w spec, t, u *tally, a, b metrics.Snapshot, tSide, elapsed time.Duration,
	mut *mutator, epochs uint64, idSpace float64) error {
	d := delta{a, b}
	queries, steps, runs := float64(t.queries), float64(t.steps), float64(len(t.srt))
	session, err := t.session.quantile("service.session", 0.5)
	if err != nil {
		return err
	}
	r.put("service.shed", d.counter(metrics.CounterOverloadShed), "count")
	r.put("service.session_ms", session, "ms")
	r.put("service.fail_ratio", per(float64(r.Failed), float64(r.Attempted)), "ratio")

	r.put("spig.build_ms_per_step", per(ms(t.spig), steps), "ms")

	_, canon := d.phase("canonical_code")
	vf2N, vf2MS := d.phase("verify_candidate")
	r.put("graph.canonical_ms_per_step", per(canon, steps), "ms")
	r.put("graph.vf2_checks_per_query", per(vf2N, queries), "count")
	r.put("graph.vf2_ms_per_query", per(vf2MS, queries), "ms")

	probeN, probeMS := d.phase("index_probe")
	r.put("index.probes_per_step", per(probeN, steps), "count")
	r.put("index.probe_ms_per_step", per(probeMS, steps), "ms")

	pruned, tasks := d.counter(metrics.CounterFilterPruned), d.counter(metrics.CounterVerifyTasks)
	_, simMS := d.phase("similar_eval")
	r.put("core.step_eval_ms_per_step", per(ms(t.eval), steps), "ms")
	r.put("core.filter_pruned_ratio", per(pruned, pruned+tasks), "ratio")
	r.put("core.similar_eval_ms_per_run", per(simMS, runs), "ms")

	hits, misses, coal := d.counter(metrics.CounterCandHits), d.counter(metrics.CounterCandMisses), d.counter(metrics.CounterCandCoalesced)
	_, fetchMS := d.phase("cand_fetch")
	r.put("candcache.hit_ratio", per(hits, hits+misses+coal), "ratio")
	r.put("candcache.evictions", d.counter(metrics.CounterCandEvictions), "count")
	r.put("candcache.fetch_ms_per_run", per(fetchMS, runs), "ms")

	_, batchMS := d.phase("verify_batch")
	r.put("workpool.verify_tasks_per_query", per(tasks, queries), "count")
	r.put("workpool.batch_ms_per_run", per(batchMS, runs), "ms")

	mutMS, err := mut.svcT.quantile("store.mutation", 0.5)
	if err != nil {
		return err
	}
	r.put("store.mutation_ms", mutMS, "ms")
	r.put("store.epochs", float64(epochs), "count")
	r.put("store.id_space_ratio", idSpace, "ratio")

	calls := d.counter(metrics.CounterShardRPCCalls)
	_, rpcMS := d.phase("shard_rpc")
	r.put("rpcstore.calls_per_step", per(calls, steps), "count")
	r.put("rpcstore.attempts_per_call", per(d.counter(metrics.CounterShardRPCAttempts), calls), "ratio")
	r.put("rpcstore.hedges", d.counter(metrics.CounterShardRPCHedged), "count")
	r.put("rpcstore.rpc_ms_per_step", per(rpcMS, steps), "ms")

	// Both sides ran for half the timed phase: the untraced quarters at
	// each end, the traced half between them.
	uSide := elapsed - tSide
	r.put("trace.overhead_ratio", per(float64(u.queries)/uSide.Seconds(), float64(t.queries)/tSide.Seconds()), "ratio")

	late := 0.0
	if w.writer {
		if late, err = mut.late.quantile("load.writer_late", 0.99); err != nil {
			return err
		}
	}
	r.put("load.writer_late_ms", late, "ms")
	return nil
}
