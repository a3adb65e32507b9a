package main

import (
	"context"
	"fmt"
	"runtime"
	"time"
)

// tracedRun measures the per-layer metrics. After one set-up it runs two
// fixed-length passes of the same size: pass A untraced (the reference for
// trace.overhead), pass B with spans around the benchmark's own calls and
// the daemon's instruments scraped before and after. It then replays pass
// B's jobs, plus a reference job of each kind pass B lacks, directly against
// the layers' public functions, so the job time splits by layer from outside
// the program, and cross-checks every direct result against the service's.
func tracedRun(ctx context.Context, o options) (result, error) {
	gen := jobs{w: o.w, seed: o.seed, sz: o.sz}
	s, err := setUp(ctx, o, gen)
	if err != nil {
		return result{}, err
	}
	defer s.d.stop()
	ld := newLoader(o.w, gen, s.d.url)
	defer ld.close()
	ld.check = replayCheck(o, s.cold)
	settleDisk()

	n := o.w.traceJobs
	if o.sz.campaignRuns != fullSize.campaignRuns {
		n = o.w.clients * o.w.minJobsPerClient(0)
	}
	a := ld.run(ctx, pass{from: 0, count: n})

	tr := newTracer()
	ld.tr = tr
	before, err := scrape(ctx, ld.clients[0])
	if err != nil {
		return result{}, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b := ld.run(ctx, pass{from: n, count: n})
	runtime.ReadMemStats(&m1)
	after, err := scrape(ctx, ld.clients[0])
	if err != nil {
		return result{}, err
	}
	if err := ctx.Err(); err != nil {
		return result{}, err
	}

	var res result
	res.attempted = len(a.jobs) + len(b.jobs)
	digest := gate(&res, o, append(a.jobs, b.jobs...), b.jobs, before, after)

	// Reference jobs of the kinds pass B lacks, so every layer's time is
	// measured; they are not replays, so the replay check does not apply.
	ld.check = nil
	toReplay := append([]jobRun(nil), b.jobs...)
	for k, req := range gen.references(b.jobs) {
		j := ld.submit(ctx, 0, -1-k, req)
		res.attempted++
		if j.err != nil {
			res.fail(j.err)
		}
		toReplay = append(toReplay, j)
	}

	l := &layerRun{tr: tr, sz: o.sz, work: o.workDir}
	if err := l.replayJobs(ctx, o.w, toReplay, s.d.stateDir); err != nil {
		return result{}, err
	}
	for _, f := range l.failures {
		res.fail(f)
	}
	open, err := l.openTimes(s.d.stateDir, 3)
	if err != nil {
		return result{}, err
	}

	d := func(name string) float64 { return delta(before, after, name) }
	mean := func(hist string) float64 { return meanDelta(before, after, hist) }
	spans := tr.snapshot()

	// core, sim, spn.
	res.set("core.build_ms", "ms", meanSpanMS(spans, "core.build"))
	res.set("sim.evals", "count", d("scone_sim_evals_total"))
	res.set("sim.lanes", "count", d("scone_sim_lanes_total"))
	res.set("sim.compile_misses", "count", d("scone_sim_compile_cache_misses_total"))
	res.set("sim.ns_per_lane", "ns", ratio(l.simNS, l.simLanes))
	res.set("spn.ns_per_run", "ns", ratio(l.spnNS, l.spnRuns))

	// fault.
	res.set("fault.batches", "count", d("scone_fault_batches_total"))
	res.set("fault.batch_ns_mean", "ns", ratio(l.pNNS, l.pNBatches))
	res.set("fault.runs_replayed", "count", d("scone_fault_runs_replayed_total"))
	res.set("fault.self_share", "ratio", ratio(l.selfNS, l.p1NS))
	eff := 0.0
	if l.p1Runs > 0 && l.pNRuns > 0 {
		eff = (float64(l.pNRuns) / float64(l.pNNS)) / (float64(runtime.GOMAXPROCS(0)) * float64(l.p1Runs) / float64(l.p1NS))
	}
	res.set("fault.parallel_efficiency", "ratio", eff)

	// store.
	res.set("store.hits", "count", d("scone_store_hits_total"))
	res.set("store.misses", "count", d("scone_store_misses_total"))
	res.set("store.puts", "count", d("scone_store_batch_puts_total"))
	res.set("store.log_bytes", "bytes", d("scone_store_log_bytes"))
	res.set("store.open_ms", "ms", ms(open))
	res.set("store.get_ns", "ns", ratio(l.getNS, l.gets))
	res.set("store.put_ns", "ns", ratio(l.putNS, l.puts))
	res.set("store.sync_ms", "ms", ratio(l.syncNS, l.syncs)/1e6)

	// service: the daemon's own job timing, and what is left of each job
	// once its direct layer calls are subtracted.
	runMS := mean("scone_service_job_run_ns") / 1e6
	res.set("service.queue_wait_ms", "ms", mean("scone_service_job_wait_ns")/1e6)
	res.set("service.job_run_ms", "ms", runMS)
	res.set("service.checkpoints", "count", d("scone_service_checkpoints_total"))
	res.set("service.checkpoint_ms", "ms", mean("scone_service_checkpoint_ns")/1e6)
	share := 0.0
	if runSum := d("scone_service_job_run_ns_sum"); runSum > 0 {
		share = d("scone_service_checkpoint_ns_sum") / runSum
	}
	res.set("service.checkpoint_share", "ratio", share)
	var latSum, directSum time.Duration
	var submitSum, firstSum time.Duration
	events := 0
	for _, j := range b.jobs {
		latSum += j.latency
		submitSum += j.submit
		firstSum += j.first
		events += j.events
		directSum += time.Duration(childSum(spans, l.direct[j.index]))
	}
	jn := time.Duration(max(len(b.jobs), 1))
	res.set("service.overhead_ms", "ms", ms((latSum-directSum)/jn))
	res.set("trace.residual_ms", "ms", runMS-ms(directSum/jn))

	// http.
	res.set("http.submit_ms", "ms", ms(submitSum/jn))
	res.set("http.first_event_ms", "ms", ms(firstSum/jn))
	res.set("http.stream_events", "count", float64(events)/float64(jn))

	// prove, leakage.
	res.set("prove.pairs", "count", d("scone_prove_locations_total"))
	res.set("prove.pair_ms", "ms", ratio(l.pairNS, l.pairs)/1e6)
	res.set("prove.analyzer_ms", "ms", meanSpanMS(spans, "prove.analyzer"))
	res.set("prove.bdd_peak_nodes", "count", after["scone_prove_bdd_peak_nodes_count"])
	res.set("leakage.batches", "count", d("scone_leakage_batches_total"))
	res.set("leakage.traces", "count", d("scone_leakage_traces_total"))
	res.set("leakage.discarded", "count", d("scone_leakage_discarded_total"))
	res.set("leakage.batch_ms", "ms", ratio(l.stepNS, l.steps)/1e6)

	// dist, only where the lease fabric runs.
	runs := campaignRuns(b.jobs)
	if granted := d("scone_service_leases_granted_total"); o.w.dist {
		res.set("dist.leases_granted", "count", granted)
		res.set("dist.leases_reassigned", "count", d("scone_service_leases_reassigned_total"))
		res.set("dist.heartbeats", "count", d("scone_service_heartbeats_total"))
		res.set("dist.runs_per_lease", "runs", float64(runs)/max(granted, 1))
	}

	// runtime, per unit of work: a campaign run, a proved pair or a trace.
	units := float64(runs) + d("scone_prove_locations_total") + d("scone_leakage_traces_total")
	res.set("runtime.allocs_per_run", "allocs/run", float64(m1.Mallocs-m0.Mallocs)/max(units, 1))
	res.set("runtime.gc_cycles", "count", float64(m1.NumGC-m0.NumGC))
	res.set("runtime.gc_pause_ms", "ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6)

	overhead := 0.0
	if a.rate > 0 {
		overhead = (a.rate - b.rate) / a.rate
	}
	res.set("trace.overhead", "ratio", overhead)

	layerInvariants(&res, o, b.jobs)
	if err := tr.writeNDJSON(tracePath(o)); err != nil {
		return result{}, err
	}
	res.summary = fmt.Sprintf("e2ebench workload=%s seed=%d traced jobs=%d+%d spans=%d trace=%s result_digest=%s",
		o.w.name, o.seed, len(a.jobs), len(b.jobs), len(spans), tracePath(o), digest)
	return res, nil
}

// layerInvariants checks the instrument counts of the traced pass against
// what its jobs must have caused: campaign-replay simulates nothing and
// replays every run, cold campaigns never hit the store, and the prover and
// leakage counters match the service's results.
func layerInvariants(res *result, o options, js []jobRun) {
	runs, pairs, traces := 0, 0, 0
	for _, j := range js {
		if j.err != nil {
			continue
		}
		switch r := j.status.Result; {
		case r.Campaign != nil:
			runs += r.Campaign.Total
		case r.Prove != nil:
			pairs += r.Prove.Proved
		case r.Leakage != nil:
			traces += r.Leakage.Fixed + r.Leakage.Random
		}
	}
	want := func(name string, v float64) {
		if got := res.metrics[name].Value; got != v {
			res.fail(fmt.Errorf("%s = %v over the traced pass, want %v", name, got, v))
		}
	}
	switch {
	case o.w.replay:
		want("fault.runs_replayed", float64(runs))
		want("sim.evals", 0)
	case runs > 0:
		want("store.hits", 0)
		want("fault.runs_replayed", 0)
	}
	want("prove.pairs", float64(pairs))
	want("leakage.traces", float64(traces))
}

// meanSpanMS is the mean duration of the spans with the given name.
func meanSpanMS(spans []span, name string) float64 {
	var sum int64
	n := 0
	for _, s := range spans {
		if s.Name == name {
			sum += s.dur()
			n++
		}
	}
	return ratio(sum, int64(n)) / 1e6
}

// childSum is the summed duration of span id's direct children.
func childSum(spans []span, id int) int64 {
	var sum int64
	for _, s := range spans {
		if id != 0 && s.Parent == id {
			sum += s.dur()
		}
	}
	return sum
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
