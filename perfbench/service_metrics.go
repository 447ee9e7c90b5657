package main

import (
	"time"

	"gpuchar/internal/serve"
)

// cacheStat is the result cache's hit and miss counters.
type cacheStat struct{ hits, misses float64 }

func cacheCounters(svc *serve.Service) cacheStat {
	var c cacheStat
	for _, s := range svc.MetricsSnapshots() {
		if v, ok := s.Get("serve/cache/hits"); ok {
			c.hits += float64(v)
		}
		if v, ok := s.Get("serve/cache/misses"); ok {
			c.misses += float64(v)
		}
	}
	return c
}

func (c cacheStat) sub(o cacheStat) cacheStat {
	return cacheStat{hits: c.hits - o.hits, misses: c.misses - o.misses}
}

// classLatencies splits op latencies (ms) into cold and hit.
func classLatencies(ops []jobOp) (cold, hit []float64) {
	for _, op := range ops {
		if op.cold {
			cold = append(cold, ms(op.total))
		} else {
			hit = append(hit, ms(op.total))
		}
	}
	return cold, hit
}

// jobsPerSecond derives the closed loop's throughput from the class
// medians and the observed mix: each client completes one job per
// mix-weighted median latency.
func jobsPerSecond(cold, hit []float64) float64 {
	n := float64(len(cold) + len(hit))
	perJob := ratio(float64(len(cold)), n)*median(cold) + ratio(float64(len(hit)), n)*median(hit)
	return ratio(svcClients*1000, perJob)
}

// endToEnd reports service_mix's end-to-end metrics. steal is each time
// slice's steal share (see stealShares): the timing metrics take it out
// of the latency of every job that started in the slice.
func (r *svcRun) endToEnd(rep *report, ops []jobOp, setups []float64, rt rtDelta, heapMB float64, steal []float64) {
	var lat []float64
	var at []time.Duration
	var class []int
	for i := range ops {
		op := &ops[i]
		op.total = time.Duration(float64(op.total) * (1 - steal[sliceOf(op.at, r.period)]))
		lat = append(lat, ms(op.total))
		at = append(at, op.at)
		c := 0 // hit
		if op.cold {
			c = 1
		}
		class = append(class, c)
	}
	cold, hit := classLatencies(ops)
	n := float64(len(ops))
	tailV, tailP := tail(lat)
	jps := jobsPerSecond(cold, hit)
	var sliceMS, sliceJPS []float64
	groups := bySlice(at, r.period)
	for _, g := range groups {
		var in []jobOp
		for _, i := range g {
			in = append(in, ops[i])
		}
		sliceMS = append(sliceMS, median(pick(lat, g)))
		sliceJPS = append(sliceJPS, jobsPerSecond(classLatencies(in)))
	}
	rep.set("setup_s", median(setups), "s")
	rep.set("op_ms", best(sliceMS, false), "ms")
	calmV, _ := calmTail(lat, class, groups)
	rep.set("op_ms_tail", calmV, "ms")
	rep.set("work_per_s", best(sliceJPS, true), "1/s")
	rep.set("alloc_mb_per_op", ratio(rt.allocBytes/1e6, n), "MB")
	rep.set("heap_mb", heapMB, "MB")
	rep.set("ok_ratio", ratio(n-float64(rep.failed), n), "ratio")
	coldT, coldP := tail(cold)
	hitT, hitP := tail(hit)
	rep.note("cold_ms=%.4g cold_ms_tail=%.4g (p%.1f of %d) hit_ms=%.4g hit_ms_tail=%.4g (p%.1f of %d)",
		median(cold), coldT, coldP, len(cold), median(hit), hitT, hitP, len(hit))
	rep.note("jobs_per_s=%.4g job_ms=%.4g job_ms_tail=%.4g (p%.1f of %d) fail_ratio=%.4g setups_s=%v",
		jps, median(lat), tailV, tailP, len(ops), ratio(float64(rep.failed), n), setups)
	rep.note("per-slice job_ms=%.5g jobs_per_s=%.5g steal=%.3g; calm job_ms_tail=%.5g", sliceMS, sliceJPS, steal, calmV)
}

// layers reports service_mix's per-layer metrics from the ops that ran
// wholly inside traced windows; runtime counters cover every op.
func (r *svcRun) layers(rep *report, all []jobOp, rt rtDelta, cache cacheStat, openFiles, openBytes int64) {
	var traced, plain []jobOp
	for _, op := range all {
		switch {
		case op.traced():
			traced = append(traced, op)
		case op.plain():
			plain = append(plain, op)
		}
	}
	var submitHit, submitCold, run, result, size []float64
	var coldKB, hitKB, coldSyncs, hitSyncs, nCold, nHit float64
	var writeTime time.Duration
	var opDur, childDur time.Duration
	for _, op := range traced {
		t := r.cfs.tally(op.id)
		writeTime += t.writeTime
		if op.cold {
			nCold++
			submitCold = append(submitCold, ms(op.submit))
			run = append(run, ms(op.run))
			coldKB += float64(t.writeBytes) / 1e3
			coldSyncs += float64(t.fsyncs)
		} else {
			nHit++
			submitHit = append(submitHit, ms(op.submit))
			hitKB += float64(t.writeBytes) / 1e3
			hitSyncs += float64(t.fsyncs)
		}
		result = append(result, ms(op.result))
		size = append(size, float64(op.size)/1e3)
		opDur += op.total
		childDur += op.submit + op.run + op.result
	}
	cold, hit := classLatencies(traced)
	rep.set("serve.cold_ms", median(cold), "ms")
	rep.set("serve.hit_ms", median(hit), "ms")
	rep.set("serve.submit_ms_hit", median(submitHit), "ms")
	rep.set("serve.submit_ms_cold", median(submitCold), "ms")
	rep.set("serve.run_ms", median(run), "ms")
	rep.set("serve.result_ms", median(result), "ms")
	rep.set("serve.result_kb", median(size), "KB")
	rep.set("serve.cache_hit_ratio", ratio(cache.hits, cache.hits+cache.misses), "ratio")
	rep.set("spool.write_kb_per_hit", ratio(hitKB, nHit), "KB")
	rep.set("spool.write_kb_per_cold", ratio(coldKB, nCold), "KB")
	rep.set("spool.fsyncs_per_hit", ratio(hitSyncs, nHit), "count")
	rep.set("spool.fsyncs_per_cold", ratio(coldSyncs, nCold), "count")
	rep.set("spool.write_ms_per_job", ratio(ms(writeTime), nCold+nHit), "ms")
	rep.set("spool.files_at_open", float64(openFiles), "count")
	rep.set("spool.read_mb_at_open", float64(openBytes)/1e6, "MB")
	rep.setRuntime(rt, len(all))

	pc, ph := classLatencies(plain)
	overhead := ratio(jobsPerSecond(pc, ph), jobsPerSecond(cold, hit))
	rep.set("trace.overhead_ratio", overhead, "ratio")
	rep.set("trace.accounted_share", ratio(float64(childDur), float64(opDur)), "ratio")
	rep.note("traced jobs_per_s=%.4g untraced jobs_per_s=%.4g overhead=%+.2f%% over %d+%d jobs",
		jobsPerSecond(cold, hit), jobsPerSecond(pc, ph), 100*(overhead-1), len(traced), len(plain))
	rep.note("accounting: Submit + wait + Result = %.4f of job wall; unaccounted remainder %.4g ms/job",
		ratio(float64(childDur), float64(opDur)), ratio(ms(opDur-childDur), float64(len(traced))))
}
