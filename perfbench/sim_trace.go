package main

import (
	"strings"
	"time"

	"gpuchar"
)

// stageEvents names the simulated event each stage's host time is
// divided by, and the per-layer metric that reports it.
var stageEvents = []struct{ stage, counter, metric string }{
	{"geom", "geom/vertices_shaded", "geom.ns_per_vertex"},
	{"rast", "rast/quads_emitted", "rast.ns_per_quad"},
	{"zst", "zst/quads_in", "zst.ns_per_quad"},
	{"frag", "frag/quads_in", "frag.ns_per_quad"},
	{"rop", "rop/quads_in", "rop.ns_per_quad"},
}

// runSimTraced renders frames alternately on an untraced and a traced
// simulator, so tracing overhead is measured against frames taken under
// the same host conditions, and reports the per-layer metrics of the
// traced frames.
func runSimTraced(o options, spec simSpec, w, h int, want []string) (*report, error) {
	rep := newReport()
	plain, err := newRig(spec.demo, w, h, spec.workers, o.seed, nil)
	if err != nil {
		return nil, err
	}
	traced, err := newRig(spec.demo, w, h, spec.workers, o.seed, newRecorder())
	if err != nil {
		return nil, err
	}
	var pf, tf []frameOut
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for len(tf) < len(want) && time.Now().Before(deadline) &&
		(o.maxOps == 0 || 2*len(tf) < o.maxOps) {
		pf = append(pf, plain.frame())
		tf = append(tf, traced.frame())
	}
	rep.attempted = len(pf) + len(tf)
	var td, pd []frameDigest
	for i := range tf {
		td = append(td, tf[i].digests())
		pd = append(pd, pf[i].digests())
	}
	rep.failed = checkFrames(rep, o, spec, w, h, td, want, spec.crossCheck) +
		checkFrames(rep, o, spec, w, h, pd, want, false)
	simLayers(rep, spec.workers, traced.dev, pf, tf)
	return rep, nil
}

// simLayers computes the simulator workloads' per-layer metrics from the
// traced frames tf; pf are the interleaved untraced frames.
func simLayers(rep *report, workers int, dev *gpuchar.Device, pf, tf []frameOut) {
	var wall, exec, perDraw, endFrame, self, accounted, unaccounted []float64
	stageMS := map[string][]float64{}
	stageNS := map[string]float64{}
	events := map[string]float64{}
	var execWall, execCPU time.Duration
	var rt rtDelta
	for _, f := range tf {
		sp := func(name string) spanTotals {
			if t := f.spans[name]; t != nil {
				return *t
			}
			return spanTotals{}
		}
		e := sp("gpu.Execute")
		wall = append(wall, ms(f.wall))
		exec = append(exec, ms(e.dur))
		perDraw = append(perDraw, ratio(float64(e.dur)/1e3, float64(e.count)))
		endFrame = append(endFrame, ms(sp("gpu.EndFrame").dur))
		fs := sp("frame").self
		self = append(self, ms(fs))
		execWall += e.dur
		execCPU += f.execCPU
		stages := 0.0
		for _, se := range stageEvents {
			ns := float64(f.stage[se.stage])
			stages += ns
			stageMS[se.stage] = append(stageMS[se.stage], ns/1e6)
			stageNS[se.stage] += ns
			events[se.stage] += counter(f.diff, se.counter)
		}
		accounted = append(accounted, ratio(float64(fs)+stages, float64(f.wall)))
		unaccounted = append(unaccounted, (float64(f.wall)-float64(fs)-stages)/1e6)
		rt.plus(f.rt)
	}

	rep.set("gpu.exec_ms_per_frame", median(exec), "ms")
	rep.set("gpu.us_per_draw", median(perDraw), "us")
	rep.set("gpu.endframe_ms", median(endFrame), "ms")
	rep.set("gpu.cpu_util", ratio(float64(execCPU), float64(execWall)*float64(workers)), "ratio")
	rep.set("gfxapi.self_ms_per_frame", median(self), "ms")
	for _, se := range stageEvents {
		rep.set(se.stage+".self_ms", median(stageMS[se.stage]), "ms")
		rep.set(se.metric, ratio(stageNS[se.stage], events[se.stage]), "ns")
	}
	rep.setRuntime(rt, len(tf))

	// Simulated counts average the leading frames every run renders, so
	// they repeat exactly from run to run.
	k := min(countFrames, len(tf))
	sum := func(name string) float64 {
		s := 0.0
		for _, f := range tf[:k] {
			s += counter(f.diff, name)
		}
		return s
	}
	perFrame := func(name string) float64 { return ratio(sum(name), float64(k)) }
	draws := 0.0
	for _, f := range tf[:k] {
		if e := f.spans["gpu.Execute"]; e != nil {
			draws += float64(e.count)
		}
	}
	rep.set("gpu.draws_per_frame", ratio(draws, float64(k)), "count")
	rep.set("rast.quads_emitted", perFrame("rast/quads_emitted"), "count")
	rep.set("rast.fragments", perFrame("rast/fragments"), "count")
	rep.set("zst.hz_killed_quads", perFrame("zst/quads_killed_hz"), "count")
	rep.set("shader.fs_instr", perFrame("shader/fs/instructions"), "count")
	rep.set("tex.bilinear_samples", perFrame("tex/bilinear_samples"), "count")
	for _, c := range []string{"vertex", "z", "tex_l0", "tex_l1", "color"} {
		hits, misses := sum("cache/"+c+"/hits"), sum("cache/"+c+"/misses")
		rep.set("cache."+c+".hit_ratio", ratio(hits, hits+misses), "ratio")
	}
	memBytes := 0.0
	for _, f := range tf[:k] {
		for _, c := range f.diff.Counters() {
			if strings.HasPrefix(c.Name, "mem/") {
				memBytes += c.Value()
			}
		}
	}
	rep.set("mem.mb_per_frame", ratio(memBytes/1e6, float64(k)), "MB")
	var batches, stateCalls float64
	api := dev.Frames()[1:] // frame 0 is the set-up burst
	for _, fr := range api[:k] {
		batches += float64(fr.Batches)
		stateCalls += float64(fr.StateCalls)
	}
	rep.set("gfxapi.batches_per_frame", ratio(batches, float64(k)), "count")
	rep.set("gfxapi.state_calls_per_frame", ratio(stateCalls, float64(k)), "count")

	var plainMS []float64
	for _, f := range pf {
		plainMS = append(plainMS, ms(f.wall))
	}
	overhead := ratio(median(wall), median(plainMS))
	rep.set("trace.overhead_ratio", overhead, "ratio")
	rep.set("trace.accounted_share", median(accounted), "ratio")
	rep.note("traced frame_ms=%.4g untraced frame_ms=%.4g overhead=%+.2f%% over %d+%d frames",
		median(wall), median(plainMS), 100*(overhead-1), len(tf), len(pf))
	rep.note("accounting: gfxapi self + stage self = %.3f of frame wall; unaccounted remainder %.4g ms/frame "+
		"(negative when tile workers overlap)", median(accounted), median(unaccounted))
}
