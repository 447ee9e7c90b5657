package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"strings"
	"time"

	"gpuchar"
	"gpuchar/internal/metrics"
	"gpuchar/internal/obsv"
)

// simSpec is one simulator workload: a demo rendered frame by frame.
type simSpec struct {
	name    string
	demo    string
	w, h    int
	workers int
	// frames is how many timed frames each repeat renders (see runSim).
	frames int
	// crossCheck re-renders the first timed frames on the serial
	// backend and requires the same framebuffer and order-dependent
	// counters (the tile-parallel determinism invariant).
	crossCheck bool
}

// A repeat takes about 7 s on sim_serial and 6 s on sim_multipass_2w,
// so a 35 s run makes five or six.
var (
	simSerial    = simSpec{name: "sim_serial", demo: "Doom3/trdemo2", w: 256, h: 192, workers: 1, frames: 5}
	simMultipass = simSpec{name: "sim_multipass_2w", demo: "ShadowMap/cascades", w: 256, h: 192, workers: 2, frames: 15, crossCheck: true}
)

const (
	// tinyW x tinyH is the smoke-test framebuffer.
	tinyW, tinyH = 64, 48
	// crossFrames is how many timed frames the serial re-render checks.
	crossFrames = 3
	// countFrames is how many leading timed frames the per-frame sim
	// counts average, so they repeat exactly at any run length.
	countFrames = 4
)

// size is the framebuffer a run renders at.
func (s simSpec) size(o options) (int, int) {
	if o.tiny {
		return tinyW, tinyH
	}
	return s.w, s.h
}

// rig is one set-up simulator: GPU, device and demo generator, ready to
// render the first timed frame.
type rig struct {
	g   *gpuchar.GPU
	dev *gpuchar.Device
	wl  *gpuchar.Workload
	tb  *timedBackend // nil unless traced
	// prev and prevStage are the cumulative counters and stage clocks at
	// the last frame boundary.
	prev      metrics.Snapshot
	prevStage map[string]int64
}

// seedRng maps the benchmark seed to the generator's LCG state.
func seedRng(seed uint64) uint32 {
	x := seed*0x9E3779B97F4A7C15 + 1
	return uint32(x ^ x>>32)
}

// newRig sets a simulator up: gpu.New, the device, the workload's Setup
// and frame 0 (the resource-creation burst), then seeds the generator.
// A traced rig puts a timedBackend under the device and turns on the
// GPU's stage clocks.
func newRig(demo string, w, h, workers int, seed uint64, rec *recorder) (*rig, error) {
	prof := gpuchar.ProfileByName(demo)
	if prof == nil {
		return nil, fmt.Errorf("unknown demo %q", demo)
	}
	cfg := gpuchar.R520Config(w, h)
	cfg.TileWorkers = workers
	if rec != nil {
		cfg.Trace = obsv.New(obsv.Options{Capacity: 1024, SampleEvery: 1 << 30})
		cfg.TraceProcess = prof.Name
	}
	r := &rig{g: gpuchar.NewGPU(cfg)}
	var be gpuchar.Backend = r.g
	if rec != nil {
		r.tb = &timedBackend{g: r.g, rec: rec, frame: -1}
		be = r.tb
	}
	r.dev = gpuchar.NewDevice(prof.API, be)
	r.wl = gpuchar.NewWorkload(prof, r.dev, w, h)
	if err := r.wl.Setup(); err != nil {
		return nil, err
	}
	r.wl.RenderFrame()
	st := r.wl.GenState()
	st.Rng = seedRng(seed)
	r.wl.SetGenState(st)
	r.prev = r.g.MetricsSnapshot()
	r.prevStage = r.g.StageNanos()
	return r, nil
}

// frameOut is one rendered frame: its host time, simulated counters and
// framebuffer digest, plus the traced run's layer breakdown.
type frameOut struct {
	wall time.Duration
	// steal is the machine's steal time during the frame (see stealTime).
	steal time.Duration
	diff  metrics.Snapshot
	fb    uint64
	rt    rtDelta
	// Traced only: stage busy time, spans under the frame, and process
	// CPU time inside Execute.
	stage   map[string]int64
	spans   map[string]*spanTotals
	execCPU time.Duration
}

// frame renders and times the next frame. Counter and framebuffer reads
// happen after the clock stops.
func (r *rig) frame() frameOut {
	var out frameOut
	root := int32(-1)
	var cpu0 time.Duration
	if r.tb != nil {
		root = r.tb.rec.begin("frame", -1)
		r.tb.frame = root
		cpu0 = r.tb.execCPU
	}
	a := readRuntime()
	s := stealTime()
	t := time.Now()
	r.wl.RenderFrame()
	out.wall = time.Since(t)
	out.steal = stealTime() - s
	b := readRuntime()
	out.rt.add(a, b)
	if r.tb != nil {
		r.tb.rec.end(root)
		out.spans = r.tb.rec.totals(root)
		out.execCPU = r.tb.execCPU - cpu0
		st := r.g.StageNanos()
		out.stage = map[string]int64{}
		for k, v := range st {
			out.stage[k] = v - r.prevStage[k]
		}
		r.prevStage = st
	}
	cur := r.g.MetricsSnapshot()
	out.diff = cur.Diff(r.prev)
	r.prev = cur
	out.fb = fbHash(r.g)
	return out
}

// fbHash digests the backbuffer's pixels.
func fbHash(g *gpuchar.GPU) uint64 {
	h := fnv.New64a()
	t := g.Target()
	w, ht := t.Size()
	var buf [16]byte
	for y := 0; y < ht; y++ {
		for x := 0; x < w; x++ {
			p := t.At(x, y)
			for i, c := range [4]float32{p.X, p.Y, p.Z, p.W} {
				v := math.Float32bits(c)
				buf[4*i], buf[4*i+1], buf[4*i+2], buf[4*i+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
			}
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// frameDigest identifies a frame's output: all counters plus the
// framebuffer, and the order-dependent counters plus the framebuffer.
type frameDigest struct{ full, order string }

func (f frameOut) digests() frameDigest {
	return frameDigest{full: digest(f, nil), order: digest(f, orderDependent)}
}

// digest hashes a frame's counters (those keep accepts) and framebuffer.
func digest(f frameOut, keep func(name string) bool) string {
	h := fnv.New64a()
	for _, c := range f.diff.Counters() {
		if keep != nil && !keep(c.Name) {
			continue
		}
		fmt.Fprintf(h, "%s=%x;", c.Name, math.Float64bits(c.Value()))
	}
	fmt.Fprintf(h, "fb=%x", f.fb)
	return fmt.Sprintf("%016x", h.Sum64())
}

// orderDependent keeps the counters that are identical at any tile-worker
// count; cache and memory-traffic counters are sharded per worker.
func orderDependent(name string) bool {
	return !strings.HasPrefix(name, "cache/") && !strings.HasPrefix(name, "mem/")
}

func counter(s metrics.Snapshot, name string) float64 {
	v, _ := s.Get(name)
	return float64(v)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// runSim runs a simulator workload.
func runSim(o options, spec simSpec) (*report, error) {
	w, h := spec.size(o)
	if o.writeGolden > 0 {
		return nil, writeGolden(o, spec, w, h)
	}
	want, err := loadGolden(spec.name, w, h)
	if err != nil {
		return nil, err
	}
	if o.trace {
		return runSimTraced(o, spec, w, h, want)
	}
	rep := newReport()
	// Each repeat sets a simulator up and renders the same first
	// spec.frames timed frames: the demo's frames differ in cost, so a
	// fixed frame set keeps the repeats' work equal at any host speed. A
	// repeat starts only while one more fits in the timed period. Keep
	// only a few numbers per frame, so the live heap read at the end is
	// the program's and does not grow with the frame count.
	var r *rig
	var setups, lat, qps, raw []float64
	var wall, steal time.Duration
	var repeats [][]int // op indices of each repeat
	var digests []frameDigest
	var wantAt []string
	var allocBytes float64
	period := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	var last time.Duration
	for len(repeats) == 0 || (time.Since(start)+last < period && (o.maxOps == 0 || len(lat) < o.maxOps)) {
		t0 := time.Now()
		r = nil
		runtime.GC()
		s := stealTime()
		t := time.Now()
		if r, err = newRig(spec.demo, w, h, spec.workers, o.seed, nil); err != nil {
			return nil, err
		}
		setups = append(setups, runWall(time.Since(t), stealTime()-s, spec.workers).Seconds())
		var ops []int
		for j := 0; j < spec.frames && (o.maxOps == 0 || len(lat) < o.maxOps); j++ {
			f := r.frame()
			run := runWall(f.wall, f.steal, spec.workers)
			ops = append(ops, len(lat))
			lat = append(lat, ms(run))
			raw = append(raw, ms(f.wall))
			qps = append(qps, counter(f.diff, "rast/quads_emitted")/run.Seconds())
			wall += f.wall
			steal += f.steal
			if len(repeats) == 0 {
				allocBytes += f.rt.allocBytes
			}
			digests = append(digests, f.digests())
			wantAt = append(wantAt, want[j])
		}
		repeats = append(repeats, ops)
		last = time.Since(t0)
	}
	heap := liveHeapMB()
	runtime.KeepAlive(r)
	n := len(lat)
	bad := checkFrames(rep, o, spec, w, h, digests, wantAt, spec.crossCheck)

	// The timing metrics come from the complete repeats (all of them
	// only in a smoke run cut short by maxOps).
	full := [][]int{}
	for _, ops := range repeats {
		if len(ops) == spec.frames {
			full = append(full, ops)
		}
	}
	if len(full) == 0 {
		full = repeats
	}
	rep.attempted, rep.failed = n, bad
	tailV, tailP := tail(lat)
	repMS := perSlice(full, lat, median)
	repQPS := perSlice(full, qps, median)
	calmV, _ := calmTail(lat, nil, full)
	rep.set("setup_s", median(setups), "s")
	rep.set("op_ms", best(repMS, false), "ms")
	rep.set("op_ms_tail", calmV, "ms")
	rep.set("work_per_s", best(repQPS, true), "1/s")
	rep.set("alloc_mb_per_op", ratio(allocBytes/1e6, float64(len(repeats[0]))), "MB")
	rep.set("heap_mb", heap, "MB")
	rep.set("ok_ratio", ratio(float64(n-bad), float64(n)), "ratio")
	rep.note("frame_ms=%.4g frame_ms_tail=%.4g (p%.1f of %d frames) quads_per_s=%.4g fail_ratio=%.4g setups_s=%.4g",
		median(lat), tailV, tailP, n, median(qps), ratio(float64(bad), float64(n)), setups)
	rep.note("wall frame_ms=%.4g (before steal is taken out); steal=%.3g of frame wall time",
		median(raw), ratio(float64(steal), float64(wall)))
	rep.note("per-repeat frame_ms=%.5g quads_per_s=%.5g (%d repeats of %d frames); calm frame_ms_tail=%.5g",
		repMS, repQPS, len(full), spec.frames, calmV)
	return rep, nil
}

// checkFrames compares every timed frame with its stored expected value
// (want[i] for frames[i]) and, with cross set, re-renders the first
// frames on the serial backend. It returns how many frames failed.
func checkFrames(rep *report, o options, spec simSpec, w, h int, frames []frameDigest, want []string, cross bool) int {
	failed := make([]bool, len(frames))
	for i, f := range frames {
		if got := f.full; got != want[i] {
			failed[i] = true
			if len(rep.checkErr) < 5 {
				rep.fail("%s frame %d: counters/framebuffer digest %s, want %s", spec.name, i+1, got, want[i])
			}
		}
	}
	if cross && len(frames) > 0 {
		ref, err := newRig(spec.demo, w, h, 1, o.seed, nil)
		if err != nil {
			rep.fail("serial re-render: %v", err)
		} else {
			for i := 0; i < crossFrames && i < len(frames); i++ {
				if ref.frame().digests().order != frames[i].order {
					failed[i] = true
					rep.fail("%s frame %d differs from the serial render", spec.name, i+1)
				}
			}
		}
	}
	bad := 0
	for _, f := range failed {
		if f {
			bad++
		}
	}
	return bad
}
