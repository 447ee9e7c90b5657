package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"gpuchar/internal/gfxapi"
	"gpuchar/internal/gpu"
	"gpuchar/internal/texture"
)

// span is one timed call across a layer boundary. Spans live in memory
// for the whole run; a span's self time is its duration minus the time
// its children cover.
type span struct {
	name       string
	start, end time.Duration
	parent     int32 // index into the owning recorder, -1 for a root
}

// recorder holds one goroutine's spans; it is not safe for concurrent
// use, so each client loop owns its own.
type recorder struct {
	origin time.Time
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// begin opens a span under parent (-1 for a root) and returns its index.
func (r *recorder) begin(name string, parent int32) int32 {
	r.spans = append(r.spans, span{name: name, start: time.Since(r.origin), parent: parent})
	return int32(len(r.spans) - 1)
}

// end closes span i.
func (r *recorder) end(i int32) {
	r.spans[i].end = time.Since(r.origin)
}

// spanTotals sums one span name's occurrences.
type spanTotals struct {
	count     int
	dur, self time.Duration
}

// totals aggregates the spans rooted at root (inclusive) by name.
// Spans are recorded parent-first, so one forward pass finds every
// descendant.
func (r *recorder) totals(root int32) map[string]*spanTotals {
	out := map[string]*spanTotals{}
	in := map[int32]bool{root: true}
	childDur := map[int32]time.Duration{}
	for i := root; i < int32(len(r.spans)); i++ {
		s := r.spans[i]
		if i != root && !in[s.parent] {
			continue
		}
		in[i] = true
		if i != root {
			childDur[s.parent] += s.end - s.start
		}
	}
	for i := range in {
		s := r.spans[i]
		t := out[s.name]
		if t == nil {
			t = &spanTotals{}
			out[s.name] = t
		}
		t.count++
		t.dur += s.end - s.start
		t.self += s.end - s.start - childDur[i]
	}
	return out
}

// timedBackend is the gfxapi.Backend the traced run puts between the
// device and the simulator: every call into gpu's public API becomes a
// span under the current frame span, and Execute also samples process
// CPU time so tile-worker idle time shows as utilization below 1.
type timedBackend struct {
	g     *gpu.GPU
	rec   *recorder
	frame int32 // the enclosing frame span
	// execCPU is the process CPU time spent inside Execute.
	execCPU time.Duration
}

func (b *timedBackend) Execute(dc *gfxapi.DrawCall) {
	i := b.rec.begin("gpu.Execute", b.frame)
	c := cpuTime()
	b.g.Execute(dc)
	b.execCPU += cpuTime() - c
	b.rec.end(i)
}

func (b *timedBackend) Clear(op gfxapi.ClearOp) {
	i := b.rec.begin("gpu.Clear", b.frame)
	b.g.Clear(op)
	b.rec.end(i)
}

func (b *timedBackend) EndFrame() {
	i := b.rec.begin("gpu.EndFrame", b.frame)
	b.g.EndFrame()
	b.rec.end(i)
}

func (b *timedBackend) CreateRenderTarget(rt *gfxapi.RenderTarget) {
	i := b.rec.begin("gpu.CreateRenderTarget", b.frame)
	b.g.CreateRenderTarget(rt)
	b.rec.end(i)
}

func (b *timedBackend) SetRenderTarget(rt *gfxapi.RenderTarget) {
	i := b.rec.begin("gpu.SetRenderTarget", b.frame)
	b.g.SetRenderTarget(rt)
	b.rec.end(i)
}

func (b *timedBackend) ResolveRenderTarget(rt *gfxapi.RenderTarget) []texture.RGBA {
	i := b.rec.begin("gpu.ResolveRenderTarget", b.frame)
	px := b.g.ResolveRenderTarget(rt)
	b.rec.end(i)
	return px
}

// cpuTime is the process's user plus system CPU time, all threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rtSample is a reading of the Go runtime's cumulative counters.
type rtSample struct {
	allocBytes, allocObjects, gcCycles uint64
	gcCPU, totalCPU                    float64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtSample{
		allocBytes:   s[0].Value.Uint64(),
		allocObjects: s[1].Value.Uint64(),
		gcCycles:     s[2].Value.Uint64(),
		gcCPU:        s[3].Value.Float64(),
		totalCPU:     s[4].Value.Float64(),
	}
}

// rtDelta accumulates runtime counter deltas over the timed ops.
type rtDelta struct {
	allocBytes, allocObjects, gcCycles float64
	gcCPU, totalCPU                    float64
}

func (d *rtDelta) add(a, b rtSample) {
	d.allocBytes += float64(b.allocBytes - a.allocBytes)
	d.allocObjects += float64(b.allocObjects - a.allocObjects)
	d.gcCycles += float64(b.gcCycles - a.gcCycles)
	d.gcCPU += b.gcCPU - a.gcCPU
	d.totalCPU += b.totalCPU - a.totalCPU
}

func (d *rtDelta) plus(o rtDelta) {
	d.allocBytes += o.allocBytes
	d.allocObjects += o.allocObjects
	d.gcCycles += o.gcCycles
	d.gcCPU += o.gcCPU
	d.totalCPU += o.totalCPU
}

// setRuntime reports the runtime layer's per-layer metrics over ops.
func (r *report) setRuntime(d rtDelta, ops int) {
	n := float64(ops)
	r.set("runtime.mallocs_per_op", ratio(d.allocObjects, n), "count")
	r.set("runtime.gc_cycles_per_op", ratio(d.gcCycles, n), "count")
	r.set("runtime.gc_cpu_frac", ratio(d.gcCPU, d.totalCPU), "ratio")
}

// liveHeapMB forces a collection and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / 1e6
}
