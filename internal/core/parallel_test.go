package core

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"runtime"
	"testing"

	"gpuchar/internal/cache"
	"gpuchar/internal/gfxapi"
	"gpuchar/internal/gpu"
	"gpuchar/internal/mem"
	"gpuchar/internal/workloads"
)

// runGPUWorkers renders a demo through the simulator with the given
// tile-worker count and returns the GPU (framebuffer + stats intact).
func runGPUWorkers(t *testing.T, demo string, tileWorkers, frames, w, h int) *gpu.GPU {
	t.Helper()
	prof := workloads.ByName(demo)
	if prof == nil {
		t.Fatalf("unknown demo %q", demo)
	}
	cfg := gpu.R520Config(w, h)
	cfg.TileWorkers = tileWorkers
	g := gpu.New(cfg)
	dev := gfxapi.NewDevice(prof.API, g)
	wl := workloads.New(prof, dev, w, h)
	if err := wl.Run(frames); err != nil {
		t.Fatal(err)
	}
	return g
}

// exactStats zeroes the counters that are legitimately sharded in the
// parallel backend (cache hit/miss and memory traffic depend on the
// per-worker access interleaving) and keeps everything the tile
// ownership argument proves exact: fragment/quad flows, kill counts,
// shader work, texture sampling work.
func exactStats(f gpu.FrameStats) gpu.FrameStats {
	f.ZCache = cache.Stats{}
	f.TexL0 = cache.Stats{}
	f.TexL1 = cache.Stats{}
	f.ColorCache = cache.Stats{}
	f.Mem = [mem.NumClients]mem.Traffic{}
	return f
}

// TestTileParallelDeterminism checks the tentpole guarantee: the same
// workload produces a byte-identical framebuffer and identical
// order-dependent statistics at 1, 4 and NumCPU tile workers, because
// every 8x8 framebuffer block is owned by exactly one worker and quads
// are processed in submission order within a block. Doom3 is the
// stress case: stencil shadow volumes make z/stencil order-sensitive.
func TestTileParallelDeterminism(t *testing.T) {
	const demo, frames, w, h = "Doom3/trdemo2", 2, 128, 96
	ref := runGPUWorkers(t, demo, 1, frames, w, h)
	refImg := ref.Target().Image().Pix
	counts := []int{4, runtime.NumCPU()}
	if runtime.NumCPU() < 2 {
		counts = []int{4, 3}
	}
	for _, n := range counts {
		g := runGPUWorkers(t, demo, n, frames, w, h)
		if img := g.Target().Image().Pix; !bytes.Equal(img, refImg) {
			t.Errorf("workers=%d: framebuffer differs from serial render", n)
		}
		if len(g.Frames()) != len(ref.Frames()) {
			t.Fatalf("workers=%d: %d frames, want %d", n, len(g.Frames()), len(ref.Frames()))
		}
		for i := range ref.Frames() {
			got, want := exactStats(g.Frames()[i]), exactStats(ref.Frames()[i])
			if !reflect.DeepEqual(got, want) {
				t.Errorf("workers=%d frame %d: order-exact stats differ:\ngot  %+v\nwant %+v",
					n, i, got, want)
			}
		}
	}
}

// TestTileParallelRepeatable checks that for a fixed worker count the
// run is fully deterministic — including the sharded cache and memory
// counters, since each shard sees its own quads in submission order.
func TestTileParallelRepeatable(t *testing.T) {
	const demo, frames, w, h = "Quake4/demo4", 1, 128, 96
	a := runGPUWorkers(t, demo, 4, frames, w, h)
	b := runGPUWorkers(t, demo, 4, frames, w, h)
	if !reflect.DeepEqual(a.Frames(), b.Frames()) {
		t.Error("two identical workers=4 runs produced different statistics")
	}
	if !bytes.Equal(a.Target().Image().Pix, b.Target().Image().Pix) {
		t.Error("two identical workers=4 runs produced different framebuffers")
	}
}

// TestTileParallelRace is the race-detector workout: a short demo at a
// high worker count, so `go test -race` sweeps the binning, shard and
// merge paths. The assertions are minimal on purpose.
func TestTileParallelRace(t *testing.T) {
	g := runGPUWorkers(t, "Doom3/trdemo2", 8, 1, 64, 48)
	if len(g.Frames()) != 1 {
		t.Fatalf("got %d frames, want 1", len(g.Frames()))
	}
}

// TestShardedCacheRatesStayInBand checks the documented merge property
// of the sharded counters: per-worker caches shift hit rates versus the
// single serial cache, but the merged rates must stay close — the
// Table XIV comparisons remain meaningful at any worker count.
func TestShardedCacheRatesStayInBand(t *testing.T) {
	const demo, frames, w, h = "UT2004/Primeval", 1, 128, 96
	rate := func(s cache.Stats) float64 { return s.HitRate() }
	ref := runGPUWorkers(t, demo, 1, frames, w, h)
	par := runGPUWorkers(t, demo, 4, frames, w, h)
	var refAgg, parAgg gpu.FrameStats
	for _, f := range ref.Frames() {
		refAgg.Accumulate(f)
	}
	for _, f := range par.Frames() {
		parAgg.Accumulate(f)
	}
	checks := []struct {
		name     string
		ref, par cache.Stats
	}{
		{"zcache", refAgg.ZCache, parAgg.ZCache},
		{"texL0", refAgg.TexL0, parAgg.TexL0},
		{"texL1", refAgg.TexL1, parAgg.TexL1},
		{"colorcache", refAgg.ColorCache, parAgg.ColorCache},
	}
	for _, c := range checks {
		dr, dp := rate(c.ref), rate(c.par)
		if math.Abs(dr-dp) > 0.15 {
			t.Errorf("%s: sharded hit rate %.3f vs serial %.3f (band ±0.15)", c.name, dp, dr)
		}
	}
}

// TestExperimentFanOutDeterminism checks the coarse level: the same
// experiments produce byte-identical tables with the demo renders
// fanned over a worker pool, because experiments consume the cached
// per-demo results in paper order.
func TestExperimentFanOutDeterminism(t *testing.T) {
	ids := []string{"table3", "table9", "table14"}
	render := func(workers int) string {
		ctx := NewContext()
		ctx.APIFrames = 10
		ctx.SimFrames = 1
		ctx.W, ctx.H = 96, 64
		ctx.Workers = workers
		results, err := RunExperiments(context.Background(), ctx, ids)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		for _, res := range results {
			for _, tab := range res.Tables {
				tab.Render(&buf)
			}
		}
		return buf.String()
	}
	serial := render(1)
	parallel := render(4)
	if serial != parallel {
		t.Error("workers=4 experiment output differs from workers=1")
	}
	if serial == "" {
		t.Error("experiments rendered no tables")
	}
}
