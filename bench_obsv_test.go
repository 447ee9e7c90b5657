// Observability overhead guards: the tracer is designed so that a nil
// *Tracer costs one pointer check per hook site, and these tests keep
// that promise honest. TestNilTracerOverheadGuard bounds the untraced
// hot path's hook cost below 2% of a frame; the Traced benchmark makes
// the cost of full tracing visible in `go test -bench` output.
package gpuchar_test

import (
	"testing"

	"gpuchar"
)

// BenchmarkPipelineFrameTraced is BenchmarkPipelineFrameDoom3 with a
// full-rate tracer attached: every draw sampled, stage clocks on.
// Compare against the untraced benchmark to see what tracing costs.
func BenchmarkPipelineFrameTraced(b *testing.B) {
	benchFrames(b, "Doom3/trdemo2", 1, gpuchar.NewTracer(gpuchar.TracerOptions{}))
}

// nilClockHook reproduces the shape of the untraced hot-path hook: load
// a pointer field, branch on nil, do nothing. noinline so the benchmark
// measures an upper bound — the real hooks inline to less.
//
//go:noinline
func nilClockHook(clk *int64) int64 {
	if clk != nil {
		return *clk
	}
	return 0
}

// TestNilTracerOverheadGuard asserts the acceptance bound: with tracing
// disabled the per-hook nil checks add <2% to a rendered frame. It
// measures one frame's wall time, measures the cost of a
// worse-than-real hook (a non-inlined nil-pointer branch), counts the
// hook executions a frame performs (dominated by the per-quad checks in
// the fragment backend), and compares.
func TestNilTracerOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed guard; skipped in -short mode")
	}
	wl, g := newPipeline(t, "Doom3/trdemo2", 1, nil)

	// Warm frame: counts the per-frame hook executions.
	if err := wl.Run(1); err != nil {
		t.Fatal(err)
	}
	attrs := g.MetricsSnapshot().Attrs()
	quads, _ := attrs["rast/quads_emitted"].(int64)
	tris, _ := attrs["rast/triangles_setup"].(int64)
	if quads == 0 {
		t.Fatal("warm frame emitted no quads; counter name drifted?")
	}
	// processQuad executes at most 5 clk-nil checks on its longest
	// control path; budget 8 per quad. Per-draw hooks are bounded by a
	// per-triangle budget (draws << triangles), plus per-frame slack, so
	// the bound keeps holding as hook sites are added.
	hooksPerFrame := 8*quads + 4*tris + 64

	frame := testing.Benchmark(func(b *testing.B) {
		benchFrames(b, "Doom3/trdemo2", 1, nil)
	})
	var sink int64
	hook := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += nilClockHook(nil)
		}
	})
	_ = sink

	frameNs := float64(frame.T.Nanoseconds()) / float64(frame.N)
	hookNs := float64(hook.T.Nanoseconds()) / float64(hook.N)
	overheadNs := hookNs * float64(hooksPerFrame)
	pct := 100 * overheadNs / frameNs
	t.Logf("frame=%.0fns hook=%.2fns hooks/frame=%d overhead=%.0fns (%.3f%%)",
		frameNs, hookNs, hooksPerFrame, overheadNs, pct)
	if pct >= 2 {
		t.Errorf("nil-tracer hook overhead %.3f%% of a frame, want < 2%%", pct)
	}
}
