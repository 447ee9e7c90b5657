package core

import (
	"context"
	"errors"
	"testing"

	"gpuchar/internal/gfxapi"
	"gpuchar/internal/gpu"
	"gpuchar/internal/metrics"
	"gpuchar/internal/workloads"
)

// directRender drives a workload to completion with no core loop in
// between: the reference the loop's output is pinned against.
func directRender(t *testing.T, prof *workloads.Profile, frames int) []gfxapi.FrameStats {
	t.Helper()
	dev := gfxapi.NewDevice(prof.API, gfxapi.NullBackend{})
	wl := workloads.New(prof, dev, 1024, 768)
	wl.SetRegionBoundary(frames / 2)
	if err := wl.Run(frames); err != nil {
		t.Fatal(err)
	}
	return dev.Frames()
}

// TestRenderAPIMatchesDirectRun pins that the render loop produces
// exactly what driving the workload directly does.
func TestRenderAPIMatchesDirectRun(t *testing.T) {
	prof := workloads.ByName("Doom3/trdemo2")
	want := directRender(t, prof, 10)
	got, err := RenderAPI(context.Background(), prof, 10, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Frames) != len(want) {
		t.Fatalf("got %d frames, want %d", len(got.Frames), len(want))
	}
	for i := range want {
		if got.Frames[i] != want[i] {
			t.Errorf("frame %d differs", i)
		}
	}
}

// TestRenderAPIResume kills a render mid-run via the hook, then
// restarts from the captured checkpoint and checks the spliced result
// is bit-identical to a continuous run.
func TestRenderAPIResume(t *testing.T) {
	const total, cut = 10, 4
	for _, name := range []string{"UT2004/Primeval", "Quake4/demo4", "Oblivion/Anvil Castle"} {
		t.Run(name, func(t *testing.T) {
			prof := workloads.ByName(name)
			if prof == nil {
				t.Fatalf("unknown demo %q", name)
			}
			want, err := RenderAPI(context.Background(), prof, total, nil, nil)
			if err != nil {
				t.Fatal(err)
			}

			stop := errors.New("stop")
			var ck *APICheckpoint
			_, err = RenderAPI(context.Background(), prof, total, nil, func(c *APICheckpoint) error {
				if c.Gen.FrameIdx == cut {
					ck = c
					return stop
				}
				return nil
			})
			if !errors.Is(err, stop) {
				t.Fatalf("err = %v, want the hook's abort error", err)
			}
			if ck == nil || len(ck.Frames) != cut {
				t.Fatalf("checkpoint = %+v, want %d frames", ck, cut)
			}

			got, err := RenderAPI(context.Background(), prof, total, ck, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Frames) != total {
				t.Fatalf("resumed run has %d frames, want %d", len(got.Frames), total)
			}
			for i := range want.Frames {
				if got.Frames[i] != want.Frames[i] {
					t.Errorf("frame %d differs after resume:\n got %+v\nwant %+v",
						i, got.Frames[i], want.Frames[i])
				}
			}
		})
	}
}

// TestRenderAPIRejectsBadCheckpoint pins the validation errors.
func TestRenderAPIRejectsBadCheckpoint(t *testing.T) {
	prof := workloads.ByName("Doom3/trdemo2")
	bg := context.Background()
	bad := &APICheckpoint{Gen: workloads.GenState{FrameIdx: 3}} // 3 frames claimed, 0 carried
	if _, err := RenderAPI(bg, prof, 10, bad, nil); err == nil {
		t.Error("mismatched checkpoint accepted")
	}
	ok, err := RenderAPI(bg, prof, 4, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	past := &APICheckpoint{Gen: workloads.GenState{FrameIdx: 4}, Frames: ok.Frames}
	if _, err := RenderAPI(bg, prof, 2, past, nil); err == nil {
		t.Error("checkpoint past requested frame count accepted")
	}
}

// TestRenderCancelAtFrameBoundary pins that a canceled context stops
// either render at the next frame boundary with the context's error,
// and that an API resume from the last checkpoint still splices
// bit-identically.
func TestRenderCancelAtFrameBoundary(t *testing.T) {
	const total, cut = 8, 3
	prof := workloads.ByName("Quake4/demo4")
	want, err := RenderAPI(context.Background(), prof, total, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var last *APICheckpoint
	_, err = RenderAPI(ctx, prof, total, nil, func(c *APICheckpoint) error {
		last = c
		if c.Gen.FrameIdx == cut {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if last == nil || len(last.Frames) != cut {
		t.Fatalf("render ran past the cancel: last checkpoint %+v", last)
	}
	got, err := RenderAPI(context.Background(), prof, total, last, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Frames {
		if got.Frames[i] != want.Frames[i] {
			t.Errorf("frame %d differs after a canceled-then-resumed run", i)
		}
	}

	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	var seen []int
	_, err = RenderMicro(ctx, workloads.ByName("Doom3/trdemo2"), 2, gpu.R520Config(160, 120),
		func(f int, _ metrics.Snapshot) error {
			seen = append(seen, f)
			cancel()
			return nil
		})
	if !errors.Is(err, context.Canceled) || len(seen) != 1 {
		t.Errorf("canceled sim render: err = %v after frames %v, want context.Canceled after frame 0", err, seen)
	}
}

// TestRenderMicroCancel pins that the observed simulated path matches
// an unobserved render, and that the hook aborts between frames.
func TestRenderMicroCancel(t *testing.T) {
	prof := workloads.ByName("Doom3/trdemo2")
	cfg := gpu.R520Config(160, 120)
	bg := context.Background()
	want, err := RenderMicro(bg, prof, 2, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var seen []int
	got, err := RenderMicro(bg, prof, 2, cfg, func(f int, _ metrics.Snapshot) error {
		seen = append(seen, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 || seen[0] != 0 || seen[1] != 1 {
		t.Errorf("hook frames = %v", seen)
	}
	if len(got.Frames) != len(want.Frames) {
		t.Fatalf("got %d frames, want %d", len(got.Frames), len(want.Frames))
	}
	for i := range want.Frames {
		if got.Frames[i] != want.Frames[i] {
			t.Errorf("frame %d differs", i)
		}
	}
	if got.Agg != want.Agg {
		t.Errorf("aggregate differs")
	}

	stop := errors.New("stop")
	if _, err := RenderMicro(bg, prof, 2, cfg, func(int, metrics.Snapshot) error {
		return stop
	}); !errors.Is(err, stop) {
		t.Errorf("err = %v, want the hook's abort error", err)
	}

}

// TestSeedAPI proves a seeded context serves the result without
// rendering: the seeded name has no profile, so any render attempt
// would fail.
func TestSeedAPI(t *testing.T) {
	c := NewContext()
	want := &APIResult{}
	c.SeedAPI("no/such-demo", want)
	got, err := c.API("no/such-demo")
	if err != nil || got != want {
		t.Errorf("API() = %v, %v; want the seeded result", got, err)
	}
	mw := &MicroResult{}
	c.SeedMicro("no/such-demo", mw)
	gm, err := c.Micro("no/such-demo")
	if err != nil || gm != mw {
		t.Errorf("Micro() = %v, %v; want the seeded result", gm, err)
	}
}

// TestNeededDemos pins the demand logic against Prefetch's.
func TestNeededDemos(t *testing.T) {
	api, micro, err := NeededDemos([]string{"table3"})
	if err != nil {
		t.Fatal(err)
	}
	if len(api) != len(workloads.Registry()) || len(micro) != 0 {
		t.Errorf("table3: %d api, %d micro demos", len(api), len(micro))
	}
	api, micro, err = NeededDemos([]string{"table7"})
	if err != nil {
		t.Fatal(err)
	}
	if len(api) != 0 || len(micro) != len(SimDemos) {
		t.Errorf("table7: %d api, %d micro demos", len(api), len(micro))
	}
	// Figures demand only the demos they plot, not the whole registry:
	// rendering more would change the exported JSON document relative to
	// a lazy serial sweep.
	api, micro, err = NeededDemos([]string{"fig1", "fig8"})
	if err != nil {
		t.Fatal(err)
	}
	if len(api) != len(PlottedDemos) || len(micro) != 0 {
		t.Errorf("fig1+fig8: %d api demos, want the %d plotted", len(api), len(PlottedDemos))
	}
	if _, _, err := NeededDemos([]string{"nope"}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestAPIFrameSnapshotRoundTrip pins the checkpoint serialization form.
func TestAPIFrameSnapshotRoundTrip(t *testing.T) {
	prof := workloads.ByName("FEAR/interval2")
	r, err := RenderAPI(context.Background(), prof, 2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range r.Frames {
		back := APIFrameFromSnapshot(APIFrameSnapshot(f))
		if back != f {
			t.Errorf("frame %d: round trip differs:\n got %+v\nwant %+v", i, back, f)
		}
	}
}
