package core

import (
	"context"
	"fmt"

	"gpuchar/internal/gfxapi"
	"gpuchar/internal/gpu"
	"gpuchar/internal/metrics"
	"gpuchar/internal/workloads"
)

// testRenderHook, when non-nil, runs at the start of every demo render.
// Tests use it to poison a specific demo with a panic, or to stall one
// past a timeout, and prove the fault isolation around it; it is never
// set outside tests.
var testRenderHook func(demo string)

func setTestRenderHook(h func(demo string)) { testRenderHook = h }

// APICheckpoint is the resumable state of one API-level render at a
// frame boundary: the generator state plus every frame produced so far.
// The serve layer persists it so a killed daemon can pick a job back up
// without replaying the finished frames; TestRenderAPIResume pins that
// the spliced run is bit-identical to a continuous one.
type APICheckpoint struct {
	Gen    workloads.GenState
	Frames []gfxapi.FrameStats
}

// RenderAPI renders frames of the demo against a null backend,
// collecting API statistics only — the equivalent of replaying a
// captured trace through the paper's statistics gatherer.
//
// After each frame onFrame (if non-nil) receives the current
// checkpoint, and a non-nil return aborts the render with that error.
// A non-nil start checkpoint skips its completed frames: the workload
// is Setup fresh (scene content is a deterministic function of the
// profile), the generator state restored, the duplicate setup burst
// dropped, and rendering continues at frame start.Gen.FrameIdx.
func RenderAPI(ctx context.Context, prof *workloads.Profile, frames int,
	start *APICheckpoint, onFrame func(*APICheckpoint) error) (*APIResult, error) {

	if prof == nil {
		return nil, fmt.Errorf("core: nil profile")
	}
	dev := gfxapi.NewDevice(prof.API, gfxapi.NullBackend{})
	wl := workloads.New(prof, dev, 1024, 768)
	// Scale two-region demos so short runs sample both regions.
	wl.SetRegionBoundary(frames / 2)

	var out []gfxapi.FrameStats
	var resume *workloads.GenState
	if start != nil && start.Gen.FrameIdx > 0 {
		first := start.Gen.FrameIdx
		if len(start.Frames) != first {
			return nil, fmt.Errorf("core: %s: checkpoint has %d frames, frame index %d",
				prof.Name, len(start.Frames), first)
		}
		if first > frames {
			return nil, fmt.Errorf("core: %s: checkpoint frame %d past requested %d",
				prof.Name, first, frames)
		}
		out = append(out, start.Frames...)
		resume = &start.Gen
	}
	err := render(ctx, prof.Name, dev, wl, frames, resume, func(int) error {
		fs := dev.Frames()
		out = append(out, fs[len(fs)-1])
		if onFrame == nil {
			return nil
		}
		// Frames only ever grow by appending, so the checkpoint can share
		// the backing array: its capped view never changes.
		return onFrame(&APICheckpoint{Gen: wl.GenState(), Frames: out[:len(out):len(out)]})
	})
	if err != nil {
		return nil, err
	}
	return &APIResult{Prof: prof, Frames: out}, nil
}

// RenderMicro renders frames of a simulated demo through the GPU
// simulator under cfg (gpu.R520Config is the paper's Table II machine
// at a chosen resolution; the paper's is 1024x768).
//
// After each frame onFrame (if non-nil) receives the frame index and the
// cumulative counter snapshot the GPU published at that frame boundary
// (the same snapshot PublishedSnapshot serves to concurrent scrapers);
// a non-nil return aborts the simulation with that error. Diffing
// successive boundaries gives per-frame counter deltas without tracing.
// Simulated renders carry warm cache state across frames, so unlike
// RenderAPI there is no mid-demo resume.
func RenderMicro(ctx context.Context, prof *workloads.Profile, frames int, cfg gpu.Config,
	onFrame func(frame int, boundary metrics.Snapshot) error) (*MicroResult, error) {

	if prof == nil || !prof.Simulated {
		return nil, fmt.Errorf("core: profile not simulated")
	}
	g := gpu.New(cfg)
	dev := gfxapi.NewDevice(prof.API, g)
	wl := workloads.New(prof, dev, cfg.Width, cfg.Height)
	var hook func(int) error
	if onFrame != nil {
		hook = func(f int) error {
			boundary, _ := g.PublishedSnapshot()
			return onFrame(f, boundary)
		}
	}
	if err := render(ctx, prof.Name, dev, wl, frames, nil, hook); err != nil {
		return nil, err
	}
	return MicroResultFromGPU(prof, g, cfg), nil
}

// render is the one frame loop behind RenderAPI and RenderMicro. It
// sets the workload up (splicing in the generator state when resume is
// non-nil), fires the test render hook, checks ctx at every frame
// boundary and hands each finished frame to onFrame. Setup and every
// frame run under a recover guard: a panic escaping the workload generator or the
// pipeline backend becomes an error naming the demo and the API-stream
// position (frame, batches into it) where it happened, so a poisoned
// demo is locatable without a debugger and cannot kill the fan-out
// hosting the other titles.
func render(ctx context.Context, name string, dev *gfxapi.Device, wl *workloads.Workload,
	frames int, resume *workloads.GenState, onFrame func(frame int) error) error {

	first := 0
	if resume != nil {
		first = resume.FrameIdx
	}
	for f := first; f < frames; f++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("core: %s: stopped before frame %d: %w", name, f, err)
		}
		err := guard(name, dev, f, func() error {
			if f == first {
				if testRenderHook != nil {
					testRenderHook(name)
				}
				if err := wl.Setup(); err != nil {
					return err
				}
				if resume != nil {
					wl.SetGenState(*resume)
					// The fresh setup burst belongs to frame 0, which the
					// checkpoint already carries.
					dev.DropFrame()
				}
			}
			wl.RenderFrame()
			return nil
		})
		if err != nil {
			return err
		}
		if onFrame != nil {
			if err := onFrame(f); err != nil {
				return err
			}
		}
	}
	return nil
}

// guard runs one step of frame f, converting an error or a recovered
// panic into an error naming the demo (and, for a panic, the position).
func guard(name string, dev *gfxapi.Device, f int, step func() error) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("core: %s: panic at frame %d, batch %d: %v",
				name, f, dev.CurrentFrame().Batches, rec)
		}
	}()
	if err := step(); err != nil {
		return fmt.Errorf("core: %s: %w", name, err)
	}
	return nil
}
