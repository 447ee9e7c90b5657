package gpuchar_test

import (
	"testing"

	"gpuchar"
)

func TestFacadeProfiles(t *testing.T) {
	profs := gpuchar.Profiles()
	if len(profs) != 12 {
		t.Fatalf("profiles = %d, want 12", len(profs))
	}
	if gpuchar.ProfileByName("Doom3/trdemo2") == nil {
		t.Error("lookup failed")
	}
	if gpuchar.ProfileByName("missing") != nil {
		t.Error("bogus lookup succeeded")
	}
	if len(gpuchar.SimulatedProfiles()) != 3 {
		t.Error("simulated set wrong")
	}
}

func TestFacadeExperiments(t *testing.T) {
	if len(gpuchar.Experiments()) != 25 {
		t.Errorf("experiments = %d", len(gpuchar.Experiments()))
	}
	ctx := gpuchar.NewContext()
	res, err := gpuchar.RunExperiment("table1", ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) != 1 || len(res.Tables[0].Rows) != 12 {
		t.Error("table1 wrong shape")
	}
	if _, err := gpuchar.RunExperiment("nope", ctx); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestFacadeProfileAPI(t *testing.T) {
	r, err := gpuchar.ProfileAPI(gpuchar.ProfileByName("Riddick/MainFrame"), 20)
	if err != nil {
		t.Fatal(err)
	}
	if r.AvgIndicesPerFrame() <= 0 {
		t.Error("no indices measured")
	}
}

func TestFacadeCharacterizeSmall(t *testing.T) {
	cfg := gpuchar.R520Config(128, 96)
	res, err := gpuchar.CharacterizeConfig(
		gpuchar.ProfileByName("UT2004/Primeval"), 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.VertexCacheHitRate() <= 0.4 {
		t.Errorf("vcache = %v", res.VertexCacheHitRate())
	}
	or, _, _, ob := res.Overdraw()
	if or <= 0 || ob <= 0 {
		t.Error("no overdraw measured")
	}
}

func TestFacadeGPUConstruction(t *testing.T) {
	g := gpuchar.NewGPU(gpuchar.R520Config(64, 48))
	dev := gpuchar.NewDevice(gpuchar.OpenGL, g)
	if dev.API() != gpuchar.OpenGL {
		t.Error("API lost")
	}
	// The null backend also satisfies the Backend interface.
	var b gpuchar.Backend = gpuchar.NullBackend{}
	_ = gpuchar.NewDevice(gpuchar.Direct3D, b)
}

// warmFrameAllocCeiling bounds the allocations of one warm serial Doom3
// frame at 64x48. The draw path allocates nothing once warm; what is
// left is per-frame bookkeeping (the frame-boundary metrics snapshot and
// stage statistics), measured at about 100-120 allocations per frame.
// Before the allocation-free draw path the same frame made about 140k.
const warmFrameAllocCeiling = 400

// TestWarmFrameAllocCeiling keeps per-draw and per-triangle allocation
// out of the simulator: one more allocation per draw or per triangle
// would take a Doom3 frame far past the ceiling.
func TestWarmFrameAllocCeiling(t *testing.T) {
	prof := gpuchar.ProfileByName("Doom3/trdemo2")
	g := gpuchar.NewGPU(gpuchar.R520Config(64, 48))
	wl := gpuchar.NewWorkload(prof, gpuchar.NewDevice(prof.API, g), 64, 48)
	if err := wl.Setup(); err != nil {
		t.Fatal(err)
	}
	wl.RenderFrame() // grow every scratch buffer
	if n := testing.AllocsPerRun(3, func() { wl.RenderFrame() }); n > warmFrameAllocCeiling {
		t.Errorf("warm Doom3 frame allocates %v times, ceiling %d", n, warmFrameAllocCeiling)
	}
}
