// Command attilasim runs one synthetic game timedemo through the GPU
// pipeline simulator and dumps the per-stage statistics — the direct
// equivalent of a single ATTILA simulation run in the paper's
// methodology.
//
// Usage:
//
//	attilasim -demo "Doom3/trdemo2" -frames 2
//	attilasim -list
//	attilasim -demo "UT2004/Primeval" -w 512 -h 384 -nohz
//	attilasim -demo "Quake4/demo4" -workers 8     # tile-parallel backend
//	attilasim -demo "Doom3/trdemo2" -metrics run.json   # machine-readable
//	attilasim -demo "Doom3/trdemo2" -trace run-trace.json  # Perfetto trace
//	attilasim -demo "Doom3/trdemo2" -frames 50 -listen :9090
//
// -metrics writes every pipeline counter of the run (aggregate plus
// per-frame snapshots) in a format picked by extension: .json
// (gpuchar/metrics/v1), .csv, or Prometheus text otherwise.
//
// Exit codes: 0 success, 1 simulation failure, 2 usage error, 3 trace
// format error, 4 replay error.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"gpuchar"
	"gpuchar/internal/cliutil"
	"gpuchar/internal/mem"
	"gpuchar/internal/metrics"
	"gpuchar/internal/obsv"
)

// exitCode is the shared taxonomy (1 failure, 3 trace format error,
// 4 replay error) — the same table tracetool uses; a package variable
// so tests can pin it by name.
var exitCode = cliutil.ExitCode

// profStop finishes the -cpuprofile (if any) before an error exit:
// cliutil.Fail calls os.Exit, which skips defers, and a truncated
// profile is unreadable.
var profStop = func() {}

func fail(err error) {
	profStop()
	cliutil.Fail("attilasim", err)
}

func main() {
	var (
		demo       = flag.String("demo", "UT2004/Primeval", "Table I demo name")
		frames     = flag.Int("frames", 2, "frames to simulate")
		width      = flag.Int("w", 1024, "framebuffer width")
		height     = flag.Int("h", 768, "framebuffer height")
		list       = flag.Bool("list", false, "list simulated demo names")
		pngOut     = flag.String("png", "", "write the last rendered frame as PNG")
		noHZ       = flag.Bool("nohz", false, "disable Hierarchical Z")
		noComp     = flag.Bool("nocompress", false, "disable z/color compression and fast clear")
		metricsOut = flag.String("metrics", "",
			"write the run's counters machine-readably; format by extension (.json, .csv, otherwise Prometheus text)")
		workers = flag.Int("workers", runtime.NumCPU(),
			"tile-parallel fragment workers; framebuffer and kill counts are exact at any count, cache/memory counters are sharded (see DESIGN.md)")
		traceOut = flag.String("trace", "",
			"write a Chrome/Perfetto trace of the run (load it at ui.perfetto.dev)")
		traceSample = flag.Int("trace-sample", 1,
			"record 1-in-N fine-grained spans (per-draw, per-worker-drain); structural spans are always recorded")
		listen = flag.String("listen", "",
			"serve /metrics, /progress, /healthz and /debug/pprof on this address (e.g. :9090)")
		cpuprofile = flag.String("cpuprofile", "",
			"write a CPU profile of the run to this file (single-run alternative to -listen's /debug/pprof)")
	)
	flag.Parse()

	if *list {
		for _, p := range gpuchar.SimulatedProfiles() {
			fmt.Println(p.Name)
		}
		return
	}

	prof := gpuchar.ProfileByName(*demo)
	if prof == nil || !prof.Simulated {
		cliutil.Usagef("attilasim", "-demo %q is not a simulated demo (see -list)", *demo)
	}
	if err := cliutil.PositiveFlags(
		cliutil.Flag{Name: "-frames", Value: *frames},
		cliutil.Flag{Name: "-w", Value: *width},
		cliutil.Flag{Name: "-h", Value: *height}); err != nil {
		cliutil.Usagef("attilasim", "%v", err)
	}
	if *traceSample < 1 {
		cliutil.Usagef("attilasim", "-trace-sample %d must be >= 1", *traceSample)
	}
	stopProf, err := cliutil.StartCPUProfile(*cpuprofile)
	if err != nil {
		fail(err)
	}
	profStop = stopProf
	defer stopProf()
	cfg := gpuchar.R520Config(*width, *height)
	cfg.TileWorkers = *workers
	if *noHZ {
		cfg.HZ = false
	}
	if *noComp {
		cfg.ZCompression = false
		cfg.ColorCompression = false
		cfg.FastClear = false
	}
	var tr *obsv.Tracer
	if *traceOut != "" {
		tr = obsv.New(obsv.Options{SampleEvery: *traceSample})
		cfg.Trace = tr
		cfg.TraceProcess = prof.Name
	}

	// Drive the pipeline directly (rather than through the core runner)
	// so the live GPU is reachable: the observability server scrapes it
	// mid-run and -png reads its framebuffer afterwards.
	g := gpuchar.NewGPU(cfg)
	dev := gpuchar.NewDevice(prof.API, g)
	wl := gpuchar.NewWorkload(prof, dev, cfg.Width, cfg.Height)
	tracker := obsv.NewProgressTracker(0)
	if *listen != "" {
		srv, err := obsv.StartServer(*listen, obsv.ServerSources{
			Snapshots: func() []metrics.Snapshot {
				if s, ok := g.PublishedSnapshot(); ok {
					return []metrics.Snapshot{s.WithLabels("demo", prof.Name, "source", "sim")}
				}
				return nil
			},
			Progress: tracker.Snapshot,
		})
		if err != nil {
			fail(fmt.Errorf("-listen %q: %w", *listen, err))
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "attilasim: observability server on http://%s\n", srv.Addr)
	}

	if err := wl.Setup(); err != nil {
		fail(err)
	}
	for f := 0; f < *frames; f++ {
		wl.RenderFrame()
		tracker.FrameDone(prof.Name, f)
	}
	if *pngOut != "" {
		out, err := os.Create(*pngOut)
		if err != nil {
			fail(err)
		}
		if err := g.Target().EncodePNG(out); err != nil {
			fail(err)
		}
		if err := out.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s\n", *pngOut)
	}
	res := gpuchar.MicroResultFromGPU(prof, g, cfg)

	fmt.Printf("== %s: %d frames at %dx%d\n", prof.Name, *frames, *width, *height)
	clip, cull, trav := res.ClipCullPct()
	fmt.Printf("geometry: clip %.1f%%  cull %.1f%%  traversed %.1f%%  vcache %.3f\n",
		clip, cull, trav, res.VertexCacheHitRate())
	or, oz, osd, ob := res.Overdraw()
	fmt.Printf("overdraw: raster %.2f  z&st %.2f  shaded %.2f  blended %.2f\n",
		or, oz, osd, ob)
	hz, zs, alpha, mask, blend := res.QuadKillPct()
	fmt.Printf("quads:    HZ %.2f%%  z&st %.2f%%  alpha %.2f%%  mask %.2f%%  blend %.2f%%\n",
		hz, zs, alpha, mask, blend)
	qr, qz := res.QuadEfficiency()
	fmt.Printf("quad efficiency: raster %.1f%%  z&st %.1f%%\n", qr, qz)
	fmt.Printf("texturing: %.2f bilinear samples/request, %.2f ALU instr/bilinear\n",
		res.BilinearPerRequest(), res.ALUPerBilinear())
	zc, l0, l1, colc := res.CacheHitRates()
	fmt.Printf("caches: z&st %.1f%%  texL0 %.1f%%  texL1 %.1f%%  color %.1f%%\n",
		zc, l0, l1, colc)
	mb, rd, wr, gbs := res.MemoryProfile()
	fmt.Printf("memory: %.1f MB/frame (%.0f%% read / %.0f%% write), %.1f GB/s @100fps\n",
		mb, rd, wr, gbs)
	split := res.TrafficSplit()
	for c := mem.Client(0); c < mem.NumClients; c++ {
		fmt.Printf("  %-10s %5.1f%%\n", c, split[c])
	}
	v, zb, sh, col := res.BytesPer()
	fmt.Printf("bytes: %.2f /vertex, %.2f /z&st frag, %.2f /shaded frag, %.2f /blended frag\n",
		v, zb, sh, col)

	if *metricsOut != "" {
		if err := writeMetrics(*metricsOut, res); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s\n", *metricsOut)
	}
	if tr != nil {
		if err := writeChromeTrace(*traceOut, tr); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s\n", *traceOut)
	}
}

// writeMetrics dumps the run's counter snapshots to path, choosing the
// format from the extension: .json and .csv select those backends,
// anything else gets the Prometheus text exposition format.
func writeMetrics(path string, res *gpuchar.MicroResult) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	snaps := res.MetricsSnapshots()
	switch filepath.Ext(path) {
	case ".json":
		err = metrics.WriteJSON(out, snaps)
	case ".csv":
		err = metrics.WriteCSV(out, snaps)
	default:
		err = metrics.WriteProm(out, "gpuchar", snaps)
	}
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeChromeTrace dumps the run's trace events to path.
func writeChromeTrace(path string, tr *obsv.Tracer) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := tr.WriteChromeJSON(out)
	if cerr := out.Close(); werr == nil {
		werr = cerr
	}
	return werr
}
