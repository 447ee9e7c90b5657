package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// goldenFiles holds the expected per-frame digests of every simulator
// workload at its benchmark and smoke-test sizes. The seed only moves
// the generator's state-call constants, which no shader reads, so one
// file serves every seed — and a run at any seed checks that it does.
//
//go:embed golden/*.json
var goldenFiles embed.FS

// goldenFile is the stored expected output of one simulator workload.
type goldenFile struct {
	Workload    string `json:"workload"`
	Demo        string `json:"demo"`
	Size        string `json:"size"`
	TileWorkers int    `json:"tile_workers"`
	// Frames are the digests (counters plus framebuffer) of timed frames
	// 1..N; a run renders at most N frames.
	Frames []string `json:"frames"`
}

func goldenPath(name string, w, h int) string {
	return fmt.Sprintf("golden/%s_%dx%d.json", name, w, h)
}

func loadGolden(name string, w, h int) ([]string, error) {
	doc, err := goldenFiles.ReadFile(goldenPath(name, w, h))
	if err != nil {
		return nil, fmt.Errorf("expected values: %w", err)
	}
	var g goldenFile
	if err := json.Unmarshal(doc, &g); err != nil {
		return nil, fmt.Errorf("expected values %s: %w", goldenPath(name, w, h), err)
	}
	if len(g.Frames) == 0 {
		return nil, fmt.Errorf("expected values %s: no frames", goldenPath(name, w, h))
	}
	return g.Frames, nil
}

// writeGolden renders o.writeGolden frames and stores their digests
// under perfbench/golden, relative to the repository root.
func writeGolden(o options, spec simSpec, w, h int) error {
	r, err := newRig(spec.demo, w, h, spec.workers, o.seed, nil)
	if err != nil {
		return err
	}
	g := goldenFile{Workload: spec.name, Demo: spec.demo, Size: fmt.Sprintf("%dx%d", w, h), TileWorkers: spec.workers}
	for i := 0; i < o.writeGolden; i++ {
		g.Frames = append(g.Frames, r.frame().digests().full)
	}
	doc, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join("perfbench", goldenPath(spec.name, w, h))
	if err := os.WriteFile(path, append(doc, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d frames)\n", path, len(g.Frames))
	return nil
}
