package serve

import (
	"bytes"
	"encoding/json"

	"gpuchar/internal/core"
	"gpuchar/internal/gfxapi"
	"gpuchar/internal/gpu"
	"gpuchar/internal/metrics"
	"gpuchar/internal/workloads"
)

// Schema tags pin the spool wire formats so a future layout change
// fails loudly instead of resuming from a misread file. The v1.1
// envelopes (see spool.go) add a SHA-256 over the body — torn, stale or
// bit-rotted files are detected and quarantined on load. Bare v1
// bodies, written before the checksum existed, fail that check too.
const (
	CheckpointSchema     = "gpuchar/checkpoint/v1.1"
	checkpointBodySchema = "gpuchar/checkpoint/v1"
	JobFileSchema        = "gpuchar/job/v1.1"
	jobBodySchema        = "gpuchar/job/v1"
	ResultFileSchema     = "gpuchar/result/v1.1"
)

// jobFile is the persisted submission record (the envelope body).
type jobFile struct {
	Schema string  `json:"schema"`
	ID     string  `json:"id"`
	Spec   JobSpec `json:"spec"`
}

// checkpointFile is a job's durable mid-run state: every finished demo
// render, plus the in-progress API render at its last frame boundary.
// Frame records are stored as gpuchar/metrics/v1 documents — the same
// serialization the result export uses, with its validation on read.
type checkpointFile struct {
	Schema string `json:"schema"`
	JobID  string `json:"job_id"`
	// Key guards against resuming a checkpoint into a different spec or
	// code version: a mismatch discards the checkpoint.
	Key string `json:"key"`
	// API / Sim hold completed demo renders: demo name -> per-frame
	// snapshot document (Sim entries append the per-pass snapshots).
	API map[string]json.RawMessage `json:"api,omitempty"`
	Sim map[string]json.RawMessage `json:"sim,omitempty"`
	// Cur is the API render in flight, if any. Simulated renders carry
	// warm cache state across frames and are only checkpointed whole.
	Cur *curCheckpoint `json:"cur,omitempty"`
}

type curCheckpoint struct {
	Demo   string             `json:"demo"`
	Gen    workloads.GenState `json:"gen"`
	Frames json.RawMessage    `json:"frames"`
}

func newCheckpoint(jobID, key string) *checkpointFile {
	return &checkpointFile{
		Schema: checkpointBodySchema, JobID: jobID, Key: key,
		API: map[string]json.RawMessage{}, Sim: map[string]json.RawMessage{},
	}
}

// encodeAPIFrames serializes per-frame API records as a metrics
// document.
func encodeAPIFrames(frames []gfxapi.FrameStats) (json.RawMessage, error) {
	snaps := make([]metrics.Snapshot, len(frames))
	for i := range frames {
		snaps[i] = core.APIFrameSnapshot(frames[i])
	}
	var buf bytes.Buffer
	if err := metrics.WriteJSON(&buf, snaps); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodeAPIFrames(raw json.RawMessage) ([]gfxapi.FrameStats, error) {
	snaps, err := metrics.ReadJSON(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	frames := make([]gfxapi.FrameStats, len(snaps))
	for i, s := range snaps {
		frames[i] = core.APIFrameFromSnapshot(s)
	}
	return frames, nil
}

// encodeSimResult serializes a simulated render the same way: its
// per-frame records followed by its per-pass snapshots (labeled
// pass=<target>), so a restored multi-pass demo keeps its pass
// dimension.
func encodeSimResult(r *core.MicroResult) (json.RawMessage, error) {
	snaps := make([]metrics.Snapshot, 0, len(r.Frames)+len(r.Pass))
	for i := range r.Frames {
		snaps = append(snaps, r.Frames[i].MetricsSnapshot())
	}
	snaps = append(snaps, r.Pass...)
	var buf bytes.Buffer
	if err := metrics.WriteJSON(&buf, snaps); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decodeSimResult is the inverse of encodeSimResult.
func decodeSimResult(raw json.RawMessage) ([]gpu.FrameStats, []metrics.Snapshot, error) {
	snaps, err := metrics.ReadJSON(bytes.NewReader(raw))
	if err != nil {
		return nil, nil, err
	}
	var frames []gpu.FrameStats
	var pass []metrics.Snapshot
	for _, s := range snaps {
		if s.Label(core.LabelPass) != "" {
			pass = append(pass, s)
		} else {
			frames = append(frames, gpu.FrameStatsFromSnapshot(s))
		}
	}
	return frames, pass, nil
}
