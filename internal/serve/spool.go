package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"

	"gpuchar/internal/fault"
)

// spool owns the on-disk job state. Every byte it writes goes through
// the fault.FS boundary (so chaos runs can fail, tear or crash any
// operation) and through atomicWrite's fsync'd tmp+rename protocol (so
// a real power cut loses at most the newest version of one file, never
// produces a half-file under the final name).
//
// Layout, one trio per job under dir:
//
//	<id>.job.json     the submitted spec (pending-job discovery)
//	<id>.ckpt.json    the latest checkpoint (removed on completion)
//	<id>.result.json  the finished metrics document
//	quarantine/       corrupt files moved aside on load, for autopsy
//
// All three are checksummed envelopes (see seal/openSealed); a file
// that fails its checksum or does not parse is quarantined and counted,
// never trusted and never fatal.
type spool struct {
	dir string
	fs  fault.FS

	// Quarantine/error tallies. Updated atomically from worker
	// goroutines; the Service copies them into its registry-bound
	// counters at snapshot time.
	quarantinedJobs        int64
	quarantinedCheckpoints int64
	quarantinedResults     int64
	writeErrs              int64
}

// newSpool builds the spool; dir may be empty (no persistence — every
// method is then a cheap no-op).
func newSpool(dir string, fsys fault.FS) *spool {
	if fsys == nil {
		fsys = fault.OS{}
	}
	return &spool{dir: dir, fs: fsys}
}

func (sp *spool) enabled() bool { return sp.dir != "" }

func (sp *spool) jobPath(id string) string    { return filepath.Join(sp.dir, id+".job.json") }
func (sp *spool) ckptPath(id string) string   { return filepath.Join(sp.dir, id+".ckpt.json") }
func (sp *spool) resultPath(id string) string { return filepath.Join(sp.dir, id+".result.json") }

// atomicWrite lands data at path durably: write a temp file, fsync it,
// rename over the target, fsync the directory. A kill at any instant
// leaves either the previous file or the new one — and after the
// directory sync, a power cut cannot roll the rename back.
func (sp *spool) atomicWrite(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := sp.fs.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	if err := sp.fs.SyncFile(tmp); err != nil {
		_ = sp.fs.Remove(tmp)
		return err
	}
	if err := sp.fs.Rename(tmp, path); err != nil {
		_ = sp.fs.Remove(tmp)
		return err
	}
	return sp.fs.SyncDir(sp.dir)
}

// writeDoc seals body under schema and writes it atomically, keeping
// the write-error tally.
func (sp *spool) writeDoc(path, schema string, body []byte) error {
	doc, err := seal(schema, body)
	if err == nil {
		err = sp.atomicWrite(path, doc)
	}
	if err != nil {
		atomic.AddInt64(&sp.writeErrs, 1)
	}
	return err
}

// quarantine moves a corrupt file aside and counts it. Best effort: if
// even the move fails (dead disk), the file is left in place — the next
// load will quarantine it again rather than trust it.
func (sp *spool) quarantine(path string, counter *int64) {
	atomic.AddInt64(counter, 1)
	qdir := filepath.Join(sp.dir, "quarantine")
	if err := sp.fs.MkdirAll(qdir, 0o755); err != nil {
		return
	}
	_ = sp.fs.Rename(path, filepath.Join(qdir, filepath.Base(path)))
}

// writeCheckpoint persists ck for its job; a no-op without a spool.
func (sp *spool) writeCheckpoint(ck *checkpointFile) error {
	if !sp.enabled() {
		return nil
	}
	body, err := json.Marshal(ck)
	if err != nil {
		return err
	}
	return sp.writeDoc(sp.ckptPath(ck.JobID), CheckpointSchema, body)
}

// loadCheckpoint reads a job's checkpoint. A missing file, a stale key
// or a quarantined corruption all come back as (nil, nil): the job then
// simply starts over. Only I/O-level surprises are errors.
func (sp *spool) loadCheckpoint(id, key string) (*checkpointFile, error) {
	if !sp.enabled() {
		return nil, nil
	}
	path := sp.ckptPath(id)
	doc, err := sp.fs.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	body, err := openSealed(doc, CheckpointSchema)
	if err != nil {
		sp.quarantine(path, &sp.quarantinedCheckpoints)
		return nil, nil
	}
	var ck checkpointFile
	if err := json.Unmarshal(body, &ck); err != nil || ck.Schema != checkpointBodySchema {
		sp.quarantine(path, &sp.quarantinedCheckpoints)
		return nil, nil
	}
	if ck.Key != key {
		// Stale, not corrupt: written for another spec or code version.
		return nil, nil
	}
	if ck.API == nil {
		ck.API = map[string]json.RawMessage{}
	}
	if ck.Sim == nil {
		ck.Sim = map[string]json.RawMessage{}
	}
	return &ck, nil
}

// writeJob persists a submission record.
func (sp *spool) writeJob(j *Job) error {
	if !sp.enabled() {
		return nil
	}
	body, err := json.Marshal(jobFile{Schema: jobBodySchema, ID: j.ID, Spec: j.Spec})
	if err != nil {
		return err
	}
	return sp.writeDoc(sp.jobPath(j.ID), JobFileSchema, body)
}

// writeResult persists a finished job's metrics document (sealed; the
// raw document is what Result and the cache serve).
func (sp *spool) writeResult(id string, result []byte) error {
	if !sp.enabled() {
		return nil
	}
	return sp.writeDoc(sp.resultPath(id), ResultFileSchema, result)
}

// loadResult reads and verifies a result file; (nil, false) if absent
// or quarantined.
func (sp *spool) loadResult(id string) ([]byte, bool) {
	if !sp.enabled() {
		return nil, false
	}
	path := sp.resultPath(id)
	doc, err := sp.fs.ReadFile(path)
	if err != nil {
		return nil, false
	}
	body, err := openSealed(doc, ResultFileSchema)
	if err != nil {
		sp.quarantine(path, &sp.quarantinedResults)
		return nil, false
	}
	return body, true
}

// removeJob deletes every spool file of a job (cancel / failure).
func (sp *spool) removeJob(id string) {
	if !sp.enabled() {
		return
	}
	_ = sp.fs.Remove(sp.jobPath(id))
	_ = sp.fs.Remove(sp.ckptPath(id))
	_ = sp.fs.Remove(sp.resultPath(id))
}

// removeCheckpoint drops just the checkpoint (job finished).
func (sp *spool) removeCheckpoint(id string) {
	if !sp.enabled() {
		return
	}
	_ = sp.fs.Remove(sp.ckptPath(id))
}

// scan rediscovers jobs from the spool: finished jobs come back done
// with their verified results, unfinished ones pending (their
// checkpoints picked up when a worker claims them). Corrupt files are
// quarantined and counted; they never block the scan.
func (sp *spool) scan() ([]*Job, error) {
	if !sp.enabled() {
		return nil, nil
	}
	ents, err := sp.fs.ReadDir(sp.dir)
	if err != nil {
		return nil, fmt.Errorf("serve: spool %s: %w", sp.dir, err)
	}
	var jobs []*Job
	for _, ent := range ents {
		name := ent.Name()
		if !strings.HasSuffix(name, ".job.json") {
			continue
		}
		path := filepath.Join(sp.dir, name)
		doc, err := sp.fs.ReadFile(path)
		if err != nil {
			sp.quarantine(path, &sp.quarantinedJobs)
			continue
		}
		body, err := openSealed(doc, JobFileSchema)
		if err != nil {
			sp.quarantine(path, &sp.quarantinedJobs)
			continue
		}
		var jf jobFile
		if err := json.Unmarshal(body, &jf); err != nil || jf.Schema != jobBodySchema ||
			jf.ID == "" || jf.ID != strings.TrimSuffix(name, ".job.json") {
			sp.quarantine(path, &sp.quarantinedJobs)
			continue
		}
		spec := jf.Spec.normalized()
		if err := spec.validate(); err != nil {
			sp.quarantine(path, &sp.quarantinedJobs)
			continue
		}
		j := &Job{
			ID:          jf.ID,
			Spec:        spec,
			key:         spec.key(),
			state:       StateQueued,
			framesTotal: spec.framesTotal(),
			done:        make(chan struct{}),
		}
		if res, ok := sp.loadResult(jf.ID); ok {
			j.state = StateDone
			j.result = res
			j.framesDone = j.framesTotal
			close(j.done)
		}
		jobs = append(jobs, j)
	}
	return jobs, nil
}

// envelope is the sealed on-disk form of every spool file: the body's
// bytes plus their SHA-256, so torn or bit-rotted files are detected on
// load instead of being trusted to fail json.Unmarshal. The body is
// base64 ([]byte in JSON) rather than embedded JSON so the stored bytes
// round-trip exactly — results must come back byte-identical, and the
// checksum must cover precisely what is served.
type envelope struct {
	Schema string `json:"schema"`
	SHA256 string `json:"sha256"`
	Body   []byte `json:"body"`
}

// seal wraps body in a checksummed envelope under schema.
func seal(schema string, body []byte) ([]byte, error) {
	sum := sha256.Sum256(body)
	return json.Marshal(envelope{Schema: schema, SHA256: hex.EncodeToString(sum[:]), Body: body})
}

// openSealed unwraps and verifies an envelope sealed under schema. Any
// other document, a bare pre-v1.1 body included, is rejected.
func openSealed(doc []byte, schema string) ([]byte, error) {
	var env envelope
	if err := json.Unmarshal(doc, &env); err != nil {
		return nil, fmt.Errorf("serve: envelope: %w", err)
	}
	if env.Schema != schema {
		return nil, fmt.Errorf("serve: schema %q, want %q", env.Schema, schema)
	}
	sum := sha256.Sum256(env.Body)
	if hex.EncodeToString(sum[:]) != env.SHA256 {
		return nil, fmt.Errorf("serve: %s: checksum mismatch", schema)
	}
	return env.Body, nil
}
