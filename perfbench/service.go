package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gpuchar/internal/fault"
	"gpuchar/internal/serve"
)

const (
	svcWorkers = 2
	svcClients = 2
	// svcRestarts is how many times a run reopens the prepared spool;
	// setup_s is the median.
	svcRestarts = 15
	// coldOneIn makes one op in each block of four a cold job, at a
	// seeded position.
	coldOneIn = 4
	// heapAtOps is the op count at which both clients pause for the
	// live-heap reading: the service keeps every job it has seen, so the
	// heap is read at a fixed point rather than at the end, whose job
	// count depends on speed.
	heapAtOps = 128
	// traceWindow is how long each untraced or traced window of a traced
	// run lasts; cold jobs take about half a second.
	traceWindow = 2 * time.Second
)

// svcSize sizes the service workload's jobs.
type svcSize struct {
	apiFrames, frameSpan int // cold jobs draw api_frames from [apiFrames, apiFrames+frameSpan)
	hitSpecs             int // K: specs finished before timing and resubmitted as hits
}

func (o options) svcSize() svcSize {
	if o.tiny {
		return svcSize{apiFrames: 3, frameSpan: 2, hitSpecs: 2}
	}
	return svcSize{apiFrames: 36, frameSpan: 5, hitSpecs: 8}
}

// fig1Spec is an API-level Figure 1 job. Width only keeps keys
// distinct: the job's cost follows apiFrames.
func fig1Spec(apiFrames, width, height int) serve.JobSpec {
	return serve.JobSpec{Experiments: []string{"fig1"}, APIFrames: apiFrames, Width: width, Height: height}
}

// jobOp is one timed submit-to-result job.
type jobOp struct {
	cold   bool
	id     string
	at     time.Duration // start, from the start of the timed period
	total  time.Duration
	submit time.Duration // inside Submit
	run    time.Duration // Submit returning until Done closes
	result time.Duration // inside Result
	size   int
	ok     bool
	// window is the trace window the op began and ended in, -1 if it
	// straddled two; odd windows are traced.
	window int64
}

func (op jobOp) traced() bool { return op.window > 0 && op.window%2 == 1 }
func (op jobOp) plain() bool  { return op.window >= 0 && op.window%2 == 0 }

// svcRun is one service_mix run's shared state.
type svcRun struct {
	o    options
	size svcSize
	svc  *serve.Service
	// hitWant are the K hit specs and their cold results.
	hitSpecs []serve.JobSpec
	hitWant  [][]byte
	cfs      *countFS // nil when untraced
	// window counts trace windows: a traced run alternates untraced and
	// traced windows, so the untraced ops that measure tracing overhead
	// see the same host conditions and heap growth.
	window  atomic.Int64
	started atomic.Int64
	// start and period are the timed period's start and length.
	start  time.Time
	period time.Duration
	// park pauses both clients once heapAtOps ops have started.
	park   sync.WaitGroup
	resume chan struct{}
}

// runService runs service_mix: an in-process serve.Service with two
// workers, driven by two closed-loop clients mixing cold jobs and cache
// hits on a spool prepared before timing.
func runService(o options) (*report, error) {
	if o.writeGolden > 0 {
		return nil, fmt.Errorf("-write-golden applies to the simulator workloads")
	}
	rep := newReport()
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(o.work, "service-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	r := &svcRun{o: o, size: o.svcSize(), resume: make(chan struct{})}
	var base fault.FS = fault.OS{}
	if !o.diskSpool {
		mem := newMemFS()
		defer mem.close()
		base = mem
	}
	var fsys fault.FS = base
	if o.trace {
		r.cfs = newCountFS(base)
		fsys = r.cfs
	}
	cfg := serve.Config{Workers: svcWorkers, SpoolDir: filepath.Join(work, "spool"), FS: fsys}
	if err := r.prepare(cfg); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}

	// Set-up: restart the daemon on the prepared spool. Every restart
	// reads the same files, so the traced run counts them over all.
	var setups []float64
	var svc *serve.Service
	if r.cfs != nil {
		r.cfs.on.Store(true)
	}
	for i := 0; i < svcRestarts; i++ {
		if svc != nil {
			if err := shutdown(svc); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		t := time.Now()
		if svc, err = serve.Open(cfg); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	var openFiles, openBytes int64
	if r.cfs != nil {
		r.cfs.on.Store(false)
		openFiles, openBytes = r.cfs.readStats()
		openFiles /= svcRestarts
		openBytes /= svcRestarts
	}
	r.svc = svc

	// Timed closed loop.
	r.period = time.Duration(o.seconds * float64(time.Second))
	r.start = time.Now()
	deadline := r.start.Add(r.period)
	var heapMB float64
	r.park.Add(svcClients)
	go func() {
		r.park.Wait()
		heapMB = liveHeapMB()
		close(r.resume)
	}()
	stop := make(chan struct{})
	var toggler sync.WaitGroup
	if r.cfs != nil {
		toggler.Add(1)
		go func() {
			defer toggler.Done()
			r.toggle(stop)
		}()
	}
	marks := make(chan []time.Duration, 1)
	go func() { marks <- stealMarks(r.start, r.period, stop) }()
	snap0 := cacheCounters(svc)
	rt0 := readRuntime()
	ops := make([][]jobOp, svcClients)
	var wg sync.WaitGroup
	for c := 0; c < svcClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ops[c] = r.client(c, deadline)
		}(c)
	}
	wg.Wait()
	close(stop)
	toggler.Wait()
	steal := stealShares(<-marks, r.period, runtime.NumCPU())
	<-r.resume
	var rt rtDelta
	rt.add(rt0, readRuntime())
	snap1 := cacheCounters(svc)

	var all []jobOp
	for _, c := range ops {
		all = append(all, c...)
	}
	r.checkResults(rep, work, all)
	if err := shutdown(svc); err != nil {
		return nil, err
	}
	rep.attempted = len(all)
	for _, op := range all {
		if !op.ok {
			rep.failed++
		}
	}
	if o.trace {
		r.layers(rep, all, rt, snap1.sub(snap0), openFiles, openBytes)
		return rep, nil
	}
	r.endToEnd(rep, all, setups, rt, heapMB, steal)
	return rep, nil
}

// prepare runs the K hit specs cold once, leaving their jobs and
// results on the spool, and keeps the results hits must reproduce.
func (r *svcRun) prepare(cfg serve.Config) error {
	rng := rand.New(rand.NewSource(int64(r.o.seed)))
	svc, err := serve.Open(cfg)
	if err != nil {
		return err
	}
	var ids []string
	for k := 0; k < r.size.hitSpecs; k++ {
		spec := fig1Spec(r.size.apiFrames+rng.Intn(r.size.frameSpan), 2048+k, 600)
		v, err := svc.Submit(spec)
		if err != nil {
			return err
		}
		r.hitSpecs = append(r.hitSpecs, spec)
		ids = append(ids, v.ID)
	}
	for _, id := range ids {
		res, err := awaitResult(svc, id)
		if err != nil {
			return err
		}
		r.hitWant = append(r.hitWant, res)
	}
	return shutdown(svc)
}

// toggle advances the trace window every traceWindow until stop closes,
// switching the spool's counting on in odd windows.
func (r *svcRun) toggle(stop <-chan struct{}) {
	t := time.NewTicker(traceWindow)
	defer t.Stop()
	for {
		select {
		case <-stop:
			r.cfs.on.Store(false)
			return
		case <-t.C:
			r.cfs.on.Store(r.window.Add(1)%2 == 1)
		}
	}
}

// client runs one closed loop until the deadline.
func (r *svcRun) client(c int, deadline time.Time) []jobOp {
	rng := rand.New(rand.NewSource(int64(r.o.seed)*31 + int64(c) + 1))
	parked := false
	coldAt := 0
	defer func() {
		if !parked {
			r.park.Done()
		}
	}()
	var out []jobOp
	for i := 0; time.Now().Before(deadline) && (r.o.maxOps == 0 || int(r.started.Load()) < r.o.maxOps); i++ {
		if !parked && r.started.Load() >= heapAtOps {
			parked = true
			r.park.Done()
			<-r.resume
		}
		if i%coldOneIn == 0 {
			coldAt = i + rng.Intn(coldOneIn)
		}
		r.started.Add(1)
		op := jobOp{cold: i == coldAt}
		var spec serve.JobSpec
		k := 0
		if op.cold {
			spec = fig1Spec(r.size.apiFrames+rng.Intn(r.size.frameSpan), 1024+svcClients*i+c, 768)
		} else {
			k = rng.Intn(len(r.hitSpecs))
			spec = r.hitSpecs[k]
		}
		w := r.window.Load()
		res := r.do(&op, spec)
		if op.window = w; r.window.Load() != w {
			op.window = -1
		}
		if op.ok && !op.cold {
			op.ok = bytes.Equal(res, r.hitWant[k])
		}
		out = append(out, op)
	}
	return out
}

// do submits one job and waits for its result, timing each call.
func (r *svcRun) do(op *jobOp, spec serve.JobSpec) []byte {
	t0 := time.Now()
	op.at = t0.Sub(r.start)
	v, err := r.svc.Submit(spec)
	t1 := time.Now()
	op.submit = t1.Sub(t0)
	if err != nil {
		op.total = time.Since(t0)
		return nil
	}
	op.id = v.ID
	done, err := r.svc.Done(v.ID)
	if err == nil {
		<-done
	}
	t2 := time.Now()
	res, rerr := r.svc.Result(v.ID)
	t3 := time.Now()
	op.run, op.result, op.total = t2.Sub(t1), t3.Sub(t2), t3.Sub(t0)
	op.size = len(res)
	op.ok = err == nil && rerr == nil && v.CacheHit == !op.cold
	return res
}

// awaitResult waits for a job and returns its result.
func awaitResult(svc *serve.Service, id string) ([]byte, error) {
	done, err := svc.Done(id)
	if err != nil {
		return nil, err
	}
	<-done
	return svc.Result(id)
}

func shutdown(svc *serve.Service) error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	return svc.Shutdown(ctx)
}

// checkResults validates every distinct result — the K prepared ones and
// each cold job's — with schemacheck as gpuchar/metrics/v1, failing the
// ops whose result does not conform. It runs one check per CPU.
func (r *svcRun) checkResults(rep *report, work string, ops []jobOp) {
	dir := filepath.Join(work, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		rep.fail("results dir: %v", err)
		return
	}
	type doc struct {
		name string
		body []byte
		ok   *bool
	}
	var docs []doc
	prepared := make([]bool, len(r.hitWant))
	for k, body := range r.hitWant {
		docs = append(docs, doc{fmt.Sprintf("hit%d", k), body, &prepared[k]})
	}
	for i := range ops {
		op := &ops[i]
		if !op.cold || !op.ok {
			continue
		}
		body, err := r.svc.Result(op.id)
		if op.ok = err == nil; op.ok {
			docs = append(docs, doc{op.id, body, &op.ok})
		}
	}
	var mu sync.Mutex
	next := make(chan doc)
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for d := range next {
				path := filepath.Join(dir, d.name+".json")
				err := os.WriteFile(path, d.body, 0o644)
				var out []byte
				if err == nil {
					out, err = exec.Command(r.o.schemacheck, "-schema", r.o.schema, path).CombinedOutput()
				}
				*d.ok = err == nil
				if err != nil {
					mu.Lock()
					if len(rep.checkErr) < 5 {
						rep.fail("schemacheck %s: %v: %s", d.name, err, bytes.TrimSpace(out))
					}
					mu.Unlock()
				}
			}
		}()
	}
	for _, d := range docs {
		next <- d
	}
	close(next)
	wg.Wait()
	for k, ok := range prepared {
		if !ok {
			rep.fail("prepared hit result %d does not conform", k)
		}
	}
}
