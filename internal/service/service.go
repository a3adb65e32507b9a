package service

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/attack"
	"repro/internal/fault"
	"repro/internal/lint"
	"repro/internal/obs"
	"repro/internal/prove"
	"repro/internal/sim"
	"repro/internal/spn"
	"repro/internal/stdcell"
	"repro/internal/store"
)

// Config sizes the service.
type Config struct {
	// Workers is the number of queue shards / worker goroutines (jobs
	// running concurrently). Default 2.
	Workers int
	// QueueDepth is the queued-job capacity per shard. Default 32.
	QueueDepth int
	// StateDir persists job records and campaign checkpoints; "" runs
	// in memory only (no resume across restarts).
	StateDir string
	// CheckpointEveryRuns is the campaign checkpoint/progress interval
	// in simulated runs; rounded up to whole sim.Lanes batches.
	// Default 4096.
	CheckpointEveryRuns int
	// SimWorkers bounds the goroutines inside one campaign execution
	// (fault.EngineConfig.Parallelism). Default GOMAXPROCS.
	SimWorkers int
	// Obs is the metrics registry the service registers its instruments
	// on. nil creates a private registry, which keeps multiple Service
	// instances in one process from sharing counters; the daemon passes a
	// shared registry so service, sim and fault metrics render as one
	// exposition.
	Obs *obs.Registry
	// Dist configures the distributed campaign fabric. When enabled this
	// service is a coordinator: campaign jobs are split into batch-range
	// leases pulled by sconed worker processes instead of executing
	// in-process.
	Dist DistConfig
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 32
	}
	if c.CheckpointEveryRuns <= 0 {
		c.CheckpointEveryRuns = 4096
	}
	if c.SimWorkers <= 0 {
		c.SimWorkers = runtime.GOMAXPROCS(0)
	}
	return c
}

// engineDefaults is the execution-policy fallback campaign specs without
// explicit workers resolve against.
func (c Config) engineDefaults() EngineDefaults {
	return EngineDefaults{Workers: c.SimWorkers}
}

// ErrUnknownJob is returned for IDs the service has never seen.
var ErrUnknownJob = errors.New("service: unknown job")

// job is the in-memory state of one job. All mutable fields are guarded by
// Service.mu; the campaign hot loop runs without it and communicates
// through per-chunk callbacks.
type job struct {
	id  string
	req JobRequest

	state      State
	err        string
	result     *JobResult
	progress   *Progress
	resumed    int
	checkpoint *Checkpoint
	userCancel bool
	cancel     context.CancelFunc // set while running

	submitted time.Time
	started   *time.Time
	finished  *time.Time

	subs    map[int]chan Event
	nextSub int
}

// Service is the campaign server: a bounded sharded queue feeding a fixed
// worker pool, with durable state when a StateDir is configured.
type Service struct {
	cfg     Config
	Metrics *Metrics
	dist    *coordinator // nil unless Config.Dist.Enabled

	baseCtx context.Context
	stop    context.CancelFunc

	// results is the content-addressed campaign result store (StateDir/
	// results.log); nil without a StateDir. Every store method is nil-safe,
	// so the storeless service runs the same code path with every lookup a
	// miss.
	results *store.Store

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string
	nextID   int
	queue    *queue
	store    *jobStore
	draining bool

	wg sync.WaitGroup
}

// New opens the state dir, resumes any incomplete jobs it records, and
// starts the worker pool.
func New(cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	st, err := openJobStore(cfg.StateDir)
	if err != nil {
		return nil, err
	}
	recs, err := st.loadAll()
	if err != nil {
		return nil, err
	}

	pending := 0
	for _, rec := range recs {
		if !rec.State.Terminal() {
			pending++
		}
	}
	depth := cfg.QueueDepth
	if per := (pending + cfg.Workers - 1) / cfg.Workers; per > depth {
		depth = per // a restart must always be able to re-enqueue its own backlog
	}

	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:     cfg,
		baseCtx: ctx,
		stop:    cancel,
		jobs:    make(map[string]*job),
		queue:   newQueue(cfg.Workers, depth),
		store:   st,
	}
	if cfg.StateDir != "" {
		rs, err := store.Open(filepath.Join(cfg.StateDir, "results.log"))
		if err != nil {
			cancel()
			return nil, err
		}
		rs.EnableObservability(reg)
		s.results = rs
	}
	if cfg.Dist.Enabled {
		s.dist = newCoordinator(cfg.Dist)
		s.dist.results = s.results
	}
	s.Metrics = newMetrics(reg, s.queue, s.dist)
	if s.dist != nil {
		s.dist.metrics = s.Metrics
		go s.dist.janitor(ctx.Done())
	}

	for _, rec := range recs {
		j := &job{
			id:         rec.ID,
			req:        rec.Req,
			state:      rec.State,
			err:        rec.Error,
			result:     rec.Result,
			resumed:    rec.Resumed,
			checkpoint: rec.Checkpoint,
			submitted:  rec.Submitted,
			subs:       make(map[int]chan Event),
		}
		if n, ok := parseJobID(rec.ID); ok && n >= s.nextID {
			s.nextID = n + 1
		}
		if !j.state.Terminal() {
			// Queued and interrupted-running jobs alike go back on
			// the queue; campaigns pick up from their checkpoint.
			j.state = StateQueued
			if err := s.queue.push(j); err != nil {
				cancel()
				return nil, fmt.Errorf("service: re-enqueue %s: %w", j.id, err)
			}
		}
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
	}

	for w := 0; w < cfg.Workers; w++ {
		s.wg.Add(1)
		go s.worker(w)
	}
	return s, nil
}

func parseJobID(id string) (int, bool) {
	if len(id) < 2 || id[0] != 'j' {
		return 0, false
	}
	n, err := strconv.Atoi(id[1:])
	if err != nil {
		return 0, false
	}
	return n, true
}

// Submit validates and enqueues a job, returning its initial status.
func (s *Service) Submit(req JobRequest) (JobStatus, error) {
	if err := req.Validate(); err != nil {
		return JobStatus{}, fmt.Errorf("invalid request: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return JobStatus{}, ErrDraining
	}
	j := &job{
		id:        fmt.Sprintf("j%06d", s.nextID),
		req:       req,
		state:     StateQueued,
		submitted: time.Now().UTC(),
		subs:      make(map[int]chan Event),
	}
	if err := s.queue.push(j); err != nil {
		return JobStatus{}, err
	}
	s.nextID++
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.Metrics.JobsSubmitted.Inc()
	s.persistLocked(j)
	return s.statusLocked(j), nil
}

// Get returns a job's status.
func (s *Service) Get(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, ErrUnknownJob
	}
	return s.statusLocked(j), nil
}

// List returns every job in submission order.
func (s *Service) List() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.statusLocked(s.jobs[id]))
	}
	return out
}

// Cancel stops a job: queued jobs are marked canceled immediately, running
// jobs are interrupted at their next batch boundary. Cancelling a terminal
// job is a no-op.
func (s *Service) Cancel(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, ErrUnknownJob
	}
	switch j.state {
	case StateQueued:
		j.userCancel = true
		s.finishLocked(j, StateCanceled, nil, "")
	case StateRunning:
		j.userCancel = true
		if j.cancel != nil {
			j.cancel()
		}
	}
	return s.statusLocked(j), nil
}

// Watch subscribes to a job's event stream. The returned channel delivers
// progress and terminal events and is closed when the job reaches a
// terminal state (read the final status with Get); call off to detach
// early. Slow consumers may miss intermediate progress events — the stream
// is a live feed, not a journal.
func (s *Service) Watch(id string) (<-chan Event, func(), error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, nil, ErrUnknownJob
	}
	ch := make(chan Event, 16)
	if j.state.Terminal() {
		close(ch)
		return ch, func() {}, nil
	}
	key := j.nextSub
	j.nextSub++
	j.subs[key] = ch
	off := func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		if _, live := j.subs[key]; live {
			delete(j.subs, key) // publisher holds mu, so no send can race this
		}
	}
	return ch, off, nil
}

// Drain gracefully shuts the service down: intake stops, running campaigns
// checkpoint and return to the queued state (durably, when a StateDir is
// configured), and the workers exit. ctx bounds the wait. A subsequent New
// on the same StateDir resumes the interrupted jobs.
func (s *Service) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	s.queue.closeAll()
	s.mu.Unlock()
	s.dist.setDraining() // workers learn via heartbeat/acquire responses
	s.stop()             // interrupt running jobs at their next batch boundary

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		// Workers are quiesced; the result store can close durably. Late
		// distributed lease reports now get store-closed errors, which the
		// put-error counter records and the determinism contract absorbs —
		// the batches are simply re-simulated next time.
		return s.results.Close()
	case <-ctx.Done():
		return fmt.Errorf("service: drain: %w", ctx.Err())
	}
}

// Close is Drain without a deadline.
func (s *Service) Close() error { return s.Drain(context.Background()) }

// statusLocked snapshots a job. Callers hold s.mu.
func (s *Service) statusLocked(j *job) JobStatus {
	st := JobStatus{
		ID:        j.id,
		Kind:      j.req.Kind,
		State:     j.state,
		Error:     j.err,
		Result:    j.result,
		Resumed:   j.resumed,
		Submitted: j.submitted,
		Started:   j.started,
		Finished:  j.finished,
	}
	if j.progress != nil {
		p := *j.progress
		st.Progress = &p
	}
	return st
}

// persistLocked writes the job's durable record; persistence failures are
// recorded on the job rather than crashing the worker.
func (s *Service) persistLocked(j *job) {
	rec := &jobRecord{
		ID:         j.id,
		Req:        j.req,
		State:      j.state,
		Error:      j.err,
		Result:     j.result,
		Resumed:    j.resumed,
		Checkpoint: j.checkpoint,
		Submitted:  j.submitted,
	}
	sp := obs.StartSpan(s.Metrics.CheckpointNS)
	err := s.store.save(rec)
	sp.End()
	if err != nil && j.err == "" {
		j.err = fmt.Sprintf("checkpoint write failed: %v", err)
	}
}

// publishLocked fans an event out to the job's subscribers (non-blocking;
// laggards drop intermediate events).
func (s *Service) publishLocked(j *job, ev Event) {
	for _, ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// finishLocked moves a job to a terminal state, persists it and closes the
// event stream.
func (s *Service) finishLocked(j *job, state State, result *JobResult, errMsg string) {
	now := time.Now().UTC()
	j.state = state
	j.result = result
	j.err = errMsg
	j.finished = &now
	j.cancel = nil
	if j.started != nil {
		s.Metrics.JobRunNS.Observe(now.Sub(*j.started).Nanoseconds())
	}
	switch state {
	case StateDone:
		s.Metrics.JobsCompleted.Inc()
	case StateFailed:
		s.Metrics.JobsFailed.Inc()
	case StateCanceled:
		s.Metrics.JobsCanceled.Inc()
	}
	s.persistLocked(j)
	st := s.statusLocked(j)
	s.publishLocked(j, Event{Type: "result", Job: &st})
	for k, ch := range j.subs {
		close(ch)
		delete(j.subs, k)
	}
}

// worker serves one queue shard until drain.
func (s *Service) worker(w int) {
	defer s.wg.Done()
	for j := range s.queue.shards[w] {
		s.queue.took()
		s.runJob(j)
	}
}

// runJob executes one dequeued job.
func (s *Service) runJob(j *job) {
	s.mu.Lock()
	if j.state != StateQueued || s.draining {
		// Canceled while queued, or the service is shutting down; a
		// drained job stays queued on disk for the next process.
		s.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	now := time.Now().UTC()
	j.state = StateRunning
	j.started = &now
	j.cancel = cancel
	s.Metrics.JobWaitNS.Observe(now.Sub(j.submitted).Nanoseconds())
	s.Metrics.JobsRunning.Add(1)
	s.persistLocked(j)
	st := s.statusLocked(j)
	s.publishLocked(j, Event{Type: "status", Job: &st})
	s.mu.Unlock()
	defer s.Metrics.JobsRunning.Add(-1)

	var result *JobResult
	var err error
	switch j.req.Kind {
	case KindCampaign:
		result, err = s.runCampaign(ctx, j)
	case KindDFA, KindSIFA, KindFTA:
		result, err = s.runAttack(ctx, j)
	case KindArea:
		result, err = runArea(j.req)
	case KindLint:
		result, err = runLint(j.req)
	case KindProve:
		result, err = s.runProve(ctx, j)
	case KindMultiFault:
		result, err = s.runMultiFault(ctx, j)
	case KindLeakage:
		result, err = s.runLeakage(ctx, j)
	default:
		err = fmt.Errorf("unknown job kind %q", j.req.Kind)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case err == nil:
		s.finishLocked(j, StateDone, result, "")
	case errors.Is(err, context.Canceled) && j.userCancel:
		s.finishLocked(j, StateCanceled, nil, "")
	case errors.Is(err, context.Canceled):
		// Drain: back to queued with the checkpoint intact; the next
		// process resumes from here.
		j.state = StateQueued
		j.cancel = nil
		s.persistLocked(j)
		st := s.statusLocked(j)
		s.publishLocked(j, Event{Type: "status", Job: &st})
	default:
		s.finishLocked(j, StateFailed, nil, err.Error())
	}
}

// resume starts a resumable job's execution from its checkpoint. restore
// folds the checkpoint — nil on a fresh start — into the kind's
// accumulator and returns the progress it represents, which becomes the
// job's starting progress; a restored checkpoint counts as one resume.
func (s *Service) resume(j *job, restore func(cp *Checkpoint) (Progress, error)) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, err := restore(j.checkpoint)
	if err != nil {
		return err
	}
	if j.checkpoint != nil {
		j.resumed++
		s.Metrics.JobsResumed.Inc()
	}
	j.progress = &p
	return nil
}

// checkpoint records one boundary of a resumable job: cp and p become the
// job's latest checkpoint and progress, the record is persisted and the
// progress event published. cp must be a frozen snapshot — the persisted
// record may not share state the job keeps mutating.
func (s *Service) checkpoint(j *job, cp *Checkpoint, p Progress) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j.checkpoint = cp
	j.progress = &p
	s.Metrics.Checkpoints.Inc()
	s.persistLocked(j)
	s.publishLocked(j, Event{Type: "progress", Progress: &p})
}

// runCampaign executes a campaign job through executeCampaign, resuming
// from its checkpoint. Every advance of the merged batch prefix is a
// checkpoint, so a drained or killed job resumes at the last one; the
// run record carries the execution's replay/simulation split.
func (s *Service) runCampaign(ctx context.Context, j *job) (*JobResult, error) {
	camp, err := BuildCampaign(j.req.Design, j.req.Campaign, s.cfg.engineDefaults())
	if err != nil {
		return nil, err
	}
	var from Checkpoint
	if err := s.resume(j, func(cp *Checkpoint) (Progress, error) {
		if cp != nil {
			from = *cp
		}
		return Progress{Done: from.Counts.Total, Total: camp.Runs, Counts: from.Counts}, nil
	}); err != nil {
		return nil, err
	}

	at := s.address(camp)
	prov := s.beginRunRecord(j, camp, at)
	res, err := s.executeCampaign(ctx, j.id, j.req, camp, at, from, func(cp Checkpoint, replayedBatches, simulatedBatches int) {
		prov.add(replayedBatches, simulatedBatches)
		s.checkpoint(j, &cp, Progress{Done: cp.Counts.Total, Total: camp.Runs, Counts: cp.Counts})
		// Checkpoint cadence doubles as store durability cadence.
		_ = s.results.Sync()
	})
	if err != nil {
		prov.finish(err, nil)
		return nil, err
	}
	prov.finish(nil, &res)
	return &JobResult{Campaign: &res}, nil
}

// storeAddr is a campaign's content address in the result store. ok is
// false without a store or when the address cannot be computed; every
// store interaction is gated on it.
type storeAddr struct {
	key    store.CampaignKey
	digest store.Digest
	ok     bool
}

// address resolves a built campaign's store address. An address failure
// disables replay for the execution, never fails it: the store is an
// accelerator, not a dependency.
func (s *Service) address(camp *fault.Campaign) storeAddr {
	if s.results == nil {
		return storeAddr{}
	}
	key, err := campaignAddress(camp)
	if err != nil {
		return storeAddr{}
	}
	return storeAddr{key: key, digest: key.Digest(), ok: true}
}

// executeCampaign runs batches [from.NextBatch, NumBatches) of a built
// campaign on top of from.Counts, the folded counts of the batches before
// it, and returns the whole campaign's tally. Without the distributed
// fabric it executes in-process in CheckpointEveryRuns-sized chunks, each
// spliced from the result store where cached (executeRange); as a
// coordinator it registers the range under id — req is the campaign
// request lease grants ship to workers — and follows the merge cursor.
// advance, when set, is called after every chunk or cursor advance, and
// when execution stops early, with the resume point reached so far and
// how the batches since the last call split between store replay and
// fresh simulation. Results are bit-identical across both paths and any
// cut points: batch b's outcome depends only on (seed, b).
func (s *Service) executeCampaign(ctx context.Context, id string, req JobRequest, camp *fault.Campaign, at storeAddr, from Checkpoint, advance func(cp Checkpoint, replayedBatches, simulatedBatches int)) (CampaignResult, error) {
	acc := from.Counts
	step := func(next int, d rangeDelta) {
		s.Metrics.RunsSimulated.Add(int64(d.simulatedRuns))
		s.Metrics.RunsReplayed.Add(int64(d.replayedRuns))
		if advance != nil {
			advance(Checkpoint{NextBatch: next, Counts: acc}, d.replayedBatches, d.completed-d.replayedBatches)
		}
	}
	batches := camp.NumBatches()

	if s.dist == nil {
		chunk := max((s.cfg.CheckpointEveryRuns+sim.Lanes-1)/sim.Lanes, 1)
		for b := from.NextBatch; b < batches; b += chunk {
			d, err := s.executeRange(ctx, camp, at, b, min(b+chunk, batches))
			acc.Accumulate(d.counts)
			step(b+d.completed, d)
			if err != nil {
				return acc, err
			}
		}
		return acc, nil
	}

	// The coordinator pre-completes cached batches at register time, so
	// the replay split is read off the merged state.
	dj := s.dist.register(id, req, from.NextBatch, batches, acc, camp.Runs, at.digest, at.ok)
	defer s.dist.unregister(id)
	last := distProgress{cursor: from.NextBatch, acc: acc}
	for {
		select {
		case <-ctx.Done():
		case <-dj.notify:
		}
		p := s.dist.snapshot(id)
		err := ctx.Err()
		if err == nil && p.failed != "" {
			err = errors.New(p.failed)
		}
		if p.cursor != last.cursor || err != nil {
			acc = p.acc
			replayedRuns := p.replayedRuns - last.replayedRuns
			step(p.cursor, rangeDelta{
				completed:       p.cursor - last.cursor,
				replayedBatches: p.replayedBatches - last.replayedBatches,
				replayedRuns:    replayedRuns,
				simulatedRuns:   p.acc.Total - last.acc.Total - replayedRuns,
			})
			last = p
		}
		if err != nil || p.done {
			return acc, err
		}
	}
}

// rangeDelta is one executeRange outcome: the merged counts of the range's
// completed contiguous prefix and how that work split between replay and
// simulation.
type rangeDelta struct {
	counts          CampaignResult
	completed       int // batches of the contiguous prefix
	replayedBatches int
	replayedRuns    int
	simulatedRuns   int
}

// executeRange runs the batch range [first, last) with store splicing. The
// cache is consulted exactly once per batch up front (so the hit/miss
// instruments measure the replay decision precisely), then the range is
// walked as alternating cached and uncached segments: cached batches merge
// their stored counts and count as replays, uncached segments execute with
// a per-batch hook that stores each fresh tally under its content address.
// Like ExecuteBatches, the returned delta covers a contiguous prefix of the
// range on cancellation.
func (s *Service) executeRange(ctx context.Context, camp *fault.Campaign, at storeAddr, first, last int) (rangeDelta, error) {
	var d rangeDelta
	var cached []*store.Counts
	if at.ok {
		cached = make([]*store.Counts, last-first)
		for b := first; b < last; b++ {
			k := store.BatchKey{Campaign: at.digest, Batch: b, Runs: camp.BatchRuns(b)}
			if c, ok := s.results.GetBatch(k); ok {
				cc := c
				cached[b-first] = &cc
			}
		}
	}
	for b := first; b < last; {
		if cached != nil && cached[b-first] != nil {
			c := *cached[b-first]
			accumulateCounts(&d.counts, c)
			fault.CountReplay(1, fault.Result{Total: c.Total})
			d.replayedBatches++
			d.replayedRuns += c.Total
			d.completed++
			b++
			continue
		}
		end := b
		for end < last && (cached == nil || cached[end-first] == nil) {
			end++
		}
		res, execErr := camp.ExecuteBatchesFunc(ctx, b, end, nil, func(bi int, r fault.Result) {
			if at.ok {
				k := store.BatchKey{Campaign: at.digest, Batch: bi, Runs: r.Total}
				_ = s.results.PutBatch(k, faultCounts(r)) // conflicts/failures count in the store's own instruments
			}
		})
		d.counts.Add(res)
		d.simulatedRuns += res.Total
		// Completed batches are always full sim.Lanes wide except the
		// campaign's final batch, which only completes error-free.
		done := res.Total / sim.Lanes
		if execErr == nil {
			done = end - b
		}
		d.completed += done
		if execErr != nil {
			return d, execErr
		}
		b = end
	}
	return d, nil
}

// runAttack executes the one-shot attack kinds. The drivers are not
// incrementally interruptible (they are short relative to campaigns), so
// cancellation is honoured at the boundaries.
func (s *Service) runAttack(ctx context.Context, j *job) (*JobResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	a := j.req.Attack
	key := spn.KeyState{uint64(a.Key[0]), uint64(a.Key[1])}
	d, err := BuildDesign(j.req.Design)
	if err != nil {
		return nil, err
	}
	deviceSeed := uint64(a.DeviceSeed)
	if deviceSeed == 0 {
		deviceSeed = 0x5C017ED
	}

	switch j.req.Kind {
	case KindDFA:
		t, err := attack.NewTarget(d, key, deviceSeed)
		if err != nil {
			return nil, err
		}
		cfg := attack.DefaultDFAConfig()
		if a.PairsPerNibble > 0 {
			cfg.PairsPerNibble = a.PairsPerNibble
		}
		if a.Model != "" {
			cfg.Model, _ = parseModel(a.Model)
		}
		cfg.BothBranches = a.BothBranches
		cfg.UnknownPolarity = a.UnknownPolarity
		if a.Seed != 0 {
			cfg.Seed = uint64(a.Seed)
		}
		res := attack.RunDFA(t, cfg)
		return &JobResult{DFA: &DFAResult{
			Succeeded:    res.Succeeded,
			Detail:       res.Detail,
			RecoveredKey: [2]U64{U64(res.RecoveredKey[0]), U64(res.RecoveredKey[1])},
		}}, ctx.Err()
	case KindSIFA:
		t, err := attack.NewTarget(d, key, deviceSeed)
		if err != nil {
			return nil, err
		}
		cfg := attack.DefaultSIFAConfig()
		if a.Sbox != nil {
			cfg.SboxIndex = *a.Sbox
		}
		if a.Bit != nil {
			cfg.FaultBit = *a.Bit
		}
		if a.Injections > 0 {
			cfg.Injections = a.Injections
		}
		if a.Seed != 0 {
			cfg.Seed = uint64(a.Seed)
		}
		if cfg.SboxIndex >= d.Spec.NumSboxes() || cfg.FaultBit >= d.Spec.SboxBits {
			return nil, fmt.Errorf("S-box %d bit %d out of range for %s", cfg.SboxIndex, cfg.FaultBit, d.Spec.Name)
		}
		res := attack.RunSIFA(t, cfg)
		return &JobResult{SIFA: &SIFAResult{
			Succeeded:  res.Succeeded,
			Detail:     res.Detail,
			BestGuess:  U64(res.BestGuess),
			TrueSubkey: U64(res.TrueSubkey),
			Usable:     res.Usable,
		}}, ctx.Err()
	case KindFTA:
		cfg := attack.DefaultFTAConfig()
		if a.Sbox != nil {
			cfg.SboxIndex = *a.Sbox
		}
		if a.Repeats > 0 {
			cfg.Repeats = a.Repeats
		}
		if a.ProfilePTs > 0 {
			cfg.ProfilePTs = a.ProfilePTs
		}
		if a.AttackPTs > 0 {
			cfg.AttackPTs = a.AttackPTs
		}
		if a.Seed != 0 {
			cfg.Seed = uint64(a.Seed)
		}
		if cfg.SboxIndex >= d.Spec.NumSboxes() {
			return nil, fmt.Errorf("S-box %d out of range for %s", cfg.SboxIndex, d.Spec.Name)
		}
		res, err := attack.RunFTAOnDesign(d, key, cfg, deviceSeed)
		if err != nil {
			return nil, err
		}
		return &JobResult{FTA: &FTAResult{
			Succeeded:  res.Succeeded,
			Detail:     res.Detail,
			Accuracy:   res.Accuracy,
			Bits:       res.Bits,
			Separation: res.Separation,
		}}, ctx.Err()
	}
	return nil, fmt.Errorf("unknown attack kind %q", j.req.Kind)
}

// runArea prices a design (or uploaded netlist) in gate equivalents.
func runArea(req JobRequest) (*JobResult, error) {
	m, err := ResolveModule(req.Design)
	if err != nil {
		return nil, err
	}
	rep := stdcell.Nangate45().Area(m)
	byKind := make(map[string]float64, len(rep.ByKind))
	for k, ge := range rep.ByKind {
		byKind[k.String()] = ge
	}
	return &JobResult{Area: &AreaResult{
		Module:        rep.Module,
		Library:       rep.Library,
		Combinational: rep.Combinational,
		Sequential:    rep.Sequential,
		Total:         rep.Total(),
		CellCount:     rep.CellCount,
		ByKind:        byKind,
	}}, nil
}

// runProve executes a prove job one (fault location, model) pair at a
// time. Proofs are deterministic and independent per pair, and the pairs
// are walked in a fixed order (locations outer, models inner), so every
// pair boundary is a checkpoint: the completed pairs and the next index
// are persisted after each proof, and a drained or killed job resumes by
// replaying the checkpointed pairs into the aggregate and proving only
// the remainder — never re-proving a completed pair.
func (s *Service) runProve(ctx context.Context, j *job) (*JobResult, error) {
	m, err := ResolveModule(j.req.Design)
	if err != nil {
		return nil, err
	}
	budget := 0
	models := prove.Models()
	if p := j.req.Prove; p != nil {
		budget = p.Budget
		if len(p.Models) > 0 {
			models = make([]fault.Model, 0, len(p.Models))
			for _, name := range p.Models {
				fm, err := parseModel(name)
				if err != nil {
					return nil, err
				}
				models = append(models, fm)
			}
		}
	}
	a, err := prove.NewAnalyzer(m, budget)
	if err != nil {
		return nil, err
	}
	locs := a.Locations()
	if len(locs) == 0 {
		return nil, fmt.Errorf("module %s declares no fault points (no %q cell tags)", m.Name, prove.TagPrefix)
	}
	total := len(locs) * len(models)

	res := &ProveResult{Module: m.Name, Budget: a.Budget()}
	start := 0
	if err := s.resume(j, func(cp *Checkpoint) (Progress, error) {
		if cp != nil && cp.Prove != nil {
			start = cp.Prove.NextPair
			for _, l := range cp.Prove.Done {
				res.Accumulate(l)
			}
		}
		return Progress{Done: start, Total: total}, nil
	}); err != nil {
		return nil, err
	}

	for pair := start; pair < total; pair++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		lr, err := a.Prove(locs[pair/len(models)], models[pair%len(models)])
		if err != nil {
			return nil, err
		}
		res.Accumulate(NewProveLocation(lr))
		// The checkpoint owns its own copy of the completed pairs: the
		// result keeps growing while the persisted record must stay a
		// frozen snapshot of this boundary.
		done := append([]ProveLocation(nil), res.Locations...)
		s.checkpoint(j, &Checkpoint{Prove: &ProveCheckpoint{NextPair: pair + 1, Done: done}}, Progress{Done: pair + 1, Total: total})
	}
	return &JobResult{Prove: res}, nil
}

// runLeakage executes a leakage job one trace batch at a time. Batches
// are (seed, batch)-deterministic and the streaming t-test accumulator
// serialises bit-exactly, so every batch boundary is a checkpoint: a
// drained or killed job resumes by restoring the accumulator and
// simulating exactly the remaining batches — the final t-statistics are
// bit-identical to an uninterrupted run.
func (s *Service) runLeakage(ctx context.Context, j *job) (*JobResult, error) {
	ev, err := buildLeakage(j.req)
	if err != nil {
		return nil, err
	}
	total := j.req.Leakage.Pairs
	if err := s.resume(j, func(cp *Checkpoint) (Progress, error) {
		if cp != nil && cp.Leakage != nil {
			if err := ev.Restore(*cp.Leakage); err != nil {
				return Progress{}, err
			}
		}
		return Progress{Done: ev.PairsDone(), Total: total}, nil
	}); err != nil {
		return nil, err
	}

	for !ev.Done() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ev.Step()
		// State() deep-copies the accumulator, so the persisted record
		// stays a frozen snapshot of this batch boundary.
		st := ev.State()
		s.checkpoint(j, &Checkpoint{Leakage: &st}, Progress{Done: ev.PairsDone(), Total: total})
	}
	return &JobResult{Leakage: NewLeakageResult(ev.Result())}, nil
}

// runLint audits a design (or uploaded netlist) with the static
// countermeasure linter.
func runLint(req JobRequest) (*JobResult, error) {
	m, err := ResolveModule(req.Design)
	if err != nil {
		return nil, err
	}
	opts := lint.Options{}
	if req.Lint != nil {
		opts.Rules = req.Lint.Rules
		opts.MaxPerRule = req.Lint.MaxPerRule
	}
	rep, err := lint.Run(m, opts)
	if err != nil {
		return nil, err
	}
	return &JobResult{Lint: rep}, nil
}

// QueueLen reports the queued backlog (for /metrics and tests).
func (s *Service) QueueLen() int { return s.queue.Len() }
