package client

// Worker is the pull side of the distributed campaign fabric: it joins a
// coordinator, heartbeats, and executes batch-range leases through
// fault.Campaign.ExecuteBatches. Because every batch derives its
// randomness from (seed, batch), a worker is stateless and expendable — a
// killed worker's lease simply expires and another worker recomputes the
// identical counts, so the coordinator's merged result never depends on
// which process ran what.

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/service"
	"repro/internal/sim"
)

// WorkerConfig parameterises a campaign worker.
type WorkerConfig struct {
	// Coordinator is the coordinator daemon's base URL.
	Coordinator string
	// Name labels the worker in /v1/workers listings.
	Name string
	// Capacity advertises how many leases the worker wants concurrently.
	// Default 1 (the execution loop itself is serial; capacity >1 only
	// keeps ranges reserved ahead).
	Capacity int
	// ChunkBatches is the progress-report granularity inside one lease.
	// Default 4.
	ChunkBatches int
	// SimWorkers bounds the goroutines of one lease execution; 0 lets the
	// engine default (GOMAXPROCS).
	SimWorkers int
	// OnLease, when set, runs synchronously after every successful
	// acquire, before execution starts — the hook deterministic tests use
	// to kill a worker at a known point.
	OnLease func(service.LeaseGrant)
}

func (c WorkerConfig) withDefaults() WorkerConfig {
	if c.Capacity <= 0 {
		c.Capacity = 1
	}
	if c.ChunkBatches <= 0 {
		c.ChunkBatches = 4
	}
	return c
}

// Worker runs the lease-pull loop against one coordinator.
type Worker struct {
	cfg    WorkerConfig
	client *Client

	abrupt atomic.Bool        // Kill() vs graceful context cancellation
	kill   context.CancelFunc // set once Run starts
	killMu sync.Mutex

	mu     sync.Mutex
	id     string
	leases map[string]int                // leaseID -> done batches (heartbeat payload)
	abort  map[string]context.CancelFunc // leaseID -> execution cancel
}

// NewWorker returns an unstarted worker; Run drives it.
func NewWorker(cfg WorkerConfig) *Worker {
	return &Worker{
		cfg:    cfg.withDefaults(),
		client: New(cfg.Coordinator),
		leases: make(map[string]int),
		abort:  make(map[string]context.CancelFunc),
	}
}

// ID returns the coordinator-assigned worker ID ("" before the first
// successful join).
func (w *Worker) ID() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.id
}

// Kill stops the worker abruptly: no lease fail reports, no leave — the
// process just goes silent, exactly like a crashed machine. Its leases
// stay active on the coordinator until the TTL janitor expires and
// reassigns them. Tests use this to exercise the recovery path.
func (w *Worker) Kill() {
	w.abrupt.Store(true)
	w.killMu.Lock()
	if w.kill != nil {
		w.kill()
	}
	w.killMu.Unlock()
}

// Run joins the coordinator and pulls leases until ctx is canceled (a
// graceful stop: the current lease is failed back for immediate
// reassignment and the worker leaves) or Kill is called (abrupt death).
// It returns nil on either form of shutdown.
func (w *Worker) Run(ctx context.Context) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	w.killMu.Lock()
	w.kill = cancel
	w.killMu.Unlock()

	join, err := w.join(ctx)
	if err != nil {
		return err
	}

	hbStop := make(chan struct{})
	var hbDone sync.WaitGroup
	hbDone.Add(1)
	go func() {
		defer hbDone.Done()
		w.heartbeatLoop(ctx, hbStop, time.Duration(join.HeartbeatMS)*time.Millisecond)
	}()

	poll := time.Duration(join.PollMS) * time.Millisecond
	if poll <= 0 {
		poll = 200 * time.Millisecond
	}
	for {
		if ctx.Err() != nil {
			break
		}
		grant, err := w.client.AcquireLease(ctx, w.ID())
		switch {
		case err == nil && grant != nil:
			w.execute(ctx, *grant)
			continue
		case errors.Is(err, ErrNotFound):
			// The coordinator forgot us (restart); re-join under a new ID.
			if join, err = w.join(ctx); err != nil {
				close(hbStop)
				hbDone.Wait()
				return err
			}
			continue
		}
		// No lease available, coordinator draining, or transient error:
		// idle until the next poll tick.
		select {
		case <-ctx.Done():
		case <-time.After(poll):
		}
	}

	close(hbStop)
	hbDone.Wait()
	if !w.abrupt.Load() {
		// Graceful: hand leases back for immediate reassignment.
		leaveCtx, leaveCancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer leaveCancel()
		_ = w.client.LeaveWorker(leaveCtx, w.ID())
	}
	return nil
}

// join registers with the coordinator, retrying until ctx dies.
func (w *Worker) join(ctx context.Context) (service.JoinResponse, error) {
	req := service.JoinRequest{Name: w.cfg.Name, Capacity: w.cfg.Capacity}
	for {
		resp, err := w.client.JoinWorker(ctx, req)
		if err == nil {
			w.mu.Lock()
			w.id = resp.WorkerID
			w.mu.Unlock()
			return resp, nil
		}
		if ctx.Err() != nil {
			return service.JoinResponse{}, ctx.Err()
		}
		select {
		case <-ctx.Done():
			return service.JoinResponse{}, ctx.Err()
		case <-time.After(200 * time.Millisecond):
		}
	}
}

// heartbeatLoop renews the worker's leases; leases the coordinator reports
// as dropped (expired and reassigned) have their executions aborted.
func (w *Worker) heartbeatLoop(ctx context.Context, stop <-chan struct{}, every time.Duration) {
	if every <= 0 {
		every = time.Second
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-stop:
			return
		case <-t.C:
		}
		w.mu.Lock()
		id := w.id
		held := make(map[string]int, len(w.leases))
		for k, v := range w.leases {
			held[k] = v
		}
		w.mu.Unlock()
		resp, err := w.client.WorkerHeartbeat(ctx, id, service.HeartbeatRequest{Leases: held})
		if err != nil {
			continue // transient; acquire handles re-join on 404
		}
		for _, leaseID := range resp.Drop {
			w.mu.Lock()
			if cancel := w.abort[leaseID]; cancel != nil {
				cancel()
			}
			w.mu.Unlock()
		}
	}
}

// track registers a running lease for heartbeats and abort routing.
func (w *Worker) track(leaseID string, cancel context.CancelFunc) {
	w.mu.Lock()
	w.leases[leaseID] = 0
	w.abort[leaseID] = cancel
	w.mu.Unlock()
}

func (w *Worker) untrack(leaseID string) {
	w.mu.Lock()
	delete(w.leases, leaseID)
	delete(w.abort, leaseID)
	w.mu.Unlock()
}

func (w *Worker) setDone(leaseID string, done int) {
	w.mu.Lock()
	if _, ok := w.leases[leaseID]; ok {
		w.leases[leaseID] = done
	}
	w.mu.Unlock()
}

// execute runs one lease in ChunkBatches-sized sub-ranges, posting a
// partial tally after each. Error handling mirrors the coordinator's
// state machine: a killed worker reports nothing (the TTL expires the
// lease), a gracefully stopped worker fails the lease back immediately,
// and a conflict response means the lease was reassigned — the work is
// discarded, which is safe because the replacement computes identical
// counts.
func (w *Worker) execute(ctx context.Context, grant service.LeaseGrant) {
	if w.cfg.OnLease != nil {
		w.cfg.OnLease(grant)
	}
	leaseCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	w.track(grant.LeaseID, cancel)
	defer w.untrack(grant.LeaseID)
	if leaseCtx.Err() != nil {
		return // killed in the OnLease hook: silent death
	}

	rep := service.LeaseReport{WorkerID: w.ID()}
	camp, err := service.BuildCampaign(grant.Design, &grant.Campaign,
		service.EngineDefaults{Workers: w.cfg.SimWorkers})
	if err != nil {
		rep.Error = err.Error()
		_ = w.client.FailLease(ctx, grant.LeaseID, rep)
		return
	}

	var acc service.CampaignResult
	var batchTallies []service.CampaignResult // per-batch, in batch order
	for b := grant.FirstBatch; b < grant.LastBatch; {
		end := b + w.cfg.ChunkBatches
		if end > grant.LastBatch {
			end = grant.LastBatch
		}
		res, execErr := camp.ExecuteBatchesFunc(leaseCtx, b, end, nil, func(_ int, r fault.Result) {
			batchTallies = append(batchTallies, service.NewCampaignResult(r))
		})
		acc.Add(res)
		// Completed batches are always full sim.Lanes wide except the
		// campaign's final batch, which only completes error-free.
		completed := b + res.Total/sim.Lanes
		if execErr == nil {
			completed = end
		}
		rep.DoneBatches = completed - grant.FirstBatch
		rep.Counts = acc
		w.setDone(grant.LeaseID, rep.DoneBatches)

		if execErr != nil {
			if errors.Is(execErr, context.Canceled) || errors.Is(execErr, context.DeadlineExceeded) {
				if w.abrupt.Load() {
					return // crashed: say nothing, let the TTL reassign
				}
				// Graceful stop or coordinator-ordered drop: hand the
				// range back for immediate retry elsewhere.
				failCtx, failCancel := context.WithTimeout(context.Background(), 2*time.Second)
				defer failCancel()
				rep.Error = "worker shutting down"
				_ = w.client.FailLease(failCtx, grant.LeaseID, rep)
				return
			}
			rep.Error = execErr.Error()
			_ = w.client.FailLease(ctx, grant.LeaseID, rep)
			return
		}
		if end < grant.LastBatch {
			if err := w.client.LeaseProgress(leaseCtx, grant.LeaseID, rep); err != nil &&
				(errors.Is(err, ErrConflict) || errors.Is(err, ErrNotFound)) {
				return // reassigned or job gone: discard
			}
		}
		b = end
	}
	// The per-batch tallies ride only on the completion report: they are
	// what lets the coordinator store each batch by content address, and a
	// lease is only cacheable once its whole range completed.
	if len(batchTallies) == grant.LastBatch-grant.FirstBatch {
		rep.Batches = batchTallies
	}
	if err := w.client.CompleteLease(leaseCtx, grant.LeaseID, rep); err != nil &&
		!errors.Is(err, ErrConflict) && !errors.Is(err, ErrNotFound) && !w.abrupt.Load() && ctx.Err() == nil {
		// Transient completion failure: fail the lease back so the range
		// is retried rather than left to time out.
		rep.Error = "complete failed: " + err.Error()
		_ = w.client.FailLease(ctx, grant.LeaseID, rep)
	}
}
