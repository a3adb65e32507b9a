package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/leakage"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/prove"
	"repro/internal/service"
	"repro/internal/service/client"
	"repro/internal/sim"
)

// daemon is an in-process sconed: cmd/sconed's default flag values and its
// registry wiring, serving /v1 on a loopback port. With dist it is a
// coordinator and also runs two lease workers of one sim worker each.
type daemon struct {
	url      string
	stateDir string
	svc      *service.Service
	srv      *http.Server
	served   chan error

	stopWorkers context.CancelFunc
	workers     sync.WaitGroup
}

// startDaemon opens the service on stateDir and starts serving.
func startDaemon(stateDir string, dist bool) (*daemon, error) {
	// One registry for the whole daemon, as cmd/sconed builds it.
	reg := obs.NewRegistry()
	sim.EnableObservability(reg)
	fault.EnableObservability(reg)
	prove.EnableObservability(reg)
	plan.EnableObservability(reg)
	leakage.EnableObservability(reg)

	svc, err := service.New(service.Config{
		Workers:             2,
		QueueDepth:          32,
		StateDir:            stateDir,
		CheckpointEveryRuns: 4096,
		Obs:                 reg,
		Dist: service.DistConfig{
			Enabled:      dist,
			LeaseBatches: 8,
			LeaseTTL:     15 * time.Second,
			MaxAttempts:  8,
		},
	})
	if err != nil {
		return nil, fmt.Errorf("start sconed: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, fmt.Errorf("start sconed: %w", err)
	}
	d := &daemon{
		url:      "http://" + ln.Addr().String(),
		stateDir: stateDir,
		svc:      svc,
		srv:      &http.Server{Handler: svc.Handler()},
		served:   make(chan error, 1),
	}
	go func() { d.served <- d.srv.Serve(ln) }()
	if dist {
		if err := d.startWorkers(2); err != nil {
			d.stop()
			return nil, err
		}
	}
	return d, nil
}

// startWorkers runs n lease workers against the coordinator and waits until
// all of them have joined.
func (d *daemon) startWorkers(n int) error {
	ctx, cancel := context.WithCancel(context.Background())
	d.stopWorkers = cancel
	for i := 0; i < n; i++ {
		w := client.NewWorker(client.WorkerConfig{
			Coordinator: d.url,
			Name:        fmt.Sprintf("bench-%d", i),
			SimWorkers:  1,
		})
		d.workers.Add(1)
		go func() {
			defer d.workers.Done()
			_ = w.Run(ctx) // returns nil on shutdown; a join failure shows as a missing worker below
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(d.svc.Workers()) < n {
		if time.Now().After(deadline) {
			return fmt.Errorf("start workers: %d of %d joined", len(d.svc.Workers()), n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

// stop shuts the daemon down the way sconed does on SIGTERM: workers leave,
// the service drains (closing the result store durably) and the HTTP server
// stops. It returns once every goroutine it started has exited.
func (d *daemon) stop() error {
	if d.stopWorkers != nil {
		d.stopWorkers()
		d.workers.Wait()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	drainErr := d.svc.Drain(ctx)
	shutErr := d.srv.Shutdown(ctx)
	if err := <-d.served; !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("sconed serve: %w", err)
	}
	if drainErr != nil {
		return drainErr
	}
	return shutErr
}
