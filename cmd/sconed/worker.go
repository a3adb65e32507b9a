package main

// Worker mode: `sconed -worker -join <coordinator-url>` turns this binary
// into a lease-pulling campaign worker. It serves no HTTP itself — the
// coordinator owns the API surface — and is safe to run in any number
// next to one coordinator: the lease protocol's determinism makes workers
// interchangeable and expendable.

import (
	"context"
	"fmt"
	"io"

	"repro/internal/service"
	"repro/internal/service/client"
)

type workerOptions struct {
	join         string
	name         string
	capacity     int
	chunkBatches int
	simWorkers   int
}

// runWorker joins the coordinator and executes leases until ctx is
// cancelled (SIGTERM/SIGINT), then stops gracefully: the current lease is
// failed back for immediate reassignment and the worker leaves the
// registry.
func runWorker(ctx context.Context, opts workerOptions, stdout io.Writer) error {
	w := client.NewWorker(client.WorkerConfig{
		Coordinator:  opts.join,
		Name:         opts.name,
		Capacity:     opts.capacity,
		ChunkBatches: opts.chunkBatches,
		SimWorkers:   opts.simWorkers,
		OnLease: func(g service.LeaseGrant) {
			fmt.Fprintf(stdout, "sconed: lease %s job %s batches [%d,%d)\n",
				g.LeaseID, g.JobID, g.FirstBatch, g.LastBatch)
		},
	})
	fmt.Fprintf(stdout, "sconed: worker joining %s\n", opts.join)
	if err := w.Run(ctx); err != nil && ctx.Err() == nil {
		return err
	}
	fmt.Fprintln(stdout, "sconed: worker stopped")
	return nil
}
