package service

import (
	"runtime"
	"testing"
)

// liveHeap returns the heap still reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestSoakHeapStaysFlat submits soakJobs small PRESENT-80 three-in-one
// campaigns and requires the live heap to stop growing once the service is
// warm. Every job builds and compiles its own design, so a job that leaves
// its design or compiled program reachable after it ends grows the heap by
// a few hundred KiB per job; the bound allows only per-job bookkeeping
// (the finished job records).
func TestSoakHeapStaysFlat(t *testing.T) {
	const (
		soakJobs  = 500
		wave      = 100 // jobs submitted before each wait; the first wave warms up
		maxGrowth = 8 << 20
	)
	s := newTestService(t, Config{Workers: 1, QueueDepth: wave, SimWorkers: 1})
	var warm uint64
	for submitted := 0; submitted < soakJobs; {
		var last string
		for i := 0; i < wave; i++ {
			submitted++
			req := campaignRequest(64, "prime")
			req.Campaign.Seed = U64(submitted)
			st, err := s.Submit(req)
			if err != nil {
				t.Fatal(err)
			}
			last = st.ID
		}
		// One worker runs its queue in order, so the wave's last job
		// finishing means the whole wave has.
		if st := waitTerminal(t, s, last); st.State != StateDone {
			t.Fatalf("job %s: %s (%s)", last, st.State, st.Error)
		}
		if warm == 0 {
			warm = liveHeap()
		}
	}
	for _, st := range s.List() {
		if st.State != StateDone {
			t.Fatalf("job %s: %s (%s)", st.ID, st.State, st.Error)
		}
	}
	end := liveHeap()
	if growth := int64(end) - int64(warm); growth > maxGrowth {
		t.Fatalf("live heap grew %.1f MiB over jobs %d..%d (%.1f -> %.1f MiB), bound %d MiB",
			float64(growth)/(1<<20), wave, soakJobs, float64(warm)/(1<<20), float64(end)/(1<<20), maxGrowth>>20)
	}
	t.Logf("live heap %.2f -> %.2f MiB over jobs %d..%d", float64(warm)/(1<<20), float64(end)/(1<<20), wave, soakJobs)
}
