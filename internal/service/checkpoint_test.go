package service

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/leakage"
	"repro/internal/obs"
	"repro/internal/prove"
)

// TestRunChunkedCheckpointBoundaries pins the chunk walker both unit
// kinds share: saves land on multiples of the cadence and after the last
// unit, a stop saves exactly the completed prefix, and no prefix is saved
// twice.
func TestRunChunkedCheckpointBoundaries(t *testing.T) {
	errStep := errors.New("step failed")
	cases := []struct {
		name         string
		start, total int
		failAt       int // unit whose step fails; -1 for none
		cancelAt     int // unit whose step cancels the context; -1 for none
		wantSaves    []int
		wantErr      error
	}{
		{"fresh", 0, 70, -1, -1, []int{32, 64, 70}, nil},
		{"exact multiple", 0, 64, -1, -1, []int{32, 64}, nil},
		{"resumed off boundary", 5, 70, -1, -1, []int{32, 64, 70}, nil},
		{"nothing left", 70, 70, -1, -1, nil, nil},
		{"cancel mid-chunk", 0, 70, -1, 40, []int{32, 41}, context.Canceled},
		{"cancel on boundary", 0, 70, -1, 31, []int{32}, context.Canceled},
		{"step error mid-chunk", 0, 70, 33, -1, []int{32, 33}, errStep},
		{"step error after boundary", 0, 70, 32, -1, []int{32}, errStep},
		{"step error first unit", 5, 70, 5, -1, nil, errStep},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var saves []int
			err := runChunked(ctx, tc.start, tc.total, 32, func(unit int) error {
				if unit == tc.failAt {
					return errStep
				}
				if unit == tc.cancelAt {
					cancel()
				}
				return nil
			}, func(next int) { saves = append(saves, next) })
			if !errors.Is(err, tc.wantErr) || (tc.wantErr == nil && err != nil) {
				t.Errorf("err = %v, want %v", err, tc.wantErr)
			}
			if !reflect.DeepEqual(saves, tc.wantSaves) {
				t.Errorf("saves at %v, want %v", saves, tc.wantSaves)
			}
		})
	}
}

// TestProveCheckpointCadence: a full PRESENT-80 proof (384 pairs)
// persists ceil(384/32) = 12 checkpoints, and a drain persists exactly the
// pairs the process proved.
func TestProveCheckpointCadence(t *testing.T) {
	req := JobRequest{
		Kind:   KindProve,
		Design: DesignSpec{Cipher: "present80", Scheme: "three-in-one", Entropy: "prime"},
	}
	checkCadence(t, req, 384, 12)

	reg := obs.NewRegistry()
	prove.EnableObservability(reg)
	defer prove.EnableObservability(nil)
	rec, checkpoints := drainAfterFirstChunk(t, req, reg, proveCheckpointPairs)
	cp := rec.Checkpoint.Prove
	if cp == nil {
		t.Fatal("drained record has no prove checkpoint")
	}
	proved := int(reg.NewCounter("scone_prove_locations_total", "").Value())
	t.Logf("drained after %d of 384 pairs, %d checkpoints", proved, checkpoints)
	if cp.NextPair != proved || len(cp.Done) != proved {
		t.Errorf("drained checkpoint next_pair %d with %d done, want the %d pairs proved", cp.NextPair, len(cp.Done), proved)
	}
	if want := chunksCovering(proved, proveCheckpointPairs); checkpoints != want {
		t.Errorf("%d pairs proved before the drain persisted %d checkpoints, want %d", proved, checkpoints, want)
	}
}

// TestLeakageCheckpointCadence: a 1024-pair evaluation (32 trace batches)
// persists 32/8 = 4 checkpoints, and a drain persists exactly the batches
// the process simulated.
func TestLeakageCheckpointCadence(t *testing.T) {
	req := JobRequest{
		Kind:   KindLeakage,
		Design: DesignSpec{Cipher: "present80", Scheme: "three-in-one", Entropy: "prime"},
		Leakage: &LeakageSpec{
			Pairs: 1024, Seed: 0x5C09E2021, Key: testKey, Model: "hd", FixedPT: 0x0123456789ABCDEF,
		},
	}
	checkCadence(t, req, 1024, 4)

	reg := obs.NewRegistry()
	leakage.EnableObservability(reg)
	defer leakage.EnableObservability(nil)
	rec, checkpoints := drainAfterFirstChunk(t, req, reg, leakageCheckpointBatches*leakage.PairsPerBatch)
	cp := rec.Checkpoint.Leakage
	if cp == nil {
		t.Fatal("drained record has no leakage checkpoint")
	}
	simulated := int(reg.NewCounter("scone_leakage_batches_total", "").Value())
	t.Logf("drained after %d of 32 batches, %d checkpoints", simulated, checkpoints)
	if cp.NextBatch != simulated {
		t.Errorf("drained checkpoint next_batch %d, want the %d batches simulated", cp.NextBatch, simulated)
	}
	if want := chunksCovering(simulated, leakageCheckpointBatches); checkpoints != want {
		t.Errorf("%d batches simulated before the drain persisted %d checkpoints, want %d", simulated, checkpoints, want)
	}
}

// checkCadence runs req uninterrupted on a service with a state dir and
// checks it covered total units in exactly want checkpoints.
func checkCadence(t *testing.T, req JobRequest, total int, want int64) {
	t.Helper()
	s := newTestService(t, Config{Workers: 1, StateDir: t.TempDir()})
	st, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, s, st.ID)
	if final.State != StateDone {
		t.Fatalf("job ended %s (%s)", final.State, final.Error)
	}
	if final.Progress == nil || final.Progress.Done != total || final.Progress.Total != total {
		t.Fatalf("final progress %+v, want %d/%d", final.Progress, total, total)
	}
	if got := s.Metrics.Checkpoints.Value(); got != want {
		t.Errorf("checkpoints_total = %d, want %d", got, want)
	}
}

// drainAfterFirstChunk submits req to a state-dir service on reg, drains
// it once progress reaches firstChunk, and returns the persisted record
// and the checkpoints the service wrote.
func drainAfterFirstChunk(t *testing.T, req JobRequest, reg *obs.Registry, firstChunk int) (jobRecord, int) {
	t.Helper()
	dir := t.TempDir()
	s := newTestService(t, Config{Workers: 1, StateDir: dir, Obs: reg})
	st, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		cur, err := s.Get(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.State.Terminal() {
			t.Fatalf("job finished before the drain: %s (%s)", cur.State, cur.Error)
		}
		if cur.Progress != nil && cur.Progress.Done >= firstChunk {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first chunk not checkpointed before the deadline")
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "jobs", st.ID+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var rec jobRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.State != StateQueued || rec.Checkpoint == nil {
		t.Fatalf("drained record is %s with checkpoint %v, want queued with a checkpoint", rec.State, rec.Checkpoint)
	}
	return rec, int(s.Metrics.Checkpoints.Value())
}

// chunksCovering is the number of checkpoints a fresh job writes for its
// first done units when it stops there: one per full chunk plus one for a
// partial chunk.
func chunksCovering(done, every int) int {
	return (done + every - 1) / every
}
