package service

import "testing"

// benchmarkJob runs req to completion once per iteration on a service with
// a state dir, so the timing includes every persisted checkpoint, and
// reports the checkpoints each job wrote.
func benchmarkJob(b *testing.B, req JobRequest) {
	s, err := New(Config{Workers: 1, StateDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := s.Submit(req)
		if err != nil {
			b.Fatal(err)
		}
		events, stop, err := s.Watch(st.ID)
		if err != nil {
			b.Fatal(err)
		}
		for range events {
		}
		stop()
		if final, err := s.Get(st.ID); err != nil || final.State != StateDone {
			b.Fatalf("job ended %s (%s): %v", final.State, final.Error, err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(s.Metrics.Checkpoints.Value())/float64(b.N), "checkpoints/op")
}

// BenchmarkProveJob is one full PRESENT-80 three-in-one proof: 384
// (location, model) pairs through the service's checkpoint path.
func BenchmarkProveJob(b *testing.B) {
	benchmarkJob(b, JobRequest{
		Kind:   KindProve,
		Design: DesignSpec{Cipher: "present80", Scheme: "three-in-one", Entropy: "prime"},
	})
}

// BenchmarkLeakageJob is one 1024-pair masked TVLA evaluation: 32 trace
// batches through the service's checkpoint path.
func BenchmarkLeakageJob(b *testing.B) {
	benchmarkJob(b, JobRequest{
		Kind:   KindLeakage,
		Design: DesignSpec{Cipher: "present80", Scheme: "masked", Entropy: "prime"},
		Leakage: &LeakageSpec{
			Pairs: 1024, Seed: 0x5C09E2021, Key: testKey, Model: "hd", FixedPT: 0x0123456789ABCDEF,
		},
	})
}

// BenchmarkLeakageJobUnmasked is the same evaluation on the unmasked
// three-in-one core.
func BenchmarkLeakageJobUnmasked(b *testing.B) {
	benchmarkJob(b, JobRequest{
		Kind:   KindLeakage,
		Design: DesignSpec{Cipher: "present80", Scheme: "three-in-one", Entropy: "prime"},
		Leakage: &LeakageSpec{
			Pairs: 1024, Seed: 0x5C09E2021, Key: testKey, Model: "hd", FixedPT: 0x0123456789ABCDEF,
		},
	})
}
