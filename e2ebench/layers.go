package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/leakage"
	"repro/internal/power"
	"repro/internal/prove"
	"repro/internal/rng"
	"repro/internal/service"
	"repro/internal/service/client"
	"repro/internal/sim"
	"repro/internal/spn"
	"repro/internal/store"
)

// instruments is one scrape of the daemon's /v1/metrics exposition: every
// sample by metric name, label sets summed, histogram buckets dropped.
type instruments map[string]float64

func scrape(ctx context.Context, cl *client.Client) (instruments, error) {
	text, err := cl.MetricsText(ctx)
	if err != nil {
		return nil, fmt.Errorf("scrape /v1/metrics: %w", err)
	}
	m := make(instruments)
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if b := strings.IndexByte(name, '{'); b >= 0 {
			name = name[:b]
		}
		if strings.HasSuffix(name, "_bucket") {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("scrape /v1/metrics: %q: %w", line, err)
		}
		m[name] += v
	}
	return m, nil
}

// delta is after[name] - before[name].
func delta(before, after instruments, name string) float64 { return after[name] - before[name] }

// meanDelta is a histogram's mean observation over the interval (0 when
// nothing was observed).
func meanDelta(before, after instruments, hist string) float64 {
	n := delta(before, after, hist+"_count")
	if n == 0 {
		return 0
	}
	return delta(before, after, hist+"_sum") / n
}

// layerRun replays a traced pass's jobs directly against the layers'
// public functions, under spans, and cross-checks every direct result
// against what the service returned for the same job.
type layerRun struct {
	tr   *tracer
	sz   sizing
	work string // scratch directory for store copies

	failures []error

	// direct[i] is the span ID of job i's direct-replay root: the layer
	// calls the service makes for that job (build, address, store, execute
	// or prove/leakage steps).
	direct map[int]int
	// execCache memoises direct campaign executions by spec, so a
	// replayed job list executes each distinct campaign once.
	execCache map[string]execution

	simNS, simLanes   int64
	spnNS, spnRuns    int64
	p1NS, pNNS        int64 // summed ExecuteBatches spans at Parallelism 1 / NumCPU
	p1Runs, pNRuns    int64
	pNBatches         int64
	selfNS            int64 // p1 span minus the isolated sim and spn time of the same jobs
	getNS, gets       int64
	putNS, puts       int64
	syncNS, syncs     int64
	pairNS, pairs     int64 // prove.pairs spans and the pairs they proved
	stepNS, steps     int64 // leakage.steps spans and the batches they ran
	scratch, replayed *store.Store
}

// execution is one direct campaign run: the total and each batch's tally.
type execution struct {
	res     fault.Result
	batches []store.Counts
}

// probeSink keeps the reference-cipher probe's results live.
var probeSink uint64

func (l *layerRun) fail(err error) { l.failures = append(l.failures, err) }

// replayJobs runs the direct replay of every job of the pass. Reference
// jobs carry negative indices: they are never replayed from the store and
// get no isolated probes.
func (l *layerRun) replayJobs(ctx context.Context, w workload, jobs []jobRun, stateDir string) error {
	l.direct = make(map[int]int)
	l.execCache = make(map[string]execution)
	sc, err := store.Open(filepath.Join(l.work, "scratch.log"))
	if err != nil {
		return fmt.Errorf("scratch store: %w", err)
	}
	l.scratch = sc
	defer sc.Close()
	if w.replay {
		// Replayed gets read a copy of the daemon's own log.
		path, err := copyLog(stateDir, l.work)
		if err != nil {
			return err
		}
		if l.replayed, err = store.Open(path); err != nil {
			return fmt.Errorf("open store copy: %w", err)
		}
		defer l.replayed.Close()
	}
	for k, j := range jobs {
		if j.err != nil || j.status.Result == nil {
			continue // already counted as failed; nothing to compare against
		}
		root := l.tr.begin("direct", j.index, 0)
		l.direct[j.index] = root
		probe := k < l.sz.layerJobs && j.index >= 0
		var err error
		switch j.req.Kind {
		case service.KindCampaign:
			err = l.campaign(ctx, j, root, probe, w.replay && j.index >= 0)
		case service.KindProve:
			err = l.prove(j, root)
		case service.KindLeakage:
			err = l.leakage(j, root, probe)
		}
		l.tr.end(root)
		if err != nil {
			return fmt.Errorf("replay job %d: %w", j.index, err)
		}
	}
	return nil
}

// campaign replays one campaign job: design build, content address, the
// store traffic the service generates for it (reads from the daemon's log
// when the service replayed the job, else misses and writes on a scratch
// store), and the engine execution. With probe set it also times the job at
// Parallelism 1 and replays its batches through the isolated simulator and
// reference cipher.
func (l *layerRun) campaign(ctx context.Context, j jobRun, root int, probe, replayed bool) error {
	// BuildCampaign is BuildDesign plus fault resolution, at the service's
	// default engine configuration.
	var camp *fault.Campaign
	var err error
	l.tr.do("core.build", j.index, root, func() {
		camp, err = service.BuildCampaign(j.req.Design, j.req.Campaign, service.EngineDefaults{})
	})
	if err != nil {
		return err
	}
	d := camp.Design
	var digest store.Digest
	l.tr.do("store.address", j.index, root, func() { digest, err = campaignDigest(camp) })
	if err != nil {
		return err
	}
	batches := camp.NumBatches()
	st := l.scratch
	if replayed {
		st = l.replayed
	}
	var fromStore service.CampaignResult
	t := time.Now()
	l.tr.do("store.get", j.index, root, func() {
		for b := 0; b < batches; b++ {
			if c, ok := st.GetBatch(store.BatchKey{Campaign: digest, Batch: b, Runs: camp.BatchRuns(b)}); ok {
				fromStore.Accumulate(service.CampaignResult{Total: c.Total, Ineffective: c.Ineffective, Detected: c.Detected, Effective: c.Effective, Corrected: c.Corrected})
			}
		}
	})
	l.getNS += time.Since(t).Nanoseconds()
	l.gets += int64(batches)
	if replayed && fromStore != *j.status.Result.Campaign {
		l.fail(fmt.Errorf("job %d: stored batches sum to %+v, service replayed %+v", j.index, fromStore, *j.status.Result.Campaign))
	}

	key, _ := json.Marshal(j.req)
	ex, cached := l.execCache[string(key)]
	if !cached {
		// A replayed job's direct path has no execution: the service
		// simulated nothing for it, so the cross-check run stays outside.
		parent := root
		if replayed {
			parent = 0
		}
		ex.batches = make([]store.Counts, batches)
		id := l.tr.begin("fault.execute", j.index, parent)
		t := time.Now()
		ex.res, err = camp.ExecuteBatchesFunc(ctx, 0, batches, nil, func(b int, r fault.Result) {
			ex.batches[b] = store.Counts{Total: r.Total, Ineffective: r.Ineffective(), Detected: r.Detected(), Effective: r.Effective(), Corrected: r.Corrected()}
		})
		l.pNNS += time.Since(t).Nanoseconds()
		l.pNRuns += int64(ex.res.Total)
		l.pNBatches += int64(batches)
		l.tr.end(id)
		if err != nil {
			return err
		}
		l.execCache[string(key)] = ex
	}
	res := ex.res
	if got := service.NewCampaignResult(res); got != *j.status.Result.Campaign {
		l.fail(fmt.Errorf("job %d: direct fault.Campaign tally %+v, service %+v", j.index, got, *j.status.Result.Campaign))
	}
	if !replayed {
		// The service stores each fresh batch and syncs at its checkpoint
		// cadence; replay the same writes into a scratch store.
		l.storeWrites(j.index, root, digest, ex.batches)
	}
	if !probe || cached {
		return nil
	}

	// Isolated probes, outside the job's direct path.
	serial := *camp
	serial.Engine = fault.EngineConfig{Parallelism: 1}
	t = time.Now()
	var r1 fault.Result
	l.tr.do("fault.execute_p1", j.index, 0, func() { r1, err = serial.ExecuteBatches(ctx, 0, batches, nil) })
	p1 := time.Since(t).Nanoseconds()
	if err != nil {
		return err
	}
	if r1 != res {
		l.fail(fmt.Errorf("job %d: tally differs between Parallelism 1 and %d", j.index, runtime.GOMAXPROCS(0)))
	}
	simNS, err := l.simProbe(j.index, d, camp.Faults, batches, camp.Seed)
	if err != nil {
		return err
	}
	spnNS := l.spnProbe(j.index, d, camp.Key, camp.Runs, camp.Seed)
	l.p1NS += p1
	l.p1Runs += int64(r1.Total)
	l.selfNS += p1 - simNS - spnNS
	return nil
}

// storeWrites replays a cold job's store writes: one PutBatch per batch and
// a Sync at every 4096-run checkpoint, as the daemon's default configuration
// does.
func (l *layerRun) storeWrites(index, root int, digest store.Digest, batches []store.Counts) {
	chunk := 4096 / sim.Lanes
	for b := 0; b < len(batches); b += chunk {
		end := min(b+chunk, len(batches))
		t := time.Now()
		l.tr.do("store.put", index, root, func() {
			for k := b; k < end; k++ {
				c := batches[k]
				if err := l.scratch.PutBatch(store.BatchKey{Campaign: digest, Batch: k, Runs: c.Total}, c); err != nil {
					l.fail(fmt.Errorf("job %d: scratch PutBatch: %w", index, err))
				}
			}
		})
		l.putNS += time.Since(t).Nanoseconds()
		l.puts += int64(end - b)
		t = time.Now()
		l.tr.do("store.sync", index, root, func() {
			if err := l.scratch.Sync(); err != nil {
				l.fail(fmt.Errorf("job %d: scratch Sync: %w", index, err))
			}
		})
		l.syncNS += time.Since(t).Nanoseconds()
		l.syncs++
	}
}

// simProbe runs batches 64-lane EncryptBatch calls of the design under the
// job's faults on one goroutine, with seeded inputs, and returns the time.
func (l *layerRun) simProbe(index int, d *core.Design, faults []fault.Fault, batches int, seed uint64) (int64, error) {
	r, err := core.NewRunner(d)
	if err != nil {
		return 0, err
	}
	if len(faults) > 0 {
		r.S.SetInjector(fault.NewInjector(faults...))
	}
	x := rng.NewXoshiro(seed)
	pts := make([]uint64, sim.Lanes)
	garbage := make([]uint64, sim.Lanes)
	var lambda core.LambdaFunc
	if d.LambdaWidth > 0 {
		cycles := make([][]uint64, d.CyclesPerRun())
		for c := range cycles {
			cycles[c] = make([]uint64, sim.Lanes)
			for i := range cycles[c] {
				cycles[c][i] = x.Bits(d.LambdaWidth)
			}
		}
		if d.Opts.Entropy == core.EntropyPrime {
			lambda = core.LambdaConst(cycles[0])
		} else {
			lambda = func(c int) []uint64 { return cycles[c] }
		}
	}
	key := spn.KeyState{uint64(defaultKey[0]), uint64(defaultKey[1])}
	var ns int64
	id := l.tr.begin("sim.encrypt_batch", index, 0)
	for b := 0; b < batches; b++ {
		for i := range pts {
			pts[i], garbage[i] = x.Uint64(), x.Uint64()
		}
		t := time.Now()
		r.EncryptBatchReuse(pts, key, garbage, lambda)
		ns += time.Since(t).Nanoseconds()
	}
	l.tr.end(id)
	l.simNS += ns
	l.simLanes += int64(batches * sim.Lanes)
	return ns, nil
}

// spnProbe classifies runs plaintexts through the reference cipher and
// returns the time.
func (l *layerRun) spnProbe(index int, d *core.Design, key spn.KeyState, runs int, seed uint64) int64 {
	ref := d.Spec.NewRefEncrypter(key)
	x := rng.NewXoshiro(seed ^ 0x5deece66d)
	pts := make([]uint64, runs)
	for i := range pts {
		pts[i] = x.Uint64()
	}
	var sink uint64
	id := l.tr.begin("spn.encrypt", index, 0)
	t := time.Now()
	for _, pt := range pts {
		sink ^= ref.Encrypt(pt)
	}
	ns := time.Since(t).Nanoseconds()
	l.tr.end(id)
	probeSink = sink
	l.spnNS += ns
	l.spnRuns += int64(runs)
	return ns
}

// prove replays a prove job: build, analyzer construction and every
// (location, model) pair, compared verdict for verdict with the service.
func (l *layerRun) prove(j jobRun, root int) error {
	var d *core.Design
	var err error
	l.tr.do("core.build", j.index, root, func() { d, err = service.BuildDesign(j.req.Design) })
	if err != nil {
		return err
	}
	var a *prove.Analyzer
	l.tr.do("prove.analyzer", j.index, root, func() { a, err = prove.NewAnalyzer(d.Mod, 0) })
	if err != nil {
		return err
	}
	ms := prove.Models()
	if p := j.req.Prove; p != nil && len(p.Models) > 0 {
		var picked []fault.Model
		for _, m := range ms {
			for _, name := range p.Models {
				if m.String() == name {
					picked = append(picked, m)
				}
			}
		}
		ms = picked
	}
	got := &service.ProveResult{Module: d.Mod.Name, Budget: a.Budget()}
	locs := a.Locations()
	id := l.tr.begin("prove.pairs", j.index, root)
	t := time.Now()
	for _, loc := range locs {
		for _, m := range ms {
			lr, err := a.Prove(loc, m)
			if err != nil {
				l.tr.end(id)
				return err
			}
			got.Accumulate(service.NewProveLocation(lr))
		}
	}
	l.pairNS += time.Since(t).Nanoseconds()
	l.pairs += int64(len(locs) * len(ms))
	l.tr.end(id)
	if !sameJSON(got, j.status.Result.Prove) {
		l.fail(fmt.Errorf("job %d: direct prover result differs from the service's", j.index))
	}
	return nil
}

// leakage replays a leakage job batch by batch and requires bit-identical
// t-statistics. With probe set it also times the design's simulation and
// reference cipher over the job's traces.
func (l *layerRun) leakage(j jobRun, root int, probe bool) error {
	ls := j.req.Leakage
	var d *core.Design
	var err error
	l.tr.do("core.build", j.index, root, func() { d, err = service.BuildDesign(j.req.Design) })
	if err != nil {
		return err
	}
	model, _ := power.ParseModel(ls.Model)
	var ev *leakage.Evaluator
	l.tr.do("leakage.new", j.index, root, func() {
		ev, err = leakage.New(leakage.Config{
			Design:  d,
			Key:     spn.KeyState{uint64(ls.Key[0]), uint64(ls.Key[1])},
			Model:   model,
			Pairs:   ls.Pairs,
			Seed:    uint64(ls.Seed),
			FixedPT: uint64(ls.FixedPT),
		})
	})
	if err != nil {
		return err
	}
	id := l.tr.begin("leakage.steps", j.index, root)
	t := time.Now()
	for !ev.Done() {
		ev.Step()
	}
	l.stepNS += time.Since(t).Nanoseconds()
	l.steps += int64(ev.NumBatches())
	l.tr.end(id)
	if !sameJSON(service.NewLeakageResult(ev.Result()), j.status.Result.Leakage) {
		l.fail(fmt.Errorf("job %d: direct leakage evaluation differs from the service's", j.index))
	}
	if probe {
		batches := ev.NumBatches()
		if _, err := l.simProbe(j.index, d, nil, batches, uint64(ls.Seed)); err != nil {
			return err
		}
		l.spnProbe(j.index, d, spn.KeyState{uint64(ls.Key[0]), uint64(ls.Key[1])}, batches*sim.Lanes, uint64(ls.Seed))
	}
	return nil
}

// campaignDigest is the campaign's content address in the result store: the
// netlist's canonical text, the engine version, key, seed and fault points.
func campaignDigest(camp *fault.Campaign) (store.Digest, error) {
	var buf bytes.Buffer
	if err := camp.Design.Mod.WriteText(&buf); err != nil {
		return store.Digest{}, err
	}
	k := store.CampaignKey{
		Netlist: store.HashBytes(buf.Bytes()),
		Engine:  camp.EngineID(),
		Key:     [2]uint64{camp.Key[0], camp.Key[1]},
		Seed:    camp.Seed,
	}
	for _, f := range camp.Faults {
		k.Faults = append(k.Faults, store.FaultPoint{
			Net:       uint32(f.Net),
			Model:     uint8(f.Model),
			FromCycle: int32(f.FromCycle),
			ToCycle:   int32(f.ToCycle),
			Lanes:     f.Lanes,
		})
	}
	return k.Digest(), nil
}

// openTimes copies the daemon's result log and times store.Open on the copy
// n times, returning the mean.
func (l *layerRun) openTimes(stateDir string, n int) (time.Duration, error) {
	var total time.Duration
	for i := 0; i < n; i++ {
		path, err := copyLog(stateDir, l.work)
		if err != nil {
			return 0, err
		}
		var s *store.Store
		l.tr.do("store.open", -1, 0, func() {
			t := time.Now()
			s, err = store.Open(path)
			total += time.Since(t)
		})
		if err != nil {
			return 0, fmt.Errorf("open store copy: %w", err)
		}
		if err := s.Close(); err != nil {
			return 0, err
		}
	}
	return total / time.Duration(n), nil
}

// copyLog copies stateDir/results.log into dir and returns the copy's path.
func copyLog(stateDir, dir string) (string, error) {
	src, err := os.Open(filepath.Join(stateDir, "results.log"))
	if err != nil {
		return "", fmt.Errorf("copy result log: %w", err)
	}
	defer src.Close()
	dst, err := os.CreateTemp(dir, "results-*.log")
	if err != nil {
		return "", fmt.Errorf("copy result log: %w", err)
	}
	if _, err := io.Copy(dst, src); err != nil {
		dst.Close()
		return "", fmt.Errorf("copy result log: %w", err)
	}
	return dst.Name(), dst.Close()
}

func sameJSON(a, b any) bool {
	x, err1 := json.Marshal(a)
	y, err2 := json.Marshal(b)
	return err1 == nil && err2 == nil && bytes.Equal(x, y)
}
