// Command e2ebench is the repository benchmark. It starts an in-process
// sconed with the daemon's default configuration, drives it over HTTP
// through internal/service/client with closed-loop clients, checks every
// result, and prints one JSON result line:
//
//	e2ebench -workload campaign-cold -seed 1 -seconds 10 -trace 0
//
// With -trace 0 the line carries the end-to-end metrics of a timed window;
// with -trace 1 it carries the per-layer metrics of a traced run, and the
// run's spans are written as NDJSON under -workdir. README.md lists the
// workloads and metrics. The exit status is non-zero whenever a result
// fails its check.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/service"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

// errIncorrect reports a completed run whose results failed a check; the
// result line has been printed with "correct": false.
var errIncorrect = errors.New("results failed their correctness checks")

type options struct {
	w       workload
	seed    uint64
	seconds time.Duration
	trace   bool
	workDir string
	sz      sizing
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: campaign-cold, campaign-replay, analysis, campaign-dist")
	seed := fs.Uint64("seed", 1, "workload seed: every job input derives from it")
	seconds := fs.Float64("seconds", 10, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	workDir := fs.String("workdir", "", "directory for daemon state and traces (default: a new temporary directory)")
	tiny := fs.Bool("tiny", false, "self-test sizing: small jobs, fewer set-ups")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	o := options{w: w, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1, sz: fullSize}
	if *tiny {
		o.sz = tinySize
	}
	if *workDir != "" {
		if err := os.MkdirAll(*workDir, 0o755); err != nil {
			return err
		}
	}
	// Every run gets its own directory, removed at the end; only traces
	// outlive it. The removal is flushed before the run exits, so its
	// metadata writes cannot land in the next run's window.
	if o.workDir, err = os.MkdirTemp(*workDir, "run-"); err != nil {
		return err
	}
	defer func() {
		os.RemoveAll(o.workDir)
		settleDisk()
	}()

	var res result
	if o.trace {
		res, err = tracedRun(ctx, o)
	} else {
		res, err = timedRun(ctx, o)
	}
	if err != nil {
		return err
	}
	for _, f := range res.failures {
		fmt.Fprintln(stderr, "check failed:", f)
	}
	fmt.Fprintln(stdout, res.summary)
	line, err := json.Marshal(res.line())
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	if len(res.failures) > 0 {
		return errIncorrect
	}
	return nil
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything a run reports.
type result struct {
	attempted int
	failures  []error
	metrics   map[string]metric
	summary   string // human-readable line printed before the JSON
}

func (r *result) set(name, unit string, v float64) {
	if r.metrics == nil {
		r.metrics = make(map[string]metric)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) fail(err error) { r.failures = append(r.failures, err) }

// resultLine is the JSON object printed as the last line of a run.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) line() resultLine {
	return resultLine{len(r.failures) == 0, r.attempted, min(len(r.failures), r.attempted), r.metrics}
}

// setup is one set-up of the workload's daemon, ready for the window.
type setup struct {
	d       *daemon
	elapsed time.Duration
	// slowdown is the host's slowdown around the set-up (hostSpeed
	// before and after it, averaged).
	slowdown float64
	// cold holds campaign-replay's list results as simulated during
	// set-up, by list index.
	cold map[int]service.CampaignResult
}

// setUp starts a daemon on a fresh state directory. For campaign-replay it
// first simulates the job list, drains the daemon and reopens it on the same
// state (so store.Open log recovery is part of set-up). It ends with a
// warm-up cycle that fills the process-wide caches.
func setUp(ctx context.Context, o options, gen jobs) (*setup, error) {
	slow0 := hostSpeed()
	start := time.Now()
	dir, err := os.MkdirTemp(o.workDir, "state-")
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(dir, o.w.dist)
	if err != nil {
		return nil, err
	}
	s := &setup{d: d}
	if o.w.replay {
		ld := newLoader(o.w, gen, d.url)
		pre := ld.run(ctx, pass{from: 0, count: o.sz.listJobs})
		ld.close()
		s.cold = make(map[int]service.CampaignResult)
		for _, j := range pre.jobs {
			if j.err != nil {
				d.stop()
				return nil, fmt.Errorf("replay set-up: %w", j.err)
			}
			s.cold[j.index] = *j.status.Result.Campaign
		}
		if err := d.stop(); err != nil {
			return nil, fmt.Errorf("replay set-up drain: %w", err)
		}
		if s.d, err = startDaemon(dir, false); err != nil {
			return nil, err
		}
	}
	ld := newLoader(o.w, gen, s.d.url)
	defer ld.close()
	for i, req := range gen.warmup() {
		if j := ld.submit(ctx, 0, -1-i, req); j.err != nil {
			s.d.stop()
			return nil, fmt.Errorf("warm-up: %w", j.err)
		}
	}
	s.elapsed = time.Since(start)
	s.slowdown = (slow0 + hostSpeed()) / 2
	return s, nil
}

// setUpRepeated sets up n times, stopping all but the last daemon, and
// returns the last set-up with the median set-up time on the nominal host
// and the median as measured.
func setUpRepeated(ctx context.Context, o options, gen jobs, n int) (*setup, time.Duration, time.Duration, error) {
	var times, raws []time.Duration
	var s *setup
	for k := 0; k < n; k++ {
		if s != nil {
			if err := s.d.stop(); err != nil {
				return nil, 0, 0, err
			}
		}
		var err error
		if s, err = setUp(ctx, o, gen); err != nil {
			return nil, 0, 0, err
		}
		times = append(times, time.Duration(float64(s.elapsed)/s.slowdown))
		raws = append(raws, s.elapsed)
	}
	sort.Slice(times, func(a, b int) bool { return times[a] < times[b] })
	sort.Slice(raws, func(a, b int) bool { return raws[a] < raws[b] })
	return s, quantile(times, 0.5), quantile(raws, 0.5), nil
}

// replayCheck requires campaign-replay's window results to equal the cold
// results of the same list entries, bit for bit.
func replayCheck(o options, cold map[int]service.CampaignResult) func(int, service.JobStatus) error {
	if !o.w.replay {
		return nil
	}
	return func(i int, st service.JobStatus) error {
		want := cold[i%o.sz.listJobs]
		if got := *st.Result.Campaign; got != want {
			return fmt.Errorf("job %d: replayed %+v, cold run gave %+v", i, got, want)
		}
		return nil
	}
}

// timedRun measures the end-to-end metrics: set-up repeated, then one timed
// window of closed-loop jobs with tracing off and the host's speed probed
// between jobs.
func timedRun(ctx context.Context, o options) (result, error) {
	gen := jobs{w: o.w, seed: o.seed, sz: o.sz}
	s, setupTime, rawSetup, err := setUpRepeated(ctx, o, gen, o.sz.setups)
	if err != nil {
		return result{}, err
	}
	defer s.d.stop()
	ld := newLoader(o.w, gen, s.d.url)
	defer ld.close()
	ld.check = replayCheck(o, s.cold)
	ld.probe = true
	settleDisk()

	// The peak resident set is read after a fixed job count, so it covers
	// the same work on a fast and a slow run.
	rssAfter := o.w.rssJobs
	if o.sz.campaignRuns != fullSize.campaignRuns {
		rssAfter = digestJobs
	}
	before, err := scrape(ctx, ld.clients[0])
	if err != nil {
		return result{}, err
	}
	p := ld.run(ctx, pass{deadline: time.Now().Add(o.seconds), minPerClient: o.w.minJobsPerClient(rssAfter), rssAfter: rssAfter})
	after, err := scrape(ctx, ld.clients[0])
	if err != nil {
		return result{}, err
	}
	if err := ctx.Err(); err != nil {
		return result{}, err
	}
	if p.rssErr != nil {
		return result{}, p.rssErr
	}

	var res result
	res.attempted = len(p.jobs)
	digest := gate(&res, o, p.jobs, p.jobs, before, after)
	// Every time is divided by the host's slowdown around it (hostspeed.go),
	// so it reads as on the nominal host.
	nominal := func(j jobRun) time.Duration { return time.Duration(float64(j.latency) / j.slowdown) }
	lat := sorted(p.jobs, nominal)
	p50, p90 := quantile(lat, 0.5), quantile(lat, 0.9)
	beyond := 0
	var busy time.Duration
	for _, l := range lat {
		busy += l
		if l > p90 {
			beyond++
		}
	}
	raw := sorted(p.jobs, func(j jobRun) time.Duration { return j.latency })
	slow := sorted(p.jobs, func(j jobRun) time.Duration { return time.Duration(j.slowdown * float64(time.Second)) })
	res.set("jobs_per_s", "jobs/s", float64(len(lat))/busy.Seconds())
	res.set("job_latency_p50_ms", "ms", ms(p50))
	res.set("job_latency_p90_ms", "ms", ms(p90))
	res.set("setup_s", "s", setupTime.Seconds())
	res.set("peak_rss_mb", "MiB", p.rss)

	var kinds strings.Builder
	runs, pairs, traces := 0, 0, 0
	var runsLat, proveLat, leakLat time.Duration
	for _, j := range p.jobs {
		if j.err != nil {
			continue
		}
		switch r := j.status.Result; {
		case r.Campaign != nil:
			runs += r.Campaign.Total
			runsLat += nominal(j)
		case r.Prove != nil:
			pairs += r.Prove.Proved
			proveLat += nominal(j)
		case r.Leakage != nil:
			traces += r.Leakage.Fixed + r.Leakage.Random
			leakLat += nominal(j)
		}
	}
	if runsLat > 0 {
		fmt.Fprintf(&kinds, " runs_per_s=%.0f", float64(runs)/runsLat.Seconds())
	}
	if proveLat > 0 {
		fmt.Fprintf(&kinds, " prove_pairs_per_s=%.1f", float64(pairs)/proveLat.Seconds())
	}
	if leakLat > 0 {
		fmt.Fprintf(&kinds, " leakage_traces_per_s=%.0f", float64(traces)/leakLat.Seconds())
	}
	res.summary = fmt.Sprintf("e2ebench workload=%s seed=%d jobs=%d wall_s=%.2f latency_samples=%d beyond_p90=%d host_slowdown_p50=%.3f raw_latency_p50_ms=%.1f raw_latency_p90_ms=%.1f raw_setup_s=%.4f error_rate=%.4f%s result_digest=%s",
		o.w.name, o.seed, len(p.jobs), p.wall.Seconds(), len(lat), beyond, quantile(slow, 0.5).Seconds(), ms(quantile(raw, 0.5)), ms(quantile(raw, 0.9)), rawSetup.Seconds(),
		float64(min(len(res.failures), res.attempted))/float64(max(res.attempted, 1)), kinds.String(), digest)
	return res, nil
}

// gate records every job's own check failure, checks the digest over all
// jobs (against the golden value when one is recorded for this seed), and
// checks the store invariants over the window jobs, whose interval before
// and after scrape. It returns the digest.
func gate(res *result, o options, all, window []jobRun, before, after instruments) string {
	results := make(map[int]*service.JobResult)
	for _, j := range all {
		if j.err != nil {
			res.fail(j.err)
			continue
		}
		results[j.index] = j.status.Result
	}
	digest, err := resultDigest(results)
	if err != nil {
		res.fail(err)
	} else if want, ok := goldenDigest(o); ok && want != digest {
		res.fail(fmt.Errorf("result_digest %s, recorded %s for seed %d", digest, want, o.seed))
	}
	runs := campaignRuns(window)
	switch {
	case o.w.replay:
		if sim := delta(before, after, "scone_service_runs_simulated_total"); sim != 0 {
			res.fail(fmt.Errorf("campaign-replay simulated %.0f runs in the window", sim))
		}
		if rep := delta(before, after, "scone_service_runs_replayed_total"); rep != float64(runs) {
			res.fail(fmt.Errorf("campaign-replay replayed %.0f runs, want %d", rep, runs))
		}
	case runs > 0:
		if hits := delta(before, after, "scone_store_hits_total"); hits != 0 {
			res.fail(fmt.Errorf("%s hit the store %.0f times", o.w.name, hits))
		}
	}
	return digest
}

//go:embed golden.json
var goldenJSON []byte

// goldenDigest returns the recorded full-size result_digest of the run's
// workload family and seed. The campaign workloads share one job list and so
// one digest.
func goldenDigest(o options) (string, bool) {
	if o.sz.campaignRuns != fullSize.campaignRuns {
		return "", false
	}
	var golden map[string]map[string]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		return "", false
	}
	family := "campaign"
	if o.w.name == "analysis" {
		family = "analysis"
	}
	d, ok := golden[strconv.FormatUint(o.seed, 10)][family]
	return d, ok
}

// campaignRuns is the total run count of the campaign jobs among js.
func campaignRuns(js []jobRun) int {
	runs := 0
	for _, j := range js {
		if j.req.Campaign != nil {
			runs += j.req.Campaign.Runs
		}
	}
	return runs
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

// settleDisk flushes dirty file-system buffers (sync), so writes left by
// set-up or by an earlier run do not stall the daemon's own fsyncs inside
// the timed window.
func settleDisk() { syscall.Sync() }

// tracePath is where a traced run writes its spans.
func tracePath(o options) string {
	return filepath.Join(filepath.Dir(o.workDir), fmt.Sprintf("trace-%s-%d.ndjson", o.w.name, o.seed))
}
