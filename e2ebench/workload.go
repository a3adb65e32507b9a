package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/rng"
	"repro/internal/service"
)

// sizing fixes how much work one job and one run carry. fullSize is what the
// benchmark measures; tinySize keeps the self-test fast.
type sizing struct {
	// campaignRuns is the run count of every campaign job.
	campaignRuns int
	// listJobs is the length of campaign-replay's job list, simulated
	// during set-up and resubmitted cyclically in the timed window.
	listJobs int
	// leakagePairs is the fixed/random pair count of every leakage job.
	leakagePairs int
	// proveModels restricts the prove jobs' fault models; nil proves all
	// three (the full 384-pair PRESENT-80 proof).
	proveModels []string
	// setups is how many times set-up is repeated; setup_s is the median.
	setups int
	// layerJobs caps the jobs whose work the traced run replays through
	// the isolated sim/spn/store probes.
	layerJobs int
}

var fullSize = sizing{
	campaignRuns: 16384,
	listJobs:     12,
	leakagePairs: 1024,
	setups:       7,
	layerJobs:    6,
}

var tinySize = sizing{
	campaignRuns: 512,
	listJobs:     6,
	leakagePairs: 64,
	proveModels:  []string{"stuck-at-0"},
	setups:       2,
	layerJobs:    2,
}

// digestJobs is how many leading jobs (by index) enter result_digest. Every
// client runs whole cycles until this many indices are covered, so the
// digest is a function of the seed alone. The campaign workloads generate
// the same job list from one seed, so their digests agree.
const digestJobs = 6

// defaultKey is sconectl's default cipher key.
var defaultKey = [2]service.U64{0x0123456789ABCDEF, 0x8421}

// defaultFixedPT is sconectl's default fixed-class plaintext for leakage.
const defaultFixedPT = service.U64(0x0123456789ABCDEF)

var (
	entropies = []string{"prime", "per-round", "per-sbox"}
	models    = []string{"stuck-at-0", "stuck-at-1", "bit-flip"}
	branches  = []string{"actual", "redundant"}
)

// Job streams keep the generated inputs of different purposes apart, so a
// warm-up job can never share a content address with a measured one.
const (
	streamJobs      = 0
	streamWarmup    = 1
	streamReference = 2
)

// workload is one traffic mix.
type workload struct {
	name string
	// clients is the number of closed-loop clients (HTTP connections).
	clients int
	// cycle is the job-mix period: every client stops only after a whole
	// number of cycles, so each run measures the same mix.
	cycle int
	// dist runs campaigns through a coordinator and two in-process
	// lease workers.
	dist bool
	// replay pre-populates the result store with the job list during
	// set-up and reopens the daemon on that state before the window.
	replay bool
	// traceJobs is the job count of each fixed-length pass of a traced
	// run (a multiple of clients×cycle).
	traceJobs int
	// rssJobs is the job count after which the timed window reads the
	// peak resident set, so peak_rss_mb covers the same work however fast
	// the run is (the window runs at least this many jobs).
	rssJobs int
}

// workloads are the traffic mixes; README.md gives each one's rationale.
// campaign-replay and campaign-dist are not in BENCHMARK.json (README.md
// says why) but stay runnable by name.
var workloads = []workload{
	{name: "campaign-cold", clients: 1, cycle: 3, traceJobs: 48, rssJobs: 150},
	{name: "campaign-replay", clients: 1, cycle: 3, replay: true, traceJobs: 192, rssJobs: 300},
	{name: "analysis", clients: 1, cycle: 3, traceJobs: 12, rssJobs: 36},
	{name: "campaign-dist", clients: 1, cycle: 3, dist: true, traceJobs: 6, rssJobs: 6},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// minJobsPerClient is the fewest jobs a client runs before it may stop: whole
// cycles covering every digested job index and at least atLeast jobs in all.
func (w workload) minJobsPerClient(atLeast int) int {
	per := (max(digestJobs, atLeast) + w.clients - 1) / w.clients
	return (per + w.cycle - 1) / w.cycle * w.cycle
}

// jobs generates a workload's job list from its seed. Job i is a pure
// function of (seed, stream, i).
type jobs struct {
	w    workload
	seed uint64
	sz   sizing
}

func (g jobs) draw(stream, i int) *rng.Xoshiro {
	return rng.NewXoshiro(g.seed ^ uint64(stream)<<60 ^ (uint64(i)+1)*0x9E3779B97F4A7C15)
}

// job returns the request a client submits for job index i of the timed
// window or a traced pass.
func (g jobs) job(i int) service.JobRequest {
	switch {
	case g.w.name == "analysis":
		return g.analysis(streamJobs, i)
	case g.w.replay:
		return g.campaign(streamJobs, i%g.sz.listJobs)
	default:
		return g.campaign(streamJobs, i)
	}
}

// warmup returns the set-up jobs that fill the process-wide caches before
// the window: one whole cycle drawn from a stream the window never uses.
func (g jobs) warmup() []service.JobRequest {
	out := make([]service.JobRequest, g.w.cycle)
	for i := range out {
		if g.w.name == "analysis" {
			out[i] = g.analysis(streamWarmup, i)
			if out[i].Leakage != nil {
				out[i].Leakage.Pairs = 64
			}
			continue
		}
		out[i] = g.campaign(streamWarmup, i)
		out[i].Campaign.Runs = 4096
	}
	return out
}

// references returns one job of each kind the given jobs lack: a cold
// campaign (also for campaign-replay, whose replayed jobs write nothing to
// the store), a prove job and an unmasked leakage job. A traced run replays
// them after its instrumented pass, so every per-layer time is measured on
// every workload; they enter no instrument delta.
func (g jobs) references(have []jobRun) []service.JobRequest {
	kinds := make(map[service.Kind]bool)
	for _, j := range have {
		kinds[j.req.Kind] = true
	}
	var out []service.JobRequest
	if !kinds[service.KindCampaign] || g.w.replay {
		out = append(out, g.campaign(streamReference, 0))
	}
	if !kinds[service.KindProve] {
		out = append(out, g.analysis(streamReference, 0))
	}
	if !kinds[service.KindLeakage] {
		out = append(out, g.analysis(streamReference, 1))
	}
	return out
}

// campaign is a PRESENT-80 three-in-one campaign with one seeded single
// fault, a distinct seed and default engine fields, as sconectl submit sends
// it. The entropy variant rotates with the index.
func (g jobs) campaign(stream, i int) service.JobRequest {
	x := g.draw(stream, i)
	f := service.FaultSpec{
		Branch: branches[x.Intn(len(branches))],
		Sbox:   x.Intn(16),
		Bit:    x.Intn(4),
		Model:  models[x.Intn(len(models))],
	}
	return service.JobRequest{
		Kind:   service.KindCampaign,
		Design: design("three-in-one", entropies[i%len(entropies)]),
		Campaign: &service.CampaignSpec{
			Runs:   g.sz.campaignRuns,
			Seed:   service.U64(x.Uint64()),
			Key:    defaultKey,
			Faults: []service.FaultSpec{f},
		},
	}
}

// analysis alternates a prove job (entropy variant rotating per cycle) with
// an unmasked and a masked three-in-one leakage job.
func (g jobs) analysis(stream, i int) service.JobRequest {
	x := g.draw(stream, i)
	switch i % 3 {
	case 0:
		return service.JobRequest{
			Kind:   service.KindProve,
			Design: design("three-in-one", entropies[(i/3)%len(entropies)]),
			Prove:  &service.ProveSpec{Models: g.sz.proveModels},
		}
	default:
		scheme := "three-in-one"
		if i%3 == 2 {
			scheme = "masked"
		}
		return service.JobRequest{
			Kind:   service.KindLeakage,
			Design: design(scheme, "prime"),
			Leakage: &service.LeakageSpec{
				Pairs:   g.sz.leakagePairs,
				Seed:    service.U64(x.Uint64()),
				Key:     defaultKey,
				Model:   "hd",
				FixedPT: defaultFixedPT,
			},
		}
	}
}

func design(scheme, entropy string) service.DesignSpec {
	return service.DesignSpec{Cipher: "present80", Scheme: scheme, Entropy: entropy, Engine: "anf"}
}

// checkResult is the correctness gate for one finished job: the paper's
// single-fault detection guarantee for campaigns, a clean proof, and the
// TVLA verdict that separates the unmasked from the masked core.
func checkResult(req service.JobRequest, st service.JobStatus) error {
	if st.State != service.StateDone {
		return fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	if st.Result == nil {
		return fmt.Errorf("job %s: done without a result", st.ID)
	}
	switch req.Kind {
	case service.KindCampaign:
		c := st.Result.Campaign
		if c == nil {
			return fmt.Errorf("job %s: no campaign result", st.ID)
		}
		if c.Total != req.Campaign.Runs || c.Effective != 0 || c.Corrected != 0 ||
			c.Ineffective+c.Detected != c.Total {
			return fmt.Errorf("job %s: campaign tally %+v breaks the detection guarantee over %d runs", st.ID, *c, req.Campaign.Runs)
		}
	case service.KindProve:
		p := st.Result.Prove
		if p == nil {
			return fmt.Errorf("job %s: no prove result", st.ID)
		}
		if !p.Clean() || p.Proved == 0 || p.Proved != len(p.Locations) {
			return fmt.Errorf("job %s: proof not clean: %d proved, %d dependent, %d unknown", st.ID, p.Proved, p.Dependent, p.Unknown)
		}
	case service.KindLeakage:
		l := st.Result.Leakage
		if l == nil {
			return fmt.Errorf("job %s: no leakage result", st.ID)
		}
		masked := req.Design.Scheme == "masked"
		if l.Leaks == masked {
			return fmt.Errorf("job %s: %s core has leaks=%v (max |t| %.2f)", st.ID, req.Design.Scheme, l.Leaks, l.MaxAbsT)
		}
		if l.Fixed != req.Leakage.Pairs || l.Random != req.Leakage.Pairs || l.Discarded != 0 {
			return fmt.Errorf("job %s: leakage kept %d/%d traces of %d pairs", st.ID, l.Fixed, l.Random, req.Leakage.Pairs)
		}
	default:
		return fmt.Errorf("job %s: unexpected kind %s", st.ID, req.Kind)
	}
	return nil
}

// resultDigest hashes the results of job indices 0..digestJobs-1 in index
// order. Campaign jobs contribute their tally, analysis jobs their whole
// result (every verdict, pair and t-value).
func resultDigest(results map[int]*service.JobResult) (string, error) {
	h := sha256.New()
	for i := 0; i < digestJobs; i++ {
		r, ok := results[i]
		if !ok || r == nil {
			return "", fmt.Errorf("result_digest: job %d did not finish", i)
		}
		b, err := json.Marshal(r)
		if err != nil {
			return "", fmt.Errorf("result_digest: %w", err)
		}
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
