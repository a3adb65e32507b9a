// Command sconectl is the CLI client for a running sconed daemon.
//
// Usage:
//
//	sconectl [-server URL] submit -kind campaign -cipher present80 \
//	         -scheme three-in-one -entropy prime -runs 80000 \
//	         -seed 0x5C09E2021 -key 0x0123456789ABCDEF,0x8421 \
//	         -sbox 13 -bit 2 [-stream]
//	sconectl [-server URL] submit -kind lint -netlist core.nl
//	sconectl [-server URL] submit -kind multifault -mode kfault -k 2 \
//	         -sboxes 13 -runs 4096 [-prune] [-max-tuples N] [-stream]
//	sconectl [-server URL] prove -cipher present80 -scheme three-in-one \
//	         -entropy prime [-models stuck-at-0,bit-flip] [-budget N] [-stream]
//	sconectl [-server URL] leakage -cipher present80 -scheme masked \
//	         -pairs 2048 [-power-model hd|hw] [-fixed-pt 0x...] \
//	         [-fault -sbox 13 -bit 2 -model stuck-at-0] [-stream]
//	sconectl plan -cipher present80 -scheme three-in-one -mode kfault \
//	         -k 2 [-sboxes 13,14] [-max-tuples N]
//	sconectl [-server URL] get j000000
//	sconectl [-server URL] list
//	sconectl [-server URL] cancel j000000
//	sconectl [-server URL] watch j000000
//	sconectl [-server URL] results -cipher present80 -scheme three-in-one \
//	         -entropy prime -runs 80000 -seed 0x5C09E2021 [-sbox 13 -bit 2]
//	sconectl [-server URL] runs [job-id]
//	sconectl [-server URL] metrics
//	sconectl [-server URL] workers
//	sconectl [-server URL] leases
//	sconectl [-server URL] top [-interval 2s] [-iterations N]
//
// All output is JSON through the same encoder the daemon uses, so captured
// CLI transcripts diff cleanly against raw API responses. The one exception
// is top, which renders a human-readable status screen from the same metrics
// snapshot, job list and (on a coordinator) worker registry the JSON
// commands expose.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/cliflags"
	"repro/internal/plan"
	"repro/internal/service"
	"repro/internal/service/client"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if err == flag.ErrHelp {
			os.Exit(0)
		}
		fmt.Fprintln(os.Stderr, "sconectl:", err)
		os.Exit(1)
	}
}

func usage(stderr io.Writer, fs *flag.FlagSet) func() {
	return func() {
		fmt.Fprintln(stderr, "usage: sconectl [-server URL] <submit|prove|leakage|plan|get|list|cancel|watch|results|runs|metrics|workers|leases|top> [flags]")
		fs.PrintDefaults()
	}
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("sconectl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	server := fs.String("server", "http://127.0.0.1:8344", "sconed base URL")
	fs.Usage = usage(stderr, fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return fmt.Errorf("missing command")
	}
	c := client.New(*server)
	cmd, rest := fs.Arg(0), fs.Args()[1:]
	switch cmd {
	case "submit":
		return cmdSubmit(ctx, c, rest, stdout, stderr)
	case "prove":
		return cmdProve(ctx, c, rest, stdout, stderr)
	case "leakage":
		return cmdLeakage(ctx, c, rest, stdout, stderr)
	case "plan":
		return cmdPlan(rest, stdout, stderr)
	case "get":
		return oneJobCmd(ctx, rest, stdout, c.Get)
	case "cancel":
		return oneJobCmd(ctx, rest, stdout, c.Cancel)
	case "list":
		jobs, err := c.List(ctx)
		if err != nil {
			return err
		}
		return service.WriteJSON(stdout, map[string]any{"jobs": jobs})
	case "watch":
		if len(rest) != 1 {
			return fmt.Errorf("usage: sconectl watch <job-id>")
		}
		return streamJob(ctx, c, rest[0], stdout)
	case "results":
		return cmdResults(ctx, c, rest, stdout, stderr)
	case "runs":
		switch len(rest) {
		case 0:
			recs, err := c.StoredRuns(ctx)
			if err != nil {
				return err
			}
			return service.WriteJSON(stdout, map[string]any{"runs": recs})
		case 1:
			rec, err := c.StoredRun(ctx, rest[0])
			if err != nil {
				return err
			}
			return service.WriteJSON(stdout, rec)
		default:
			return fmt.Errorf("usage: sconectl runs [job-id]")
		}
	case "metrics":
		m, err := c.Metrics(ctx)
		if err != nil {
			return err
		}
		return service.WriteJSON(stdout, m)
	case "workers":
		ws, err := c.Workers(ctx)
		if err != nil {
			return err
		}
		return service.WriteJSON(stdout, map[string]any{"workers": ws})
	case "leases":
		ls, err := c.Leases(ctx)
		if err != nil {
			return err
		}
		return service.WriteJSON(stdout, map[string]any{"leases": ls})
	case "top":
		return cmdTop(ctx, c, rest, stdout, stderr)
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

func oneJobCmd(ctx context.Context, args []string, stdout io.Writer, f func(context.Context, string) (service.JobStatus, error)) error {
	if len(args) != 1 {
		return fmt.Errorf("expected exactly one job ID")
	}
	st, err := f(ctx, args[0])
	if err != nil {
		return err
	}
	return service.WriteJSON(stdout, st)
}

// streamJob follows the NDJSON feed, echoing every event line.
func streamJob(ctx context.Context, c *client.Client, id string, stdout io.Writer) error {
	final, err := c.Stream(ctx, id, func(ev service.Event) error {
		return service.WriteJSON(stdout, ev)
	})
	if err != nil {
		return err
	}
	_, outcome := client.Done(final)
	if outcome != nil {
		return fmt.Errorf("job %s: %w", id, outcome)
	}
	return nil
}

// cmdTop renders a top-style status screen: the daemon's counter snapshot
// followed by a per-job table, newest submissions last. With -interval it
// refreshes until interrupted or -iterations screens have been drawn.
func cmdTop(ctx context.Context, c *client.Client, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("sconectl top", flag.ContinueOnError)
	fs.SetOutput(stderr)
	interval := fs.Duration("interval", 0, "refresh period (0 = one snapshot and exit)")
	iters := fs.Int("iterations", 0, "stop after this many screens (0 = until interrupted)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	for n := 1; ; n++ {
		if err := topScreen(ctx, c, stdout); err != nil {
			return err
		}
		if *interval <= 0 || (*iters > 0 && n >= *iters) {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(*interval):
		}
	}
}

func topScreen(ctx context.Context, c *client.Client, stdout io.Writer) error {
	m, err := c.Metrics(ctx)
	if err != nil {
		return err
	}
	jobs, err := c.List(ctx)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "sconed %s\n", time.Now().Format(time.RFC3339))
	fmt.Fprintf(stdout, "queue %-6d running %-6d streams %-6d\n",
		m["queue_depth"], m["jobs_running"], m["stream_clients"])
	fmt.Fprintf(stdout, "submitted %-6d done %-6d failed %-6d canceled %-6d resumed %-6d\n",
		m["jobs_submitted_total"], m["jobs_completed_total"], m["jobs_failed_total"],
		m["jobs_canceled_total"], m["jobs_resumed_total"])
	fmt.Fprintf(stdout, "runs simulated %-12d checkpoints %-6d\n",
		m["runs_simulated_total"], m["checkpoints_total"])
	if workers, err := c.Workers(ctx); err == nil && len(workers) > 0 {
		fmt.Fprintf(stdout, "workers %-6d leases active %-6d granted %-6d reassigned %-6d\n\n",
			m["workers"], m["leases_active"], m["leases_granted_total"], m["leases_reassigned_total"])
		fmt.Fprintf(stdout, "%-10s %-12s %-8s %-7s %-7s %s\n", "WORKER", "NAME", "STATE", "ACTIVE", "DONE", "LAST SEEN")
		for _, w := range workers {
			name := w.Name
			if name == "" {
				name = "-"
			}
			fmt.Fprintf(stdout, "%-10s %-12s %-8s %-7d %-7d %s\n",
				w.ID, name, w.State, w.Active, w.Completed, w.LastSeen.Format(time.RFC3339))
		}
	}
	fmt.Fprintln(stdout)

	sort.Slice(jobs, func(i, j int) bool { return jobs[i].Submitted.Before(jobs[j].Submitted) })
	fmt.Fprintf(stdout, "%-10s %-10s %-9s %s\n", "ID", "KIND", "STATE", "PROGRESS")
	for _, j := range jobs {
		progress := "-"
		if j.Progress != nil && j.Progress.Total > 0 {
			progress = fmt.Sprintf("%d/%d", j.Progress.Done, j.Progress.Total)
		}
		if j.Error != "" {
			progress = "error: " + j.Error
		}
		fmt.Fprintf(stdout, "%-10s %-10s %-9s %s\n", j.ID, j.Kind, j.State, progress)
	}
	return nil
}

// cmdResults queries the daemon's result store by content address — the
// same flag vocabulary as submit, but not a single run is simulated
// server-side. The response reports how much of the campaign is cached and,
// when every batch is, the complete result.
func cmdResults(ctx context.Context, c *client.Client, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("sconectl results", flag.ContinueOnError)
	fs.SetOutput(stderr)
	design := cliflags.RegisterDesign(fs)
	runs := fs.Int("runs", 80000, "campaign: simulated encryptions")
	seed := fs.String("seed", "0x5C09E2021", "campaign seed")
	key := fs.String("key", "0x0123456789ABCDEF,0x8421", "cipher key as two comma-separated 64-bit words")
	sbox := fs.Int("sbox", 13, "faulted S-box index")
	bit := fs.Int("bit", 2, "faulted S-box input bit")
	model := fs.String("model", "stuck-at-0", "fault model: stuck-at-0, stuck-at-1, bit-flip")
	branch := fs.String("branch", "actual", "faulted branch: actual, redundant")
	if err := fs.Parse(args); err != nil {
		return err
	}
	seedV, err := service.ParseU64(*seed)
	if err != nil {
		return err
	}
	keyV, err := parseKey(*key)
	if err != nil {
		return err
	}
	req := service.JobRequest{
		Kind:   service.KindCampaign,
		Design: design.DesignSpec(),
		Campaign: &service.CampaignSpec{
			Runs: *runs,
			Seed: seedV,
			Key:  keyV,
			Faults: []service.FaultSpec{{
				Branch: *branch, Sbox: *sbox, Bit: *bit, Model: *model,
			}},
		},
	}
	view, err := c.Results(ctx, req)
	if err != nil {
		return err
	}
	return service.WriteJSON(stdout, view)
}

// cmdProve submits a prove job: the daemon runs the formal independence
// prover over the design's tagged fault points, checkpointing after every
// (fault location, model) pair. Progress events land at pair granularity,
// and a daemon killed mid-run resumes from its last completed pair — watch
// the resumed job with `sconectl watch` and the resumed counter in `get`.
func cmdProve(ctx context.Context, c *client.Client, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("sconectl prove", flag.ContinueOnError)
	fs.SetOutput(stderr)
	design := cliflags.RegisterDesign(fs)
	netlistPath := fs.String("netlist", "", "netlist file to upload instead of a synthesised design")
	models := fs.String("models", "", "comma-separated fault models to prove (default: stuck-at-0,stuck-at-1,bit-flip)")
	budget := fs.Int("budget", 0, "BDD node budget (0 = prover default)")
	stream := fs.Bool("stream", false, "follow the job's NDJSON progress stream until it finishes")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	req := service.JobRequest{
		Kind:   service.KindProve,
		Design: design.DesignSpec(),
		Prove:  &service.ProveSpec{Budget: *budget},
	}
	if *models != "" {
		for _, m := range strings.Split(*models, ",") {
			req.Prove.Models = append(req.Prove.Models, strings.TrimSpace(m))
		}
	}
	if *netlistPath != "" {
		b, err := os.ReadFile(*netlistPath)
		if err != nil {
			return err
		}
		req.Design = service.DesignSpec{Netlist: string(b)}
	}
	st, err := c.Submit(ctx, req)
	if err != nil {
		return err
	}
	if err := service.WriteJSON(stdout, st); err != nil {
		return err
	}
	if *stream {
		return streamJob(ctx, c, st.ID, stdout)
	}
	return nil
}

// cmdLeakage submits a leakage job: the daemon runs a fixed-vs-random
// TVLA evaluation of the design, checkpointing after every trace batch.
// Progress events land at pair granularity, and a daemon killed
// mid-evaluation resumes by simulating exactly the remaining batches —
// the final t-statistics are bit-identical to an uninterrupted run.
func cmdLeakage(ctx context.Context, c *client.Client, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("sconectl leakage", flag.ContinueOnError)
	fs.SetOutput(stderr)
	design := cliflags.RegisterDesign(fs)
	pairs := fs.Int("pairs", 2048, "fixed/random trace pairs to collect")
	seed := fs.String("seed", "0x5C09E2021", "evaluation seed")
	key := fs.String("key", "0x0123456789ABCDEF,0x8421", "cipher key as two comma-separated 64-bit words")
	powerModel := fs.String("power-model", "hd", "power model: hd (Hamming distance), hw (Hamming weight)")
	fixedPT := fs.String("fixed-pt", "0x0123456789ABCDEF", "the fixed class's plaintext")
	withFault := fs.Bool("fault", false, "inject a fault into every run and keep only SIFA-usable traces")
	sbox := fs.Int("sbox", 13, "faulted S-box index (with -fault)")
	bit := fs.Int("bit", 2, "faulted S-box input bit (with -fault)")
	model := fs.String("model", "stuck-at-0", "fault model (with -fault): stuck-at-0, stuck-at-1, bit-flip")
	branch := fs.String("branch", "actual", "faulted branch (with -fault): actual, redundant")
	stream := fs.Bool("stream", false, "follow the job's NDJSON progress stream until it finishes")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	seedV, err := service.ParseU64(*seed)
	if err != nil {
		return err
	}
	keyV, err := parseKey(*key)
	if err != nil {
		return err
	}
	ptV, err := service.ParseU64(*fixedPT)
	if err != nil {
		return err
	}
	req := service.JobRequest{
		Kind:   service.KindLeakage,
		Design: design.DesignSpec(),
		Leakage: &service.LeakageSpec{
			Pairs:   *pairs,
			Seed:    seedV,
			Key:     keyV,
			Model:   *powerModel,
			FixedPT: ptV,
		},
	}
	if *withFault {
		req.Leakage.Faults = []service.FaultSpec{{
			Branch: *branch, Sbox: *sbox, Bit: *bit, Model: *model,
		}}
	}
	st, err := c.Submit(ctx, req)
	if err != nil {
		return err
	}
	if err := service.WriteJSON(stdout, st); err != nil {
		return err
	}
	if *stream {
		return streamJob(ctx, c, st.ID, stdout)
	}
	return nil
}

func cmdSubmit(ctx context.Context, c *client.Client, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("sconectl submit", flag.ContinueOnError)
	fs.SetOutput(stderr)
	kind := fs.String("kind", "campaign", "job kind: campaign, multifault, dfa, sifa, fta, area, lint, prove, leakage")
	design := cliflags.RegisterDesign(fs)
	engine := cliflags.RegisterEngine(fs)
	netlistPath := fs.String("netlist", "", "netlist file to upload (area/lint jobs)")
	runs := fs.Int("runs", 80000, "campaign: simulated encryptions")
	seed := fs.String("seed", "0x5C09E2021", "campaign/attack seed")
	key := fs.String("key", "0x0123456789ABCDEF,0x8421", "cipher key as two comma-separated 64-bit words")
	sbox := fs.Int("sbox", 13, "faulted/probed S-box index")
	bit := fs.Int("bit", 2, "faulted S-box input bit")
	model := fs.String("model", "stuck-at-0", "fault model: stuck-at-0, stuck-at-1, bit-flip")
	branch := fs.String("branch", "actual", "faulted branch: actual, redundant")
	mode := fs.String("mode", "kfault", "multifault: plan mode, kfault or persistent")
	arity := fs.Int("k", 2, "multifault kfault: simultaneous fault locations per tuple")
	sboxes := fs.String("sboxes", "", "multifault: comma-separated S-box indices (kfault: site columns; persistent: table entries)")
	prune := fs.Bool("prune", false, "multifault kfault: skip tuples containing an empirically inert site")
	maxTuples := fs.Int("max-tuples", 0, "multifault: truncate the plan after this many placements (0 = no cap)")
	pairs := fs.Int("pairs", 2048, "leakage: fixed/random trace pairs")
	powerModel := fs.String("power-model", "hd", "leakage: power model, hd or hw")
	fixedPT := fs.String("fixed-pt", "0x0123456789ABCDEF", "leakage: the fixed class's plaintext")
	withFault := fs.Bool("fault", false, "leakage: inject the -branch/-sbox/-bit/-model fault and keep only SIFA-usable traces")
	stream := fs.Bool("stream", false, "follow the job's NDJSON progress stream until it finishes")
	if err := fs.Parse(args); err != nil {
		return err
	}

	seedV, err := service.ParseU64(*seed)
	if err != nil {
		return err
	}
	keyV, err := parseKey(*key)
	if err != nil {
		return err
	}

	req := service.JobRequest{
		Kind:   service.Kind(*kind),
		Design: design.DesignSpec(),
	}
	if *netlistPath != "" {
		b, err := os.ReadFile(*netlistPath)
		if err != nil {
			return err
		}
		req.Design = service.DesignSpec{Netlist: string(b)}
	}
	engineCfg, err := engine.Config()
	if err != nil {
		return err
	}
	switch req.Kind {
	case service.KindCampaign:
		req.Campaign = &service.CampaignSpec{
			Runs: *runs,
			Seed: seedV,
			Key:  keyV,
			Faults: []service.FaultSpec{{
				Branch: *branch, Sbox: *sbox, Bit: *bit, Model: *model,
			}},
			Workers:   engineCfg.Parallelism,
			BatchRuns: engineCfg.BatchRuns,
		}
	case service.KindMultiFault:
		idx, err := parseInts(*sboxes)
		if err != nil {
			return err
		}
		req.MultiFault = &service.MultiFaultSpec{
			Mode:         *mode,
			K:            *arity,
			Model:        *model,
			RunsPerTuple: *runs,
			Seed:         seedV,
			Key:          keyV,
			Sboxes:       idx,
			Prune:        *prune,
			MaxTuples:    *maxTuples,
		}
	case service.KindDFA, service.KindSIFA, service.KindFTA:
		req.Attack = &service.AttackSpec{Key: keyV, Seed: seedV, Sbox: sbox, Bit: bit, Model: ""}
	case service.KindLeakage:
		ptV, err := service.ParseU64(*fixedPT)
		if err != nil {
			return err
		}
		req.Leakage = &service.LeakageSpec{
			Pairs:   *pairs,
			Seed:    seedV,
			Key:     keyV,
			Model:   *powerModel,
			FixedPT: ptV,
		}
		if *withFault {
			req.Leakage.Faults = []service.FaultSpec{{
				Branch: *branch, Sbox: *sbox, Bit: *bit, Model: *model,
			}}
		}
	case service.KindArea, service.KindLint, service.KindProve:
		// Design-only kinds; `sconectl prove` exposes the prove knobs.
	default:
		return fmt.Errorf("unknown job kind %q", *kind)
	}

	st, err := c.Submit(ctx, req)
	if err != nil {
		return err
	}
	if err := service.WriteJSON(stdout, st); err != nil {
		return err
	}
	if *stream {
		return streamJob(ctx, c, st.ID, stdout)
	}
	return nil
}

// cmdPlan sizes a multi-fault sweep locally, without a daemon: it
// synthesises the selected design, enumerates exactly the plan the
// multifault job kind would execute and prints the sizing summary as JSON —
// the cheap way to judge C(n, k) before paying for simulation.
func cmdPlan(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("sconectl plan", flag.ContinueOnError)
	fs.SetOutput(stderr)
	design := cliflags.RegisterDesign(fs)
	mode := fs.String("mode", "kfault", "plan mode: kfault, persistent")
	arity := fs.Int("k", 2, "kfault: simultaneous fault locations per tuple")
	sboxes := fs.String("sboxes", "", "comma-separated S-box indices (kfault: site columns; persistent: table entries)")
	maxTuples := fs.Int("max-tuples", 0, "truncate the plan after this many placements (0 = no cap)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	idx, err := parseInts(*sboxes)
	if err != nil {
		return err
	}
	d, err := design.Build()
	if err != nil {
		return err
	}
	switch *mode {
	case "kfault":
		p, err := plan.New(d, plan.Request{K: *arity, Sboxes: idx, MaxTuples: *maxTuples})
		if err != nil {
			return err
		}
		sites := make([]string, len(p.Sites))
		for i, s := range p.Sites {
			sites[i] = s.String()
		}
		return service.WriteJSON(stdout, map[string]any{
			"mode":      "kfault",
			"k":         p.K,
			"sites":     sites,
			"planned":   len(p.Tuples),
			"truncated": p.Truncated,
			"total":     plan.NumTuples(len(p.Sites), p.K),
		})
	case "persistent":
		cs, truncated, err := plan.PersistentPlan(d.Spec.SboxBits, idx, *maxTuples)
		if err != nil {
			return err
		}
		size := 1 << d.Spec.SboxBits
		entries := len(idx)
		if entries == 0 {
			entries = size
		}
		return service.WriteJSON(stdout, map[string]any{
			"mode":      "persistent",
			"sbox_bits": d.Spec.SboxBits,
			"planned":   len(cs),
			"truncated": truncated,
			"total":     entries * (size - 1),
		})
	default:
		return fmt.Errorf("unknown plan mode %q", *mode)
	}
}

// parseInts parses a comma-separated integer list; empty means none.
func parseInts(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []int
	for _, p := range strings.Split(s, ",") {
		var v int
		if _, err := fmt.Sscanf(strings.TrimSpace(p), "%d", &v); err != nil {
			return nil, fmt.Errorf("bad integer %q in list", p)
		}
		out = append(out, v)
	}
	return out, nil
}

// parseKey parses "lo,hi" 64-bit words (hex or decimal).
func parseKey(s string) ([2]service.U64, error) {
	var k [2]service.U64
	parts := strings.Split(s, ",")
	if len(parts) == 0 || len(parts) > 2 {
		return k, fmt.Errorf("key must be one or two comma-separated 64-bit words")
	}
	for i, p := range parts {
		v, err := service.ParseU64(strings.TrimSpace(p))
		if err != nil {
			return k, err
		}
		k[i] = v
	}
	return k, nil
}
