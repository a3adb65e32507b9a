package service

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/plan"
)

// placement is one planned multifault adversary: its stable plan index, the
// labels reports use, and the campaign spec that executes it. A pruned
// placement carries no spec — it is recorded, never simulated.
type placement struct {
	index  int
	sites  []string
	entry  int
	mask   uint64
	pruned bool
	spec   *CampaignSpec
}

// runMultiFault executes a multifault job: the plan is generated (and
// optionally pruned against singleton evidence), then walked one placement
// at a time in plan order. Each placement is itself a seed-deterministic
// campaign — the same (seed, batch) derivation as a standalone campaign job
// with the same spec, so placement tallies replay from the result store and
// are bit-identical whether executed locally, through the lease fabric, or
// spliced from cache. Every placement boundary is a checkpoint: a placement
// is a whole campaign, so unlike prove pairs and leakage batches it is
// worth a record of its own.
func (s *Service) runMultiFault(ctx context.Context, j *job) (*JobResult, error) {
	d, err := BuildDesign(j.req.Design)
	if err != nil {
		return nil, err
	}
	res, placements, err := s.multiFaultPlan(ctx, j, d)
	if err != nil {
		return nil, err
	}

	start := 0
	if err := s.resume(j, func(cp *Checkpoint) (Progress, error) {
		if cp != nil && cp.MultiFault != nil {
			start = cp.MultiFault.NextTuple
			for _, tr := range cp.MultiFault.Done {
				res.Accumulate(tr)
			}
		}
		return Progress{Done: start, Total: res.Planned, Counts: res.Totals}, nil
	}); err != nil {
		return nil, err
	}

	for idx := start; idx < len(placements); idx++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		pl := placements[idx]
		tr := TupleResult{Index: pl.index, Sites: pl.sites, Entry: pl.entry, Mask: U64(pl.mask), Pruned: pl.pruned}
		if !pl.pruned {
			counts, err := s.placementCounts(ctx, j, d, fmt.Sprintf("t%d", pl.index), pl.spec)
			if err != nil {
				return nil, err
			}
			tr.Counts = counts
		}
		res.Accumulate(tr)
		// The checkpoint owns its own copy of the completed placements: the
		// result keeps growing while the persisted record must stay a frozen
		// snapshot of this boundary.
		done := append([]TupleResult(nil), res.Tuples...)
		s.checkpoint(j, &Checkpoint{MultiFault: &MultiFaultCheckpoint{NextTuple: idx + 1, Done: done}},
			Progress{Done: idx + 1, Total: res.Planned, Counts: res.Totals})
		_ = s.results.Sync()
	}
	return &JobResult{MultiFault: res}, nil
}

// placementCounts executes one placement campaign — a plan tuple or a
// prune-prepass singleton — to completion through executeCampaign. In the
// lease fabric it runs as the synthetic campaign job "<job>/<name>".
// Placement boundaries, not batch chunks, are the multifault job's
// checkpoint grain: an interrupted placement re-executes on resume and its
// finished batches splice back in from the store.
func (s *Service) placementCounts(ctx context.Context, j *job, d *core.Design, name string, cs *CampaignSpec) (CampaignResult, error) {
	camp, err := buildCampaign(d, cs, s.cfg.engineDefaults())
	if err != nil {
		return CampaignResult{}, err
	}
	req := JobRequest{Kind: KindCampaign, Design: j.req.Design, Campaign: cs}
	return s.executeCampaign(ctx, j.id+"/"+name, req, camp, s.address(camp), Checkpoint{}, nil)
}

// multiFaultPlan expands a validated multifault spec against the built
// design into the result skeleton and the placement list. Everything here is
// deterministic in the request: the site order is the design's declared
// fault-point order, tuple enumeration is lexicographic, and the inert
// oracle is computed from seed-deterministic singleton campaigns — so two
// services (or one service across a drain/resume) always agree on which
// index names which placement and which placements prune.
func (s *Service) multiFaultPlan(ctx context.Context, j *job, d *core.Design) (*MultiFaultResult, []placement, error) {
	m := j.req.MultiFault
	res := &MultiFaultResult{Mode: m.Mode}
	if res.Mode == "" {
		res.Mode = "kfault"
	}

	if res.Mode == "persistent" {
		cs, truncated, err := plan.PersistentPlan(d.Spec.SboxBits, m.Sboxes, m.MaxTuples)
		if err != nil {
			return nil, nil, err
		}
		res.Planned = len(cs)
		res.Truncated = truncated
		placements := make([]placement, len(cs))
		for i, c := range cs {
			placements[i] = placement{
				index: i,
				entry: c.Entry,
				mask:  c.Mask,
				spec: &CampaignSpec{
					Runs:       m.RunsPerTuple,
					Seed:       m.Seed,
					Key:        m.Key,
					Persistent: &PersistentSpec{Entry: c.Entry, Mask: U64(c.Mask)},
					Workers:    m.Workers,
				},
			}
		}
		return res, placements, nil
	}

	k := m.K
	if k == 0 {
		k = 2
	}
	req := plan.Request{K: k, Sboxes: m.Sboxes, MaxTuples: m.MaxTuples}
	if m.Cone != nil {
		faults, err := resolveFaults(d, []FaultSpec{*m.Cone})
		if err != nil {
			return nil, nil, fmt.Errorf("cone: %w", err)
		}
		req.Cone = faults[0].Net
	}
	p, err := plan.New(d, req)
	if err != nil {
		return nil, nil, err
	}
	res.K = k
	res.Planned = len(p.Tuples)
	res.Truncated = p.Truncated
	for _, site := range p.Sites {
		res.Sites = append(res.Sites, site.Tag)
	}

	var inert map[int]bool
	if m.Prune {
		inert, err = s.inertSites(ctx, j, d, p.Sites)
		if err != nil {
			return nil, nil, err
		}
	}

	placements := make([]placement, len(p.Tuples))
	for i, tup := range p.Tuples {
		pl := placement{index: i}
		for _, si := range tup {
			pl.sites = append(pl.sites, p.Sites[si].Tag)
		}
		if m.Prune && plan.PruneIndex(tup, func(si int) bool { return inert[si] }) >= 0 {
			pl.pruned = true
			placements[i] = pl
			continue
		}
		cs := &CampaignSpec{Runs: m.RunsPerTuple, Seed: m.Seed, Key: m.Key, Workers: m.Workers}
		for _, si := range tup {
			cs.Faults = append(cs.Faults, siteFault(p.Sites[si], m))
		}
		pl.spec = cs
		placements[i] = pl
	}
	return res, placements, nil
}

// siteFault maps a planned site back onto the wire fault vocabulary, so a
// placement campaign is expressible as an ordinary campaign spec — the form
// the lease fabric ships to workers and the form whose store address every
// execution path shares.
func siteFault(site plan.Site, m *MultiFaultSpec) FaultSpec {
	return FaultSpec{
		Branch: core.Branch(site.Branch).String(),
		Sbox:   site.Sbox,
		Bit:    site.Bit,
		Model:  m.Model,
		Cycle:  m.Cycle,
	}
}

// inertSites runs (or replays from the result store) each candidate site's
// singleton campaign and marks the sites where every run was ineffective —
// the empirical half of plan.PruneIndex's oracle. The singleton campaigns
// use the sweep's own runs/seed/key, so their store addresses coincide with
// any equivalent standalone campaign and a resumed or repeated sweep replays
// them instead of re-simulating.
func (s *Service) inertSites(ctx context.Context, j *job, d *core.Design, sites []plan.Site) (map[int]bool, error) {
	m := j.req.MultiFault
	inert := make(map[int]bool)
	for i, site := range sites {
		cs := &CampaignSpec{
			Runs:    m.RunsPerTuple,
			Seed:    m.Seed,
			Key:     m.Key,
			Faults:  []FaultSpec{siteFault(site, m)},
			Workers: m.Workers,
		}
		counts, err := s.placementCounts(ctx, j, d, fmt.Sprintf("s%d", i), cs)
		if err != nil {
			return nil, err
		}
		if counts.Detected == 0 && counts.Effective == 0 && counts.Corrected == 0 {
			inert[i] = true
		}
	}
	return inert, nil
}
