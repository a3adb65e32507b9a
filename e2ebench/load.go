package main

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
	"repro/internal/service/client"
)

// jobRun is one job as a client saw it.
type jobRun struct {
	index   int
	req     service.JobRequest
	status  service.JobStatus
	latency time.Duration // submit → terminal state
	// slowdown is the host's slowdown around the job (hostSpeed before
	// and after it, averaged); 0 when the loader does not probe.
	slowdown float64
	submit   time.Duration // client.Submit
	first    time.Duration // client.Stream call → first event
	events   int
	err      error // submission, stream or correctness failure
}

// pass is one closed-loop stretch of jobs. Client c runs job indices
// from+c, from+c+clients, ... With count > 0 the pass runs exactly indices
// [from, from+count); otherwise each client keeps going until the deadline
// has passed and it has finished a whole number of cycles (at least
// minPerClient jobs). With rssAfter > 0 the process's peak resident set is
// read when the pass has finished that many jobs.
type pass struct {
	from         int
	count        int
	deadline     time.Time
	minPerClient int
	rssAfter     int
}

// passResult collects a pass's jobs and the per-client busy time.
type passResult struct {
	jobs []jobRun
	// rate is Σ over clients of (jobs finished ÷ time from the pass start
	// to that client's last finish): completed jobs per second without
	// the idle tail of whichever client finished first.
	rate float64
	wall time.Duration
	// rss is the peak resident set in MiB once rssAfter jobs had finished
	// (0 when the pass did not ask for it or finished fewer jobs).
	rss float64
	// rssErr is the error of that reading, if any.
	rssErr error
}

// loader is the load generator: closed-loop clients, one HTTP connection
// each.
type loader struct {
	w       workload
	gen     jobs
	clients []*client.Client
	tr      *tracer
	// check, when set, adds a workload-specific correctness check on top
	// of checkResult (campaign-replay compares against the cold results).
	check func(i int, st service.JobStatus) error
	// probe makes each client probe the host's speed before its first job
	// and after every job.
	probe bool
}

func newLoader(w workload, gen jobs, url string) *loader {
	d := &loader{w: w, gen: gen}
	for c := 0; c < w.clients; c++ {
		cl := client.New(url)
		cl.HTTPClient = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
		d.clients = append(d.clients, cl)
	}
	return d
}

// close drops the clients' idle connections.
func (d *loader) close() {
	for _, cl := range d.clients {
		cl.HTTPClient.CloseIdleConnections()
	}
}

// run executes one pass and waits for every client.
func (d *loader) run(ctx context.Context, p pass) passResult {
	start := time.Now()
	per := make([][]jobRun, len(d.clients))
	ends := make([]time.Duration, len(d.clients))
	var res passResult
	var done atomic.Int64
	var wg sync.WaitGroup
	for c := range d.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var slow float64
			if d.probe {
				slow = hostSpeed()
			}
			for n := 0; ctx.Err() == nil; n++ {
				i := p.from + c + n*len(d.clients)
				if p.count > 0 && i >= p.from+p.count {
					break
				}
				if p.count == 0 && n >= p.minPerClient && n%d.w.cycle == 0 && time.Now().After(p.deadline) {
					break
				}
				j := d.one(ctx, c, i)
				ends[c] = time.Since(start)
				if d.probe {
					next := hostSpeed()
					j.slowdown, slow = (slow+next)/2, next
				}
				per[c] = append(per[c], j)
				if done.Add(1) == int64(p.rssAfter) {
					res.rss, res.rssErr = peakRSSMiB()
				}
			}
		}()
	}
	wg.Wait()
	for c := range d.clients {
		res.jobs = append(res.jobs, per[c]...)
		if ends[c] > 0 {
			res.rate += float64(len(per[c])) / ends[c].Seconds()
		}
		res.wall = max(res.wall, ends[c])
	}
	sort.Slice(res.jobs, func(a, b int) bool { return res.jobs[a].index < res.jobs[b].index })
	return res
}

// one runs job i of the workload's job list on client c.
func (d *loader) one(ctx context.Context, c, i int) jobRun {
	return d.submit(ctx, c, i, d.gen.job(i))
}

// submit sends req as job i on client c, follows its event stream to the
// terminal state and checks the result.
func (d *loader) submit(ctx context.Context, c, i int, req service.JobRequest) jobRun {
	cl := d.clients[c]
	r := jobRun{index: i, req: req}
	root := d.tr.begin("job", i, 0)
	defer d.tr.end(root)
	t0 := time.Now()

	sp := d.tr.begin("http.submit", i, root)
	st, err := cl.Submit(ctx, r.req)
	d.tr.end(sp)
	r.submit = time.Since(t0)
	if err != nil {
		r.err = fmt.Errorf("submit job %d: %w", i, err)
		return r
	}

	sp = d.tr.begin("http.stream", i, root)
	streamStart := time.Now()
	final, err := cl.Stream(ctx, st.ID, func(service.Event) error {
		if r.events == 0 {
			r.first = time.Since(streamStart)
		}
		r.events++
		return nil
	})
	d.tr.end(sp)
	r.latency = time.Since(t0)
	r.status = final
	if err != nil {
		r.err = fmt.Errorf("stream job %d (%s): %w", i, st.ID, err)
		return r
	}
	r.err = checkResult(r.req, final)
	if r.err == nil && d.check != nil {
		r.err = d.check(i, final)
	}
	return r
}

// quantile returns the q-quantile of sorted durations by linear
// interpolation between closest ranks.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + time.Duration(frac*float64(sorted[lo+1]-sorted[lo]))
}

// sorted returns f of every job, in ascending order.
func sorted(jobs []jobRun, f func(jobRun) time.Duration) []time.Duration {
	out := make([]time.Duration, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, f(j))
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}
