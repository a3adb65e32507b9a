package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/service/client"
	"repro/internal/synth"

	"repro/internal/cipher/present"
)

func startServer(t *testing.T) (string, *service.Service) {
	t.Helper()
	svc, err := service.New(service.Config{Workers: 2, CheckpointEveryRuns: 64})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	return srv.URL, svc
}

func runCtl(t *testing.T, server string, args ...string) (string, error) {
	t.Helper()
	var out, errb bytes.Buffer
	err := run(context.Background(), append([]string{"-server", server}, args...), &out, &errb)
	return out.String(), err
}

func TestSubmitGetCancelList(t *testing.T) {
	server, _ := startServer(t)

	out, err := runCtl(t, server, "submit",
		"-kind", "campaign", "-cipher", "present80", "-scheme", "three-in-one",
		"-entropy", "prime", "-runs", "100000", "-seed", "0x5C09E2021",
		"-key", "0x0123456789ABCDEF,0x8421", "-sbox", "13", "-bit", "2")
	if err != nil {
		t.Fatal(err)
	}
	var st service.JobStatus
	if err := json.Unmarshal([]byte(out), &st); err != nil {
		t.Fatalf("submit output %q: %v", out, err)
	}
	if st.Kind != service.KindCampaign || st.ID == "" {
		t.Fatalf("submit returned %+v", st)
	}

	out, err = runCtl(t, server, "get", st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, st.ID) {
		t.Fatalf("get output %q missing job ID", out)
	}

	out, err = runCtl(t, server, "cancel", st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var canceled service.JobStatus
	if err := json.Unmarshal([]byte(out), &canceled); err != nil {
		t.Fatal(err)
	}

	out, err = runCtl(t, server, "list")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Jobs []service.JobStatus `json:"jobs"`
	}
	if err := json.Unmarshal([]byte(out), &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Jobs) != 1 || listing.Jobs[0].ID != st.ID {
		t.Fatalf("list returned %+v", listing.Jobs)
	}
}

func TestWatchStreamsToCompletion(t *testing.T) {
	server, _ := startServer(t)

	out, err := runCtl(t, server, "submit",
		"-kind", "campaign", "-runs", "320", "-stream")
	if err != nil {
		t.Fatal(err)
	}
	// The output is the submit status followed by the event stream; the
	// final event must be a result whose job state is done.
	dec := json.NewDecoder(strings.NewReader(out))
	var st service.JobStatus
	if err := dec.Decode(&st); err != nil {
		t.Fatal(err)
	}
	var lastType string
	var lastJob *service.JobStatus
	for dec.More() {
		var ev service.Event
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		lastType, lastJob = ev.Type, ev.Job
	}
	if lastType != "result" || lastJob == nil || lastJob.State != service.StateDone {
		t.Fatalf("stream ended with %q event, job %+v", lastType, lastJob)
	}
	if lastJob.Result == nil || lastJob.Result.Campaign == nil {
		t.Fatal("terminal event has no campaign result")
	}
	if lastJob.Result.Campaign.Total != 320 {
		t.Fatalf("campaign total %d, want 320", lastJob.Result.Campaign.Total)
	}

	// watch re-follows a finished job and still lands on the result line.
	out, err = runCtl(t, server, "watch", st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `"result"`) {
		t.Fatalf("watch output %q has no result event", out)
	}
}

func TestSubmitNetlistLint(t *testing.T) {
	server, _ := startServer(t)

	d, err := core.Build(present.Spec(), core.Options{Scheme: core.SchemeThreeInOne, Engine: synth.EngineANF})
	if err != nil {
		t.Fatal(err)
	}
	var nl bytes.Buffer
	if err := d.Mod.WriteText(&nl); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "core.nl")
	if err := os.WriteFile(path, nl.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	out, err := runCtl(t, server, "submit", "-kind", "lint", "-netlist", path, "-stream")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `"lint"`) {
		t.Fatalf("lint stream output %q", out)
	}
}

// TestProveCommand drives `sconectl prove` end to end: a netlist with a
// seeded conditional bias streams to completion with dependent verdicts
// and a concrete key-bit witness in the result.
func TestProveCommand(t *testing.T) {
	server, _ := startServer(t)

	const fixture = `module sifa_cond_bias
nets 6
netname 4 a1
netname 5 v
netname 6 flag
input din 1
input key 2
input lambda 3
output ct 5
output fault 6
cell AND2 4 1 2
cell XOR2 5 3 1 tag=fp.v
cell XOR2 6 3 4
endmodule
`
	path := filepath.Join(t.TempDir(), "biased.nl")
	if err := os.WriteFile(path, []byte(fixture), 0o644); err != nil {
		t.Fatal(err)
	}

	out, err := runCtl(t, server, "prove", "-netlist", path,
		"-models", "stuck-at-0,stuck-at-1", "-stream")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(strings.NewReader(out))
	var st service.JobStatus
	if err := dec.Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Kind != service.KindProve {
		t.Fatalf("submitted kind %s, want prove", st.Kind)
	}
	var lastJob *service.JobStatus
	for dec.More() {
		var ev service.Event
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		if ev.Job != nil {
			lastJob = ev.Job
		}
	}
	if lastJob == nil || lastJob.State != service.StateDone {
		t.Fatalf("prove stream ended with job %+v", lastJob)
	}
	res := lastJob.Result.Prove
	if res == nil || res.Dependent != 2 || res.Clean() {
		t.Fatalf("prove result %+v, want 2 dependent pairs", res)
	}
	if !strings.Contains(out, "key bit") {
		t.Fatalf("prove output carries no witness: %q", out)
	}

	if _, err := runCtl(t, server, "prove", "-models", "gamma-ray"); err == nil {
		t.Error("unknown prove model accepted")
	}
}

func TestBadInvocations(t *testing.T) {
	server, _ := startServer(t)
	if _, err := runCtl(t, server, "frobnicate"); err == nil {
		t.Error("unknown command accepted")
	}
	if _, err := runCtl(t, server); err == nil {
		t.Error("missing command accepted")
	}
	if _, err := runCtl(t, server, "get"); err == nil {
		t.Error("get without ID accepted")
	}
	if _, err := runCtl(t, server, "get", "j424242"); err == nil {
		t.Error("get of unknown job succeeded")
	}
	if _, err := runCtl(t, server, "submit", "-kind", "explode"); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := runCtl(t, server, "submit", "-key", "1,2,3"); err == nil {
		t.Error("three-word key accepted")
	}
	if _, err := runCtl(t, server, "submit", "-seed", "banana"); err == nil {
		t.Error("non-numeric seed accepted")
	}
	if _, err := runCtl(t, server, "submit", "-lanes", "4"); err == nil {
		t.Error("removed -lanes flag accepted")
	}
}

// TestResultsAndRunsCommands drives the result-store read commands against
// a store-backed daemon: after one -stream submission, `results` with the
// same flags answers complete from the cache and `runs` lists the durable
// provenance record.
func TestResultsAndRunsCommands(t *testing.T) {
	svc, err := service.New(service.Config{Workers: 1, CheckpointEveryRuns: 64, StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	server := srv.URL

	flags := []string{"-runs", "320", "-seed", "0x5C09E2021", "-sbox", "13", "-bit", "2"}
	out, err := runCtl(t, server, append([]string{"submit", "-kind", "campaign", "-stream"}, flags...)...)
	if err != nil {
		t.Fatal(err)
	}
	var st service.JobStatus
	if err := json.NewDecoder(strings.NewReader(out)).Decode(&st); err != nil {
		t.Fatal(err)
	}

	out, err = runCtl(t, server, append([]string{"results"}, flags...)...)
	if err != nil {
		t.Fatal(err)
	}
	var view service.ResultsView
	if err := json.Unmarshal([]byte(out), &view); err != nil {
		t.Fatalf("results output %q: %v", out, err)
	}
	if !view.Complete || view.CachedBatches != view.Batches || view.Result == nil || view.Result.Total != 320 {
		t.Fatalf("results view %+v", view)
	}

	// Different parameters address a different campaign: nothing cached.
	out, err = runCtl(t, server, "results", "-runs", "320", "-seed", "0x5C09E2021", "-sbox", "7", "-bit", "2")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(out), &view); err != nil {
		t.Fatal(err)
	}
	if view.Complete || view.CachedBatches != 0 {
		t.Fatalf("uncached campaign reported %+v", view)
	}

	out, err = runCtl(t, server, "runs")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Runs []service.RunRecord `json:"runs"`
	}
	if err := json.Unmarshal([]byte(out), &listing); err != nil {
		t.Fatalf("runs output %q: %v", out, err)
	}
	if len(listing.Runs) != 1 || listing.Runs[0].ID != st.ID || listing.Runs[0].State != "done" {
		t.Fatalf("runs listing %+v", listing.Runs)
	}

	out, err = runCtl(t, server, "runs", st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var rec service.RunRecord
	if err := json.Unmarshal([]byte(out), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.ID != st.ID || rec.SimulatedBatches != rec.Batches {
		t.Fatalf("run record %+v", rec)
	}

	if _, err := runCtl(t, server, "runs", "j424242"); err == nil {
		t.Error("runs of unknown ID succeeded")
	}
	if _, err := runCtl(t, server, "runs", "a", "b"); err == nil {
		t.Error("runs accepted two arguments")
	}
	if _, err := runCtl(t, server, "results", "-seed", "banana"); err == nil {
		t.Error("results accepted a malformed seed")
	}
}

func TestMetricsCommand(t *testing.T) {
	server, _ := startServer(t)
	out, err := runCtl(t, server, "metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]int64
	if err := json.Unmarshal([]byte(out), &m); err != nil {
		t.Fatalf("metrics output %q: %v", out, err)
	}
	if _, ok := m["jobs_submitted_total"]; !ok {
		t.Fatalf("metrics missing counters: %v", m)
	}
}

// top renders the human status screen: counters up front, one row per job.
func TestTopCommand(t *testing.T) {
	server, _ := startServer(t)
	out, err := runCtl(t, server, "submit", "-kind", "campaign", "-runs", "320", "-stream")
	if err != nil {
		t.Fatal(err)
	}
	var st service.JobStatus
	if err := json.NewDecoder(strings.NewReader(out)).Decode(&st); err != nil {
		t.Fatal(err)
	}

	out, err = runCtl(t, server, "top")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"submitted 1", "runs simulated 320", "ID", st.ID, "done"} {
		if !strings.Contains(out, want) {
			t.Errorf("top output missing %q:\n%s", want, out)
		}
	}

	if _, err := runCtl(t, server, "top", "stray"); err == nil {
		t.Error("top accepted a positional argument")
	}
	if _, err := runCtl(t, server, "top", "-interval", "nope"); err == nil {
		t.Error("top accepted a malformed interval")
	}
}

// TestWorkersLeasesAndTopFleet drives the fleet commands against a
// coordinator: empty listings first, then a joined worker shows up in
// workers, leases and the top screen's fleet section.
func TestWorkersLeasesAndTopFleet(t *testing.T) {
	svc, err := service.New(service.Config{Workers: 1, Dist: service.DistConfig{Enabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	server := srv.URL

	out, err := runCtl(t, server, "workers")
	if err != nil {
		t.Fatal(err)
	}
	var ws struct {
		Workers []service.WorkerInfo `json:"workers"`
	}
	if err := json.Unmarshal([]byte(out), &ws); err != nil {
		t.Fatalf("workers output %q: %v", out, err)
	}
	if len(ws.Workers) != 0 {
		t.Fatalf("fresh coordinator lists workers: %+v", ws.Workers)
	}

	if _, err := client.New(server).JoinWorker(context.Background(), service.JoinRequest{Name: "probe"}); err != nil {
		t.Fatal(err)
	}

	out, err = runCtl(t, server, "workers")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(out), &ws); err != nil {
		t.Fatal(err)
	}
	if len(ws.Workers) != 1 || ws.Workers[0].Name != "probe" || ws.Workers[0].State != service.WorkerActive {
		t.Fatalf("workers after join: %+v", ws.Workers)
	}

	out, err = runCtl(t, server, "leases")
	if err != nil {
		t.Fatal(err)
	}
	var ls struct {
		Leases []service.LeaseInfo `json:"leases"`
	}
	if err := json.Unmarshal([]byte(out), &ls); err != nil {
		t.Fatalf("leases output %q: %v", out, err)
	}
	if len(ls.Leases) != 0 {
		t.Fatalf("idle coordinator lists leases: %+v", ls.Leases)
	}

	out, err = runCtl(t, server, "top")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"workers 1", "WORKER", "probe", "active"} {
		if !strings.Contains(out, want) {
			t.Errorf("top fleet section missing %q:\n%s", want, out)
		}
	}

	// Against a non-coordinator the listings stay empty and top omits the
	// fleet section entirely.
	server2, _ := startServer(t)
	out, err = runCtl(t, server2, "top")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "WORKER") {
		t.Fatalf("top shows a fleet section on a non-coordinator:\n%s", out)
	}
}
