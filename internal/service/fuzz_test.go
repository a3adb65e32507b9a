package service

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/core"
)

// attackCrashPayloads are sifa and fta submissions with negative attack
// coordinates. The attack drivers index the design's S-box input buses with
// them, so a payload that passed Validate would panic the worker goroutine
// and take the whole daemon down; each must be a 400 instead.
var attackCrashPayloads = []string{
	`{"kind":"sifa","design":{"cipher":"present80","scheme":"naive"},"attack":{"sbox":-1}}`,
	`{"kind":"sifa","design":{"cipher":"present80","scheme":"naive"},"attack":{"bit":-1}}`,
	`{"kind":"fta","design":{"cipher":"present80","scheme":"naive"},"attack":{"sbox":-1}}`,
}

// FuzzJobRequest decodes arbitrary submissions the way POST /v1/jobs does
// and runs Validate, which must never panic. Every sifa or fta request it
// accepts must address a probe point that exists: the attack coordinates
// resolve to an S-box input net of the built design.
func FuzzJobRequest(f *testing.F) {
	for _, p := range attackCrashPayloads {
		f.Add([]byte(p))
	}
	f.Add([]byte(`{"kind":"sifa","design":{"cipher":"present80","scheme":"naive"},"attack":{"sbox":13,"bit":2}}`))
	f.Add([]byte(`{"kind":"fta","design":{"cipher":"gift64","scheme":"three-in-one"},"attack":{"sbox":15}}`))
	f.Add([]byte(`{"kind":"sifa","design":{"scheme":"naive","optimize":true},"attack":{}}`))
	f.Add([]byte(`{"kind":"campaign","design":{"scheme":"three-in-one"},"campaign":{"runs":64,"faults":[{"sbox":13,"bit":2}]}}`))
	f.Add([]byte(`{"kind":"multifault","multifault":{"mode":"kfault","k":2,"runs_per_tuple":8,"cone":{"sbox":99}}}`))

	designs := make(map[DesignSpec]*core.Design)
	f.Fuzz(func(t *testing.T, data []byte) {
		var req JobRequest
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return
		}
		if err := req.Validate(); err != nil {
			return
		}
		if req.Kind != KindSIFA && req.Kind != KindFTA {
			return
		}
		d, ok := designs[req.Design]
		if !ok {
			var err error
			if d, err = BuildDesign(req.Design); err != nil {
				t.Fatalf("accepted %s request does not build: %v", req.Kind, err)
			}
			designs[req.Design] = d
		}
		sbox, bit := attackSite(req.Kind, req.Attack)
		_ = d.SboxInputNet(core.BranchActual, sbox, bit)
	})
}
