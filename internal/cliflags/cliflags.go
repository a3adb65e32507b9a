// Package cliflags gives the scone command-line tools one shared spelling
// of the design-selection flags. sconectl, sconesim, sconeattack and
// sconebench all register the same -spec / -scheme / -entropy / -engine
// surface (with identical defaults and help strings) through RegisterDesign,
// and the values flow through service.ParseDesign — the same vocabulary the
// daemon's wire schema uses — so a design named on any CLI is a design the
// HTTP API accepts verbatim. RegisterEngine does the same for the engine
// configuration surface (-parallel / -batch-runs), which maps onto
// fault.EngineConfig.
package cliflags

import (
	"flag"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/service"
	"repro/internal/spn"
)

// Canonical defaults of the shared design flag surface: the paper's
// evaluation target (PRESENT-80, three-in-one, master-λ prime entropy).
const (
	DefaultSpec    = "present80"
	DefaultScheme  = "three-in-one"
	DefaultEntropy = "prime"
	DefaultEngine  = "anf"
)

// Design holds the shared design-selection flag values after parsing.
type Design struct {
	Spec    string
	Scheme  string
	Entropy string
	Engine  string
}

// RegisterDesign installs the shared design flag surface on fs:
//
//	-spec     cipher spec (present80, gift64, scone64); -cipher is a
//	          legacy alias bound to the same value
//	-scheme   countermeasure scheme (core.SchemeVocabulary: unprotected,
//	          naive, acisp, three-in-one, correct, masked)
//	-entropy  entropy variant (prime, per-round, per-sbox)
//	-engine   S-box synthesis engine (anf, bdd)
func RegisterDesign(fs *flag.FlagSet) *Design {
	d := &Design{}
	fs.StringVar(&d.Spec, "spec", DefaultSpec, "cipher spec: present80, gift64, scone64")
	fs.StringVar(&d.Spec, "cipher", DefaultSpec, "alias for -spec")
	fs.StringVar(&d.Scheme, "scheme", DefaultScheme, "countermeasure scheme: "+core.SchemeVocabulary())
	fs.StringVar(&d.Entropy, "entropy", DefaultEntropy, "entropy variant: prime, per-round, per-sbox")
	fs.StringVar(&d.Engine, "engine", DefaultEngine, "S-box synthesis engine: anf, bdd")
	return d
}

// IsDefault reports whether the values still match the canonical defaults
// (tools whose experiments pin the design use this to reject overrides
// loudly instead of ignoring them).
func (d *Design) IsDefault() bool {
	return d.Spec == DefaultSpec && d.Scheme == DefaultScheme &&
		d.Entropy == DefaultEntropy && d.Engine == DefaultEngine
}

// DesignSpec converts the flag values to the service wire form.
func (d *Design) DesignSpec() service.DesignSpec {
	return service.DesignSpec{Cipher: d.Spec, Scheme: d.Scheme, Entropy: d.Entropy, Engine: d.Engine}
}

// Parse validates the flag values against the shared vocabulary and
// resolves them to build inputs.
func (d *Design) Parse() (*spn.Spec, core.Options, error) {
	return service.ParseDesign(d.DesignSpec())
}

// Build synthesises the selected design.
func (d *Design) Build() (*core.Design, error) {
	return service.BuildDesign(d.DesignSpec())
}

// Engine holds the shared engine-configuration flag values after parsing:
// the execution-policy knobs of fault.EngineConfig. Every configuration
// computes bit-identical campaign results; these flags only choose how fast
// the machine computes them.
type Engine struct {
	Parallel  int
	BatchRuns int
}

// RegisterEngine installs the shared engine-configuration flag surface on
// fs:
//
//	-parallel   worker goroutines per campaign (0 = GOMAXPROCS)
//	-batch-runs runs per worker dispatch, rounded up to whole 64-run
//	            batches (0 = one batch)
func RegisterEngine(fs *flag.FlagSet) *Engine {
	e := &Engine{}
	fs.IntVar(&e.Parallel, "parallel", 0, "worker goroutines per campaign (0 = GOMAXPROCS)")
	fs.IntVar(&e.BatchRuns, "batch-runs", 0, "runs per worker dispatch, rounded up to whole 64-run batches (0 = one batch)")
	return e
}

// Config validates the flag values and converts them to the engine
// configuration.
func (e *Engine) Config() (fault.EngineConfig, error) {
	cfg := fault.EngineConfig{Parallelism: e.Parallel, BatchRuns: e.BatchRuns}
	if err := cfg.Validate(); err != nil {
		return fault.EngineConfig{}, err
	}
	return cfg, nil
}
