package cliflags

import (
	"flag"
	"io"
	"testing"

	"repro/internal/fault"
)

func newFS() *flag.FlagSet {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs
}

// TestFlagSurface pins the shared design flag surface: names, defaults and
// the -cipher alias. Every scone CLI registers exactly this set, so a drift
// here is a drift in all of them.
func TestFlagSurface(t *testing.T) {
	fs := newFS()
	RegisterDesign(fs)
	for _, tc := range []struct {
		name, def string
	}{
		{"spec", DefaultSpec},
		{"cipher", DefaultSpec},
		{"scheme", DefaultScheme},
		{"entropy", DefaultEntropy},
		{"engine", DefaultEngine},
	} {
		f := fs.Lookup(tc.name)
		if f == nil {
			t.Errorf("-%s not registered", tc.name)
			continue
		}
		if f.DefValue != tc.def {
			t.Errorf("-%s default %q, want %q", tc.name, f.DefValue, tc.def)
		}
	}
}

// TestParseTable drives the shared surface through the service vocabulary:
// aliases land on the same field, every published spelling parses, and
// unknown values are rejected with an error.
func TestParseTable(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want Design
		bad  bool
	}{
		{name: "defaults", args: nil,
			want: Design{Spec: "present80", Scheme: "three-in-one", Entropy: "prime", Engine: "anf"}},
		{name: "spec spelling", args: []string{"-spec", "gift64"},
			want: Design{Spec: "gift64", Scheme: "three-in-one", Entropy: "prime", Engine: "anf"}},
		{name: "cipher alias", args: []string{"-cipher", "scone64"},
			want: Design{Spec: "scone64", Scheme: "three-in-one", Entropy: "prime", Engine: "anf"}},
		{name: "full selection", args: []string{"-spec", "present80", "-scheme", "acisp", "-entropy", "per-round", "-engine", "bdd"},
			want: Design{Spec: "present80", Scheme: "acisp", Entropy: "per-round", Engine: "bdd"}},
		{name: "unknown spec", args: []string{"-spec", "des"}, bad: true},
		{name: "unknown scheme", args: []string{"-scheme", "quadruple"}, bad: true},
		{name: "unknown entropy", args: []string{"-entropy", "cosmic"}, bad: true},
		{name: "unknown engine", args: []string{"-engine", "verilog"}, bad: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := newFS()
			d := RegisterDesign(fs)
			if err := fs.Parse(tc.args); err != nil {
				t.Fatal(err)
			}
			_, _, err := d.Parse()
			if tc.bad {
				if err == nil {
					t.Fatalf("vocabulary accepted: %+v", d)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if *d != tc.want {
				t.Fatalf("parsed %+v, want %+v", *d, tc.want)
			}
		})
	}
}

func TestIsDefault(t *testing.T) {
	fs := newFS()
	d := RegisterDesign(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if !d.IsDefault() {
		t.Fatal("unparsed surface should be default")
	}
	fs = newFS()
	d = RegisterDesign(fs)
	if err := fs.Parse([]string{"-entropy", "per-sbox"}); err != nil {
		t.Fatal(err)
	}
	if d.IsDefault() {
		t.Fatal("-entropy override not detected")
	}
}

// TestEngineFlagSurface pins the shared engine-configuration surface the
// same way TestFlagSurface pins the design surface.
func TestEngineFlagSurface(t *testing.T) {
	fs := newFS()
	RegisterEngine(fs)
	for _, tc := range []struct {
		name, def string
	}{
		{"parallel", "0"},
		{"batch-runs", "0"},
	} {
		f := fs.Lookup(tc.name)
		if f == nil {
			t.Errorf("-%s not registered", tc.name)
			continue
		}
		if f.DefValue != tc.def {
			t.Errorf("-%s default %q, want %q", tc.name, f.DefValue, tc.def)
		}
	}
}

func TestEngineConfig(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		bad  bool
	}{
		{name: "defaults", args: nil},
		{name: "wide parallel", args: []string{"-parallel", "8", "-batch-runs", "1024"}},
		// The lane-width flag is gone: the simulator has one width.
		{name: "bad width", args: []string{"-lanes", "4"}, bad: true},
		{name: "negative parallel", args: []string{"-parallel", "-1"}, bad: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := newFS()
			e := RegisterEngine(fs)
			err := fs.Parse(tc.args)
			var cfg fault.EngineConfig
			if err == nil {
				cfg, err = e.Config()
			}
			if tc.bad {
				if err == nil {
					t.Fatalf("accepted %+v", e)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if cfg.Parallelism != e.Parallel || cfg.BatchRuns != e.BatchRuns {
				t.Fatalf("config %+v does not mirror flags %+v", cfg, e)
			}
		})
	}
}

func TestBuildDefault(t *testing.T) {
	fs := newFS()
	d := RegisterDesign(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	des, err := d.Build()
	if err != nil {
		t.Fatal(err)
	}
	if des.Mod == nil {
		t.Fatal("built design has no module")
	}
}
