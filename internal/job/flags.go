package job

import (
	"flag"
	"fmt"

	"cyclops/internal/arch"
	"cyclops/internal/sim"
	"cyclops/internal/timing"
)

// Flags is the one shared definition of the engine/policy/latency
// selection flags. cyclops-sim, cyclops-bench and cyclops-serve all
// register it, so the flag names, defaults, usage strings and error
// messages have a single source of truth.
type Flags struct {
	engine        *string
	policy        *string
	switchPenalty *uint64
	lat           *string
}

// AddFlags registers -engine, -policy, -switch-penalty and -lat on fs.
func AddFlags(fs *flag.FlagSet) *Flags {
	return &Flags{
		engine: fs.String("engine", sim.DefaultEngine().String(),
			"execution engine: block or legacy"),
		policy: fs.String("policy", "fine",
			"issue policy: fine, blocked or switchmiss"),
		switchPenalty: fs.Uint64("switch-penalty", timing.DefaultSwitchPenalty,
			"context-switch penalty in cycles (blocked/switchmiss policies)"),
		lat: fs.String("lat", "table2",
			"latency model: comma-separated key=value overrides on Table 2 (fpu,fma,load,miss,rhit,rmiss,burst,lag)"),
	}
}

// Resolve parses all three selections, returning the first error.
func (f *Flags) Resolve() (sim.Engine, timing.Policy, timing.LatencyModel, error) {
	eng, err := sim.ParseEngine(*f.engine)
	if err != nil {
		return eng, nil, timing.LatencyModel{}, err
	}
	pol, err := timing.ParsePolicy(*f.policy, *f.switchPenalty)
	if err != nil {
		return eng, nil, timing.LatencyModel{}, err
	}
	lat, err := timing.ParseLatencies(*f.lat)
	return eng, pol, lat, err
}

// Usage is the shared usage fragment naming the selection flags, for the
// CLIs' usage lines.
const Usage = "[-engine E] [-policy P] [-switch-penalty N] [-lat SPEC]"

// InstallDefaults makes the resolved selections the process-wide
// defaults: the engine and policy for subsequently built machines, and —
// when the latency model differs from Table 2 — the architectural
// configuration returned by arch.Default. This is the cyclops-bench and
// cyclops-serve pattern: machines are built deep inside experiment
// points and request handlers, so CLI-wide selection installs defaults
// rather than threading parameters through every layer.
func (f *Flags) InstallDefaults() error {
	eng, pol, lat, err := f.Resolve()
	if err != nil {
		return err
	}
	sim.SetDefaultEngine(eng)
	timing.SetDefaultPolicy(pol)
	if lat != timing.DefaultLatencies() {
		cfg := lat.Apply(arch.Default())
		if _, err := arch.SetDefault(&cfg); err != nil {
			return fmt.Errorf("job: installing latency model: %w", err)
		}
	}
	return nil
}
