package netsim

import (
	"fmt"

	"flowrecon/internal/workload"
)

// This file drives the paper's attack through the simulated network: the
// background hosts replay a traffic trace as echo exchanges, and the
// attacker injects forged-source probes (FleetProber) and classifies
// their RTTs with the 1 ms threshold — exactly the §VI-A procedure, but
// in virtual time. The paper's attacker spoofs a source host's address
// and listens for the reply on the shared switch port; in the simulator
// this is equivalent to sending from that host, since only the ingress
// flow table sees the source.

// ReplayTrace schedules every arrival of trace as an echo from its source
// host to the destination, offset seconds into the simulation. Flow IDs
// index setup.SourceHosts.
func ReplayTrace(f *Fleet, setup EvaluationSetup, trace *workload.Trace, offset float64) error {
	for _, a := range trace.Arrivals() {
		if int(a.Flow) >= len(setup.SourceHosts) {
			return fmt.Errorf("netsim: trace flow %d outside the %d evaluation hosts", a.Flow, len(setup.SourceHosts))
		}
		if _, err := f.SendEcho(setup.SourceHosts[a.Flow], setup.Destination, offset+a.Time); err != nil {
			return err
		}
	}
	return nil
}

// ProbeResult is the attacker's view of one probe.
type ProbeResult struct {
	// RTTms is the observed round-trip time in milliseconds (NaN when
	// the probe was lost).
	RTTms float64
	// Hit is the attacker's classification: RTT below the threshold
	// means a covering rule was cached (§III-A).
	Hit bool
	// Lost reports that no reply arrived before the probe deadline — the
	// probe or its reply was dropped by an injected fault. A lost probe
	// carries no timing observation: threshold attackers treat it as a
	// miss, model attackers as an explicit no-observation step.
	Lost bool
}
