package netsim

import (
	"math"
	"testing"
	"time"

	"flowrecon/internal/controller"
	"flowrecon/internal/faults"
	"flowrecon/internal/telemetry"
)

// faultProbe sends one probe of flow 0 at t=0 through a fresh attack
// fabric (fleet seed 3) under the given fault profile.
func faultProbe(t *testing.T, prof faults.Profile) (ProbeResult, *Fleet) {
	t.Helper()
	f, setup := attackFleet(t, FleetConfig{Seed: 3, Faults: prof})
	res, err := NewFleetProber(f).Probe(setup.SourceHosts[0], setup.Destination, 0)
	if err != nil {
		t.Fatalf("probe under %+v: %v", prof, err)
	}
	return res, f
}

// TestFaultLossClassifiesProbeLost: at LossProb 1 every probe is lost,
// yields an explicit Lost result instead of an error, and installs
// nothing (drop happens before the ingress lookup).
func TestFaultLossClassifiesProbeLost(t *testing.T) {
	res, f := faultProbe(t, faults.Profile{Seed: 1, LossProb: 1})
	if !res.Lost || res.Hit {
		t.Fatalf("want Lost miss, got %+v", res)
	}
	if !math.IsNaN(res.RTTms) {
		t.Fatalf("lost probe carries an RTT: %v", res.RTTms)
	}
	if f.Table("yoza_rtr").Contains(0, 1) {
		t.Fatal("dropped probe installed a rule")
	}
	if packetIns(f) != 0 {
		t.Fatal("dropped probe consulted the controller")
	}
}

// TestFaultJitterDelaysButDelivers: pure jitter never loses a probe and
// inflates the RTT.
func TestFaultJitterDelaysButDelivers(t *testing.T) {
	rc, _ := faultProbe(t, faults.Profile{})
	rj, _ := faultProbe(t, faults.Profile{Seed: 2, JitterMeanMs: 1})
	if rj.Lost {
		t.Fatal("jitter-only profile lost a probe")
	}
	if rj.RTTms <= rc.RTTms {
		t.Fatalf("jittered RTT %.4f not above clean RTT %.4f", rj.RTTms, rc.RTTms)
	}
}

// TestFaultDeterminism: the same (fleet seed, fault seed) pair gives the
// identical probe outcome sequence; changing only the fault seed changes
// it.
func TestFaultDeterminism(t *testing.T) {
	run := func(faultSeed int64) []ProbeResult {
		f, setup := attackFleet(t, FleetConfig{Seed: 3, Faults: faults.Profile{Seed: faultSeed, LossProb: 0.3, JitterMeanMs: 0.5}})
		prober := NewFleetProber(f)
		out := make([]ProbeResult, 20)
		at := 0.0
		for i := range out {
			res, err := prober.Probe(setup.SourceHosts[i%4], setup.Destination, at)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = res
			at = f.Now() + 0.05
		}
		return out
	}
	equal := func(a, b ProbeResult) bool {
		if a.Lost != b.Lost || a.Hit != b.Hit {
			return false
		}
		return a.RTTms == b.RTTms || (math.IsNaN(a.RTTms) && math.IsNaN(b.RTTms))
	}
	a, b := run(7), run(7)
	for i := range a {
		if !equal(a[i], b[i]) {
			t.Fatalf("probe %d diverged under identical seeds: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := run(8)
	same := true
	for i := range a {
		if !equal(a[i], c[i]) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("fault seeds 7 and 8 produced identical sequences")
	}
}

// TestFaultTelemetryCounters: drops surface in the fleet's drop counter.
func TestFaultTelemetryCounters(t *testing.T) {
	reg := telemetry.NewRegistry(0)
	f, setup := attackFleet(t, FleetConfig{Seed: 3, Faults: faults.Profile{Seed: 1, LossProb: 1}, Registry: reg})
	if _, err := NewFleetProber(f).Probe(setup.SourceHosts[0], setup.Destination, 0); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counters["netsim_fleet_drops_total"]; got == 0 {
		t.Fatal("no loss recorded in telemetry")
	}
}

// TestFaultControllerSlowdown: controller stalls and the slowdown factor
// inflate miss RTTs.
func TestFaultControllerSlowdown(t *testing.T) {
	rc, _ := faultProbe(t, faults.Profile{}) // first probe always misses
	rs, _ := faultProbe(t, faults.Profile{Seed: 5, StallProb: 1, StallMs: 50})
	if rc.Hit || rs.Hit {
		t.Fatalf("first probes should miss: clean=%+v stalled=%+v", rc, rs)
	}
	if rs.RTTms < rc.RTTms+40 {
		t.Fatalf("stalled miss RTT %.3f not ≈50ms above clean %.3f", rs.RTTms, rc.RTTms)
	}
	// SlowFactor scales the decision latency: 10 ms of controller
	// processing at factor 3 costs 20 ms more.
	slowProbe := func(prof faults.Profile) ProbeResult {
		ctrl := NewControllerModel(attackPolicy(t), controller.Options{ProcessingDelay: 10 * time.Millisecond})
		f, setup := attackFleet(t, FleetConfig{Seed: 3, Ctrl: ctrl, Faults: prof})
		res, err := NewFleetProber(f).Probe(setup.SourceHosts[0], setup.Destination, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base, slowed := slowProbe(faults.Profile{}), slowProbe(faults.Profile{Seed: 5, SlowFactor: 3})
	if d := slowed.RTTms - base.RTTms; math.Abs(d-20) > 0.5 {
		t.Fatalf("slowed miss RTT %.3f is %.3f ms above clean %.3f, want ≈20", slowed.RTTms, d, base.RTTms)
	}
}
